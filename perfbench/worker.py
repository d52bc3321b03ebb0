"""One fresh interpreter that imports altproj and runs a workload's ops.

    python3 perfbench/worker.py --src SRC --ops OPS.json --mode MODE
                                --seconds S --result RESULT.json

Modes:

* ``setup``: one pass in which each op stops as soon as the program
  reaches its work (engine run or probe); only set-up is timed.
* ``run``: whole passes over the ops, as many as fit in ``--seconds``
  (at least one); only the coarse per-op timestamps are taken, and for
  ops marked ``ticks`` the step number and time of every trace record
  the engine makes.
* ``trace``: like ``run``, with every layer boundary wrapped (see
  ``tracer.py``).

Each op is one ``altproj.cli.main`` call.  The result file holds the
import time, one row per op call, the peak RSS and, in trace mode, the
aggregated spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

clock = time.perf_counter

KIND_TAGS = {
    "Halfspace": "halfspace", "Hyperplane": "hyperplane", "Ball": "ball",
    "Polygon2D": "polygon2d", "OrthoSubspace": "ortho_subspace",
    "AffineSubspace": "affine_subspace", "NonnegOrthant": "nonneg_orthant",
    "Polyhedron": "polyhedron", "DiagonalAffineGraph": "diagonal_affine_graph",
}


class SetupDone(BaseException):
    """Raised at the first work entry in setup mode; derives from
    BaseException so that no handler inside altproj swallows it."""


def replace_everywhere(original, replacement):
    """Point every altproj module attribute bound to ``original`` elsewhere."""
    for name, mod in list(sys.modules.items()):
        if name == "altproj" or name.startswith("altproj."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def _run_units(result, args, kwargs):
    return {"steps": result.final.n, "records": len(result.records)}


def _aw_units(result, args, kwargs):
    return {"samples": 2 * result.n_samples, "aw_samples": 2 * result.n_samples}


def _arg(args, kwargs, name, pos, default):
    return kwargs.get(name, args[pos] if len(args) > pos else default)


def _exposure_units(result, args, kwargs):
    # one slice sample and one cone-shift sample per point and alpha
    return {"samples": 2 * _arg(args, kwargs, "n_samples", 3, 400) * len(result.alphas)}


def install(tracer: Tracer, mode: str, op_state: dict):
    """Wrap the work entry points (all modes) and, in trace mode, every layer."""
    from altproj import cli, constructions, engine, geometry, sets, variational

    def entry(fn):
        def marked(*args, **kwargs):
            if op_state["work_start"] is None:
                op_state["work_start"] = clock()
            if mode == "setup":
                raise SetupDone
            return fn(*args, **kwargs)
        return marked

    entries = [
        (engine.run_perturbed, "engine.run_perturbed", _run_units),
        (variational.aw_distance, "variational.aw_distance", _aw_units),
        (variational.strongly_exposes_probe, "variational.strongly_exposes_probe",
         _exposure_units),
        (variational.omega_angle, "variational.omega_angle", None),
    ]
    for fn, name, count in entries:
        replace_everywhere(fn, tracer.span(name, entry(fn), count))

    record = engine.TraceRecord

    def ticked(**fields):
        if op_state["ticks"] is not None:
            op_state["ticks"].append((fields["n"], clock()))
        return record(**fields)

    engine.TraceRecord = ticked   # looked up by run_perturbed at every record
    if mode != "trace":
        return

    coarse = [
        (cli.load_config, "cli.load_config", None),
        (sets.set_from_dict, "sets.set_from_dict", None),
        (constructions.build_ell2_construction, "constructions.build_ell2_construction",
         None),
        (constructions.stable_scenario, "constructions.stable_scenario", None),
        (engine.trace_to_csv, "engine.trace_to_csv", None),
        (engine.trace_to_json, "engine.trace_to_json", None),
        (variational.epsilon_alpha, "variational.epsilon_alpha",
         lambda r, a, k: {"eps_samples": _arg(a, k, "n_boundary", 4, 2000)}),
        (sets.slice_sample, "sets.slice_sample",
         lambda r, a, k: {"slice_samples": _arg(a, k, "n_samples", 3, None)}),
    ]
    for fn, name, count in coarse:
        replace_everywhere(fn, tracer.span(name, fn, count))
    replace_everywhere(geometry.as_point, tracer.leaf("geometry.as_point", geometry.as_point))
    engine.Adaptive.pair = tracer.leaf("constructions.pair", engine.Adaptive.pair)
    for cls in sets.SET_KINDS:
        cls.__init__ = tracer.leaf("sets.construct", cls.__init__)
        if cls.__name__ in KIND_TAGS:
            cls.project = tracer.leaf(f"sets.project.{KIND_TAGS[cls.__name__]}", cls.project)


def _peak_rss_kb() -> int:
    """Peak resident memory of this process.

    VmHWM starts afresh at exec; ru_maxrss may carry the parent's peak
    over, so it is only the fallback.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file()) if path.is_dir() else 0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--ops", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    t0 = clock()
    import altproj
    import_s = clock() - t0
    if not Path(altproj.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        sys.exit(f"altproj imported from {altproj.__file__}, not from {args.src}")
    from altproj import cli

    ops = json.loads(Path(args.ops).read_text())
    tracer = Tracer()
    op_state = {"work_start": None, "ticks": None}
    install(tracer, args.mode, op_state)
    run_op = tracer.span("op", cli.main)

    rows = []
    passes = 0
    began = clock()
    while True:
        for op in ops:
            argv = [op["command"], "--config", op["config"], "--out", op["out"], "--quiet"]
            op_state["work_start"] = None
            op_state["ticks"] = [] if op.get("ticks") and args.mode != "setup" else None
            units_before = dict(tracer.units)
            start = clock()
            try:
                rc = run_op(argv)
            except SetupDone:
                rc = 0
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                rc = f"{type(exc).__name__}: {exc}"
            end = clock()
            work_start = op_state["work_start"] or end
            units = {k: v - units_before.get(k, 0) for k, v in tracer.units.items()}
            rows.append({"name": op["name"], "rc": rc, "start": start,
                         "work_start": work_start,
                         "end": end, "units": units, "ticks": op_state["ticks"],
                         "bytes": _dir_bytes(Path(op["out"]))})
        passes += 1
        # stop unless another pass as long as the mean one fits in --seconds
        elapsed = clock() - began
        if args.mode == "setup" or elapsed * (passes + 1) / passes > args.seconds:
            break

    result = {"import_s": import_s, "passes": passes, "ops": rows,
              "maxrss_kb": _peak_rss_kb()}
    if args.mode == "trace":
        result["trace"] = tracer.export()
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
