"""Config-driven command line: build instances, run experiments, emit reports.

Subcommands
-----------
run       execute an experiment config, write the trace CSV (and optional
          full-precision JSON), print a one-line summary
probe     execute a probe config, write the probe report JSON
validate  dry-run: build everything, re-check construction invariants,
          print the checked-inequality ledger, run nothing long

Exit codes: 0 completed, 2 a schedule exhausted its budget before its
predicates fired, 1 any other error (IO, schema, infeasible parameters).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import constructions as cons
from . import variational as var
from .engine import (Blocks, Constant, ProjectionStepError, RunConfig, ScheduleExhausted,
                     run_perturbed, trace_to_csv, trace_to_json)
from .geometry import as_point
from .sets import (DykstraNonConvergence, ProjectionCertificateError, SamplerFailure,
                   set_from_dict)


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


def _require(cond, field, msg):
    if not cond:
        raise ConfigError(f"config field {field!r}: {msg}")


def _check_keys(d: dict, allowed: set, context: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) {sorted(unknown)} in {context}")


# The config kinds and the params fields each accepts.
_PARAM_KEYS = {
    "classical": {"A", "B", "start", "stop_residual", "target"},
    "perturbed": {"blocks", "start", "stop_residual", "target"},
    "example44": {"n_blocks", "max_block_len", "start"},
    "example51": {"n_blocks", "max_block_len", "start"},
    "ell2": {"d", "H", "ratio", "slack", "start", "max_block_n",
             "engine_step_budget", "aw_windows"},
    "stable-scenario": {"scenario", "delta_law", "delta_scale", "start",
                        "scenario_params"},
    "probe": {"probe", "U", "V", "set", "f", "alphas", "n_samples",
              "A", "C", "N", "family", "count", "M", "omega"},
}


def load_config(path) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(cfg, {"kind", "seed", "max_iter", "record_stride", "output", "params"},
                "config root")
    _require("kind" in cfg, "kind", "is required")
    _require(cfg["kind"] in _PARAM_KEYS, "kind", f"must be one of {tuple(_PARAM_KEYS)}")
    cfg.setdefault("seed", 0)
    _require(isinstance(cfg["seed"], int), "seed", "must be an integer")
    if "record_stride" in cfg:
        _require(isinstance(cfg["record_stride"], int) and cfg["record_stride"] >= 1,
                 "record_stride", "must be a positive integer")
    if "max_iter" in cfg:
        _require(isinstance(cfg["max_iter"], int) and cfg["max_iter"] >= 1,
                 "max_iter", "must be a positive integer")
    out = cfg.setdefault("output", {})
    _require(isinstance(out, dict), "output", "must be an object")
    _check_keys(out, {"trace_csv", "trace_json", "report_json", "construction_json"},
                "output")
    params = cfg.setdefault("params", {})
    _require(isinstance(params, dict), "params", "must be an object")
    _check_keys(params, _PARAM_KEYS[cfg["kind"]], f"params ({cfg['kind']})")
    cfg["_sha256"] = hashlib.sha256(raw).hexdigest()
    return cfg


def _parse_set(obj, field, dim=None):
    """A projectable set from its descriptor, in R^dim when dim is given."""
    _require(isinstance(obj, dict), field, "must be a set-descriptor object")
    try:
        S = set_from_dict(obj)
    except Exception as exc:
        raise ConfigError(f"config field {field!r}: bad set descriptor ({exc})")
    _require(S.projectable, field, "is a membership-only kind; runs and probes need a projection")
    _require(dim is None or S.dim == dim, field, f"has dimension {S.dim}, expected {dim}")
    return S


def _int(p, key, default=None, minimum=1):
    """params[key] (or default), an integer >= minimum; required without default."""
    val = p.get(key, default)
    _require(isinstance(val, int) and val >= minimum, f"params.{key}",
             f"must be an integer >= {minimum}")
    return val


_REQUIRED = object()


def _number(p, key, default=_REQUIRED):
    """params[key] (or default), a JSON number: strings and bools are rejected;
    the value is returned as given."""
    val = p.get(key, default)
    _require(val is not _REQUIRED, f"params.{key}", "is required")
    _require(isinstance(val, (int, float)) and not isinstance(val, bool), f"params.{key}",
             f"must be a number, got {val!r}")
    return val


def _vector(p, key, dim=None, default=_REQUIRED):
    """params[key] as a finite point; ``default`` when absent or null."""
    if p.get(key) is None:
        _require(default is not _REQUIRED, f"params.{key}", "is required")
        return default
    try:
        return as_point(p[key], dim=dim)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'params.{key}': {exc}")


@dataclass(frozen=True)
class Job:
    """A config read and checked once.  ``execute(out_dir, quiet)`` does the
    long work and returns the trace to write (None if there is none) or the
    probe report; the other fields are what ``validate`` re-checks."""

    execute: object
    schedule: object = None
    scenario: object = None
    construction: object = None
    n_blocks: int = 0


def _engine_job(cfg, p, schedule, dim, max_iter, start=_REQUIRED, target=None, scenario=None):
    """Job running the engine on ``schedule`` from params.start in R^dim."""
    run_cfg = RunConfig(start=_vector(p, "start", dim, start),
                        max_iter=cfg.get("max_iter", max_iter),
                        stop_residual=(None if p.get("stop_residual") is None
                                       else _number(p, "stop_residual")),
                        record_stride=cfg.get("record_stride", 1),
                        target=_vector(p, "target", dim, target))
    return Job(lambda out_dir, quiet: run_perturbed(schedule, run_cfg), schedule=schedule,
               scenario=scenario)


def _build_classical(cfg, p):
    A = _parse_set(p.get("A"), "params.A")
    B = _parse_set(p.get("B"), "params.B", A.dim)
    return _engine_job(cfg, p, Constant(A, B), A.dim, max_iter=1000)


def _build_perturbed(cfg, p):
    _require(isinstance(p.get("blocks"), list) and p["blocks"],
             "params.blocks", "must be a nonempty list")
    dim = _vector(p, "start").size
    blocks = []
    for i, blk in enumerate(p["blocks"]):
        field = f"params.blocks[{i}]"
        _require(isinstance(blk, dict), field, "must be an object")
        _check_keys(blk, {"A", "B", "len"}, field)
        _require(isinstance(blk.get("len"), int) and blk["len"] >= 1,
                 f"{field}.len", "must be a positive integer")
        blocks.append((_parse_set(blk.get("A"), f"{field}.A", dim),
                       _parse_set(blk.get("B"), f"{field}.B", dim), blk["len"]))
    schedule = Blocks(tuple(blocks))
    return _engine_job(cfg, p, schedule, dim, max_iter=schedule.total_length)


def _build_scenario(cfg, p):
    _require("scenario" in p, "params.scenario", "is required")
    extra = p.get("scenario_params", {})
    _require(isinstance(extra, dict), "params.scenario_params", "must be an object")
    scen = cons.stable_scenario(p["scenario"], delta_law=p.get("delta_law", "inv_n"),
                                delta_scale=_number(p, "delta_scale", 1.0), **extra)
    return _engine_job(cfg, p, scen.make_schedule(), scen.A.dim, max_iter=10_000,
                       start=scen.default_start, target=scen.target, scenario=scen)


def _build_example(cfg, p, run, min_blocks):
    n_blocks = _int(p, "n_blocks", minimum=min_blocks)
    max_block_len = _int(p, "max_block_len", 10_000)
    start = _vector(p, "start", 2, (0.0, 0.0))
    stride = cfg.get("record_stride", 1)
    return Job(lambda out_dir, quiet: run(n_blocks, max_block_len=max_block_len, start=start,
                                          record_stride=stride), n_blocks=n_blocks)


def _build_ell2(cfg, p):
    d, H = _int(p, "d"), _int(p, "H")
    c = cons.build_ell2_construction(
        d, H, ratio=_number(p, "ratio", 0.5), slack=_number(p, "slack", 0.5),
        start=_vector(p, "start", d, None), max_block_n=_int(p, "max_block_n", 10 ** 8))
    budget = _int(p, "engine_step_budget", 5_000_000, minimum=0)
    windows = p.get("aw_windows", [1, 2, 4])
    _require(isinstance(windows, list) and all(
        isinstance(N, int) and not isinstance(N, bool) and N >= 1 for N in windows),
        "params.aw_windows", "must be a list of integers >= 1")
    out = cfg["output"]
    stride = cfg.get("record_stride", 0)  # 0: ell2_run picks about 1000 records

    def execute(out_dir, quiet):
        (out_dir / out.get("construction_json", "construction.json")).write_text(
            json.dumps(c.as_dict(), indent=1))
        total = sum(blk.N for blk in c.blocks)
        certificate = cons.ell2_aw_certificate(c, windows)
        if total > budget:
            if not quiet:
                print(f"engine run skipped: total steps {total} exceed budget {budget}; "
                      "construction and certificate written from closed forms")
            ends = [float(np.sum(blk.end_alphas ** 2)) for blk in c.blocks]
            trace = None
        else:
            trace = cons.ell2_run(c, record_stride=stride)
            boundaries = set(c.block_boundaries())
            ends = [r.norm_a ** 2 for r in trace.records if r.n in boundaries]
        if not quiet:
            for blk, sq in zip(c.blocks, ends):
                print(f"block {blk.h}: N={blk.N} end ||a||^2 = {sq:.9g} "
                      f"(> {2.0 ** blk.h}: {sq > 2.0 ** blk.h})")
        report = {"block_end_norm_sq": ends,
                  "aw_certificate": [{"h": h, "N": N, "bound": b}
                                     for h, N, b in certificate],
                  "engine_run": trace is not None}
        (out_dir / out.get("report_json", "report.json")).write_text(
            json.dumps(report, indent=1))
        return trace

    return Job(execute, construction=c)


def _aw_family_pair(family, k):
    """The k-th (moving set, limit set) pair of a named aw probe family."""
    if family == "unstable_bodies":
        A, _, C, _ = cons.example_unstable_bodies(k)
        return C, A
    return cons.tilted_line(k), cons.OrthoSubspace(np.array([[1.0, 0.0]]))


def _build_probe(cfg, p):
    seed = cfg["seed"]
    probe = p.get("probe")
    _require(probe in ("omega", "exposure", "aw", "separation"),
             "params.probe", "must be omega | exposure | aw | separation")
    for key in {"omega": ("U", "V")}.get(probe, ()):
        _require(key in p, f"params.{key}", "is required")
    # The two closed-form probes are computed here, so validate checks them in full.
    if probe == "omega":
        rep = var.omega_angle(np.array(p["U"], dtype=float), np.array(p["V"], dtype=float))
        return Job(lambda out_dir, quiet: {"probe": "omega", "seed": seed,
                                           "result": rep.as_dict()})
    if probe == "exposure":
        S = _parse_set(p.get("set"), "params.set")
        f = _vector(p, "f", S.dim)
        alphas = [float(a) for a in _vector(p, "alphas")]
        n = _int(p, "n_samples", 400)
        return Job(lambda out_dir, quiet: {
            "probe": "exposure", "seed": seed, "n_samples": n,
            "result": var.strongly_exposes_probe(S, f, alphas, n_samples=n,
                                                 rng_seed=seed).as_dict()})
    if probe == "separation":
        eps, eta = var.separation_constants(float(_number(p, "M")), float(_number(p, "omega")))
        return Job(lambda out_dir, quiet: {"probe": "separation", "seed": seed,
                                           "result": {"eps": eps, "eta": eta}})
    N = _int(p, "N", 2)
    n = _int(p, "n_samples", 1500)
    if "family" in p:
        family = p["family"]
        _require(family in ("unstable_bodies", "tilted_lines"), "params.family",
                 "must be unstable_bodies | tilted_lines")
        count = _int(p, "count", 6)

        def execute(out_dir, quiet):
            rows = [{"index": k, **var.aw_distance(*_aw_family_pair(family, k), N, n_samples=n,
                                                   rng_seed=seed + k).as_dict()}
                    for k in range(1, count + 1)]
            return {"probe": "aw", "seed": seed, "family": family, "N": N,
                    "n_samples": n, "result": rows}
        return Job(execute)
    A = _parse_set(p.get("A"), "params.A")
    C = _parse_set(p.get("C"), "params.C", A.dim)
    return Job(lambda out_dir, quiet: {
        "probe": "aw", "seed": seed,
        "result": var.aw_distance(A, C, N, n_samples=n, rng_seed=seed).as_dict()})


_BUILDERS = {
    "classical": _build_classical,
    "perturbed": _build_perturbed,
    "stable-scenario": _build_scenario,
    "example44": lambda cfg, p: _build_example(cfg, p, cons.run_example_unstable, 2),
    "example51": lambda cfg, p: _build_example(cfg, p, cons.run_example_unbounded_lines, 1),
    "ell2": _build_ell2,
    "probe": _build_probe,
}


def build_job(cfg) -> Job:
    """Read and check every parameter of a loaded config; nothing long runs."""
    return _BUILDERS[cfg["kind"]](cfg, cfg["params"])


def _summary(trace, quiet):
    last = trace.final
    done = len(trace.completed_blocks())
    line = (f"status={trace.status} schedule_complete={trace.schedule_complete} "
            f"steps={last.n} blocks_completed={done} norm_a={last.norm_a:.6g} "
            f"res_a={last.res_a:.3g}"
            + (f" dist_target={last.dist_target:.6g}" if last.dist_target is not None else ""))
    if not quiet:
        print(line)
    return line


def _exit_code(trace) -> int:
    if trace.status == "schedule_exhausted" and not trace.schedule_complete:
        return 2
    return 0


def cmd_run(cfg, out_dir: Path, quiet: bool) -> int:
    _require(cfg["kind"] != "probe", "kind", "probe configs run under the 'probe' subcommand")
    job = build_job(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = job.execute(out_dir, quiet)
    if trace is None:
        return 0
    meta = {"config_sha256": cfg["_sha256"], "seed": cfg["seed"], "kind": cfg["kind"]}
    trace_to_csv(trace, out_dir / cfg["output"].get("trace_csv", "trace.csv"), meta=meta)
    json_name = cfg["output"].get("trace_json")
    if json_name:
        trace_to_json(trace, out_dir / json_name, meta=meta)
    _summary(trace, quiet)
    return _exit_code(trace)


def cmd_probe(cfg, out_dir: Path, quiet: bool) -> int:
    _require(cfg["kind"] == "probe", "kind", "must be 'probe' for the probe subcommand")
    report = build_job(cfg).execute(out_dir, quiet)
    report["config_sha256"] = cfg["_sha256"]
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / cfg["output"].get("report_json", "report.json")
    path.write_text(json.dumps(report, indent=1))
    if not quiet:
        print(f"probe={report['probe']} written to {path}")
    return 0


def cmd_validate(cfg, out_dir: Path, quiet: bool) -> int:
    """Build the configured instances and re-check their invariants."""
    kind = cfg["kind"]
    job = build_job(cfg)
    checked = []

    def note(name, ok, detail=""):
        checked.append((name, ok, detail))

    if job.schedule is not None:
        note("schedule and run config construct", True, type(job.schedule).__name__)
    if job.scenario is not None:
        scen = job.scenario
        for n in (1, 10):
            est = var.aw_distance(scen.a_family(n), scen.A, N=2,
                                  n_samples=200, rng_seed=cfg["seed"])
            note(f"perturbation {n}: h_2(A_n, A) <= 3*delta_n",
                 est.h_N <= 3.0 * scen.delta(n) + 1e-9,
                 f"h_2 = {est.h_N:.3g}, delta = {scen.delta(n):.3g}")
    if kind == "example44":
        for h in range(1, job.n_blocks + 1):
            A, B, C, D = cons.example_unstable_bodies(h)
            anchor = np.array([1.0, 0.0]) if h % 2 == 1 else np.array([-1.0, 0.0])
            note(f"pair {h}: bodies touch at {anchor.tolist()}",
                 C.contains(anchor, 1e-12) and D.contains(anchor, 1e-12),
                 f"C has {len(C.vertices)} vertices, D has {len(D.vertices)}")
    elif kind == "example51":
        for k in range(1, job.n_blocks + 1):
            L = cons.tilted_line(k)
            ok = (L.distance(np.array([0.0, 1.0 / k])) < 1e-12
                  and L.distance(np.array([float(k), 0.0])) < 1e-12)
            note(f"line {k}: passes through (0, 1/{k}) and ({k}, 0)", ok)
    elif kind == "ell2":
        for name, ok, detail in job.construction.verify_conditions():
            note(name, ok, detail)
        note("block lengths", True, str([blk.N for blk in job.construction.blocks]))
    elif kind == "probe":
        note("probe parameters construct", True, cfg["params"]["probe"])

    failures = [name for name, ok, _ in checked if not ok]
    if not quiet:
        for name, ok, detail in checked:
            mark = "ok" if ok else "FAIL"
            print(f"[{mark}] {name}" + (f" ({detail})" if detail else ""))
    if failures:
        print(f"validation failed: {failures[0]}", file=sys.stderr)
        return 1
    if not quiet:
        print(f"validated {len(checked)} checks")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="altproj",
        description="Alternating-projection experiments, perturbation schedules, "
                    "and set-convergence probes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (("run", "run an experiment config"),
                        ("probe", "run a probe config"),
                        ("validate", "dry-run: build and re-check invariants")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", required=True, help="path to JSON config")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--max-iter", type=int, default=None, help="override max_iter")
        sp.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.max_iter is not None:
            cfg["max_iter"] = args.max_iter
        out_dir = Path(args.out)
        if args.command == "run":
            return cmd_run(cfg, out_dir, args.quiet)
        if args.command == "probe":
            return cmd_probe(cfg, out_dir, args.quiet)
        return cmd_validate(cfg, out_dir, args.quiet)
    except ScheduleExhausted as exc:
        print(f"schedule exhausted: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ProjectionStepError, ProjectionCertificateError, DykstraNonConvergence,
            SamplerFailure, cons.BlockBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
