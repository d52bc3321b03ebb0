"""Config-driven command line: build instances, run experiments, emit reports.

Subcommands
-----------
run       execute an experiment config, write the trace CSV (and optional
          full-precision JSON), print a one-line summary
probe     execute a probe config, write the probe report JSON
validate  dry-run: build everything, re-check construction invariants (an
          exposure config runs its probe), print the checked-inequality ledger

Every config is checked against the package's ``schema.json`` before anything is
built.  The schema owns the config's own fields, ``sets.set_from_dict`` set
descriptors and ``constructions.stable_scenario`` its ``scenario_params``; the
library's signatures hold the defaults, so a builder passes only the fields a
config sets.  One builder per config kind holds the checks that dimensions agree,
and returns a ``Job``: what ``run`` or ``probe`` executes and the ledger rows
``validate`` prints.

Exit codes: 0 completed, 2 a schedule exhausted its budget before its
predicates fired, 1 any other error (IO, schema, infeasible parameters).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import constructions as cons
from . import variational as var
from .engine import (Blocks, Constant, ProjectionStepError, RunConfig, _output, run_perturbed,
                     trace_to_csv, trace_to_json)
from .geometry import as_point
from .sets import ProjectionCertificateError, SamplerFailure, _check_orthonormal, set_from_dict

# CPython's built-in SHA-256 gives hashlib's digest without loading OpenSSL's
# libcrypto, 3.6 MB of a run's resident memory; hashlib only where neither exists.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


def _fail(field, msg):
    raise ConfigError(f"config field {field!r}: {msg}" if field else f"config root: {msg}")


def _require(cond, field, msg):
    if not cond:
        _fail(field, msg)


@contextlib.contextmanager
def _naming(field):
    """Turn a ValueError raised by a library check in the block into a
    ConfigError naming ``field``."""
    try:
        yield
    except ValueError as exc:
        _fail(field, str(exc))


# The draft-07 subset the config validator implements.  An integer is an int,
# not a bool or 2.0, and a number an int or float; both must be finite doubles.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          and abs(v) <= sys.float_info.max),
    "number": lambda v: isinstance(v, float) and math.isfinite(v) or _TYPES["integer"](v),
}
_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "maximum": (operator.le, "<="), "exclusiveMaximum": (operator.lt, "<")}


@functools.cache
def config_schema() -> dict:
    """The config schema shipped with the package, read once per process.  It uses
    only the keywords ``_check`` implements (``tests/test_schema.py`` walks it)."""
    return json.loads(Path(__file__).with_name("schema.json").read_text())


def _check(value, schema, field=""):
    """Raise ConfigError naming the first field of ``value`` that breaks ``schema``."""
    _require(schema is not False, field, "is not used here")
    if "$ref" in schema:
        schema = config_schema()["definitions"][schema["$ref"].removeprefix("#/definitions/")]
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](value) for t in types):
        _require(not (type(value) is int and {"integer", "number"} & {*types}), field,
                 "is an integer outside the double range")
        _fail(field, f"must be of type {' or '.join(types)}, got {value!r:.60}")
    if "enum" in schema and value not in schema["enum"]:
        _fail(field, f"must be one of {tuple(schema['enum'])}")
    if "const" in schema and value != schema["const"]:
        _fail(field, f"must be {schema['const']!r}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        if "additionalProperties" in schema and not props.keys() >= value.keys():
            raise ConfigError(f"unknown field(s) {sorted(value.keys() - props.keys())} in "
                              f"{field or 'config root'}")
        for key in schema.get("required", ()):
            _require(key in value, f"{field}.{key}".lstrip("."), "is required")
        for key, sub in props.items():
            if key in value:
                _check(value[key], sub, f"{field}.{key}".lstrip("."))
    if isinstance(value, list):
        _require(len(value) >= schema.get("minItems", 0), field,
                 f"must have at least {schema.get('minItems')} item(s)")
        for i, item in enumerate(value if "items" in schema else ()):
            _check(item, schema["items"], f"{field}[{i}]")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        for word, (ok, op) in _BOUNDS.items():
            if word in schema and not ok(value, schema[word]):
                _fail(field, f"must be {op} {schema[word]}")
    for sub in schema.get("allOf", ()):
        _check(value, sub, field)
    if "if" in schema:
        try:
            _check(value, schema["if"])
        except ConfigError:
            return
        _check(value, schema.get("then", {}), field)


def load_config(path, **overrides) -> dict:
    """Read a config, set the root fields of ``overrides`` that are not None
    (the command line's --seed and --max-iter) and check it against the schema."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if isinstance(cfg, dict):
        cfg.update((k, v) for k, v in overrides.items() if v is not None)
    _check(cfg, config_schema())
    cfg.setdefault("seed", 0)
    cfg.setdefault("output", {})
    cfg["_sha256"] = sha256(raw).hexdigest()
    return cfg


def _parse_set(obj, field, dim=None):
    """A set from its descriptor, in R^dim when dim is given."""
    try:
        S = set_from_dict(obj)
    except Exception as exc:
        raise ConfigError(f"config field {field!r}: bad set descriptor ({exc})")
    _require(dim is None or S.dim == dim, field, f"has dimension {S.dim}, expected {dim}")
    return S


def _given(**fields):
    """The keyword arguments a config sets (not absent, not null); the library's
    signatures hold the defaults of the rest."""
    return {key: value for key, value in fields.items() if value is not None}


def _vector(p, key, dim=None, default=None):
    """params[key] as a point in R^dim; ``default`` when absent or null."""
    if p.get(key) is None:
        return default
    x = as_point(p[key])
    _require(dim is None or x.size == dim, f"params.{key}",
             f"has dimension {x.size}, expected {dim}")
    return x


@dataclass(frozen=True)
class Job:
    """A config read and checked once.  ``execute(out_dir, quiet)`` does the
    long work and returns the trace to write (None if there is none) or the
    probe report; ``checks()`` re-checks the built instances without running
    anything long and gives the ``(name, ok, detail)`` rows ``validate`` prints."""

    execute: object
    checks: object


def _engine_job(cfg, p, schedule, dim, max_iter, start=None, target=None, scenario=None):
    """Job running the engine on ``schedule`` from params.start in R^dim; a
    ``scenario``'s checks bound its first perturbations in the AW sense."""
    run_cfg = RunConfig(start=_vector(p, "start", dim, start),
                        max_iter=cfg.get("max_iter", max_iter),
                        stop_residual=p.get("stop_residual"),
                        target=_vector(p, "target", dim, target),
                        **_given(record_stride=cfg.get("record_stride")))

    def checks():
        yield "schedule and run config construct", True, type(schedule).__name__
        for n in (1, 10) if scenario is not None else ():
            est = var.aw_distance(scenario.a_family(n), scenario.A, N=2,
                                  n_samples=200, rng_seed=cfg["seed"])
            yield (f"perturbation {n}: h_2(A_n, A) <= 3*|delta_n|",
                   est.h_N <= 3.0 * abs(scenario.delta(n)) + 1e-9,
                   f"h_2 = {est.h_N:.3g}, delta = {scenario.delta(n):.3g}")

    return Job(lambda out_dir, quiet: run_perturbed(schedule, run_cfg), checks)


def _build_classical(cfg, p):
    A = _parse_set(p["A"], "params.A")
    B = _parse_set(p["B"], "params.B", A.dim)
    return _engine_job(cfg, p, Constant(A, B), A.dim, max_iter=1000)


def _build_perturbed(cfg, p):
    dim = _vector(p, "start").size
    schedule = Blocks(tuple((_parse_set(blk["A"], f"params.blocks[{i}].A", dim),
                             _parse_set(blk["B"], f"params.blocks[{i}].B", dim), blk["len"])
                            for i, blk in enumerate(p["blocks"])))
    return _engine_job(cfg, p, schedule, dim, max_iter=schedule.total_length)


def _build_scenario(cfg, p):
    try:
        scen = cons.stable_scenario(p["scenario"], **_given(delta_law=p.get("delta_law"),
                                                            delta_scale=p.get("delta_scale")),
                                    **p.get("scenario_params", {}))
    except cons.InfeasibleStep as exc:  # checked for every n on the step-1 pair
        _fail("params.delta_scale", f"step-1 sets fail: {exc}")
    except ValueError as exc:
        _fail("params.scenario_params", str(exc))
    return _engine_job(cfg, p, scen.make_schedule(), scen.A.dim, max_iter=10_000,
                       start=scen.default_start, target=scen.target, scenario=scen)


def _example44_row(h):
    C, D = cons.unstable_body(h), cons.unstable_body(h, -1)
    anchor = np.array([1.0, 0.0]) if h % 2 == 1 else np.array([-1.0, 0.0])
    return (f"pair {h}: bodies touch at {anchor.tolist()}",
            C.membership(anchor, 1e-12) and D.membership(anchor, 1e-12),
            f"C has {len(C.vertices)} vertices, D has {len(D.vertices)}")


def _example51_row(k):
    L = cons.tilted_line(k)
    return (f"line {k}: passes through (0, 1/{k}) and ({k}, 0)",
            L.distance(np.array([0.0, 1.0 / k])) < 1e-12
            and L.distance(np.array([float(k), 0.0])) < 1e-12, "")


def _build_example(cfg, p, run, row):
    """Job running an example's blocks; ``row(k)`` checks the k-th block's sets."""
    kwargs = _given(max_block_len=p.get("max_block_len"), start=_vector(p, "start", 2),
                    record_stride=cfg.get("record_stride"))
    return Job(lambda out_dir, quiet: run(p["n_blocks"], **kwargs),
               lambda: map(row, range(1, p["n_blocks"] + 1)))


def _build_ell2(cfg, p):
    _require(p["H"] < p["d"], "params.H", f"must be less than params.d = {p['d']}")
    with _naming("params.start"):
        start = cons.ell2_start_alphas(p["d"], p.get("start"))
    c = cons.build_ell2_construction(p["d"], p["H"], start=start, **_given(
        ratio=p.get("ratio"), slack=p.get("slack"), max_block_n=p.get("max_block_n")))
    budget = p.get("engine_step_budget", 5_000_000)
    windows = p.get("aw_windows", [1, 2, 4])
    out = cfg["output"]

    def execute(out_dir, quiet):
        with _output(out_dir / out.get("construction_json", "construction.json")) as fh:
            fh.write(json.dumps(asdict(c), indent=1, default=np.ndarray.tolist))
        total = sum(blk.N for blk in c.blocks)
        certificate = cons.ell2_aw_certificate(c, windows)
        if total > budget:
            if not quiet:
                print(f"engine run skipped: total steps {total} exceed budget {budget}; "
                      "construction and certificate written from closed forms")
            ends = [float(np.sum(blk.end_alphas ** 2)) for blk in c.blocks]
            trace = None
        else:
            trace = cons.ell2_run(c, **_given(record_stride=cfg.get("record_stride")))
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
        with _output(out_dir / out.get("report_json", "report.json")) as fh:
            fh.write(json.dumps(report, indent=1))
        return trace

    return Job(execute, lambda: [*c.verify_conditions(),
                                 ("block lengths", True, str([blk.N for blk in c.blocks]))])


def _aw_family(family):
    """(moving set of index k, limit set) of a named aw probe family; the limit is built once."""
    if family == "unstable_bodies":
        return cons.unstable_body, cons.unstable_body(0)
    return cons.tilted_line, cons.OrthoSubspace(np.array([[1.0, 0.0]]))


def _build_probe(cfg, p):
    seed = cfg["seed"]
    probe = p["probe"]

    def construct():
        return [("probe parameters construct", True, probe)]

    # The two closed-form probes are computed here, so validate checks them in full.
    if probe == "omega":
        for key in ("U", "V"):
            for i, row in enumerate(p[key]):
                _require(len(row) == len(p["U"][0]), f"params.{key}[{i}]",
                         f"has dimension {len(row)}, expected {len(p['U'][0])}")
            with _naming(f"params.{key}"):
                _check_orthonormal(np.array(p[key], dtype=float))
        rep = var.omega_angle(np.array(p["U"], dtype=float), np.array(p["V"], dtype=float))
        return Job(lambda out_dir, quiet: {"probe": "omega", "seed": seed, "result": asdict(rep)},
                   construct)
    if probe == "exposure":
        S = _parse_set(p["set"], "params.set")
        f = _vector(p, "f", S.dim)
        with _naming("params.f"):  # SupportUnavailable is a ValueError
            var.exposure_frame(S, f)  # the support point, as the probe takes it
        alphas = [float(a) for a in p["alphas"]]
        _require(all(a > b for a, b in zip(alphas, alphas[1:])), "params.alphas",
                 "must be strictly decreasing")
        n = p.get("n_samples", var._EXPOSURE_SAMPLES)

        # A polyhedron's sampled test of its translated set (0 in it, f's infimum at 0)
        # names params.set; validate runs the whole probe, so it fails where probe does.
        def execute(out_dir, quiet):
            with _naming("params.set"):
                rep = var.strongly_exposes_probe(S, f, alphas, n_samples=n, rng_seed=seed)
            return {"probe": "exposure", "seed": seed, "n_samples": n, "result": asdict(rep)}
        return Job(execute, lambda: execute(None, True) and construct())
    if probe == "separation":
        with _naming("params.M"):  # no eps at omega = 0, the easiest omega, leaves none at all
            var.separation_constants(float(p["M"]), 0.0)
        with _naming("params.omega"):
            eps, eta = var.separation_constants(float(p["M"]), float(p["omega"]))
        return Job(lambda out_dir, quiet: {"probe": "separation", "seed": seed,
                                           "result": {"eps": eps, "eta": eta}}, construct)
    N = p.get("N", 2)
    n = p.get("n_samples", var._AW_SAMPLES)
    if "family" in p:
        family = p["family"]
        count = p.get("count", 6)

        def execute(out_dir, quiet):
            moving, limit = _aw_family(family)
            rows = [{"index": k, **asdict(var.aw_distance(moving(k), limit, N, n_samples=n,
                                                          rng_seed=seed + k))}
                    for k in range(1, count + 1)]
            return {"probe": "aw", "seed": seed, "family": family, "N": N,
                    "n_samples": n, "result": rows}
        return Job(execute, construct)
    A = _parse_set(p["A"], "params.A")
    C = _parse_set(p["C"], "params.C", A.dim)
    try:  # the run's own N-ball test, which fails before anything is drawn
        var.aw_distance(A, C, N, n_samples=1, rng_seed=seed)
    except SamplerFailure as exc:
        _fail("params.N", str(exc))
    return Job(lambda out_dir, quiet: {
        "probe": "aw", "seed": seed,
        "result": asdict(var.aw_distance(A, C, N, n_samples=n, rng_seed=seed))}, construct)


_BUILDERS = {
    "classical": _build_classical,
    "perturbed": _build_perturbed,
    "stable-scenario": _build_scenario,
    "example44": lambda cfg, p: _build_example(cfg, p, cons.run_example_unstable,
                                               _example44_row),
    "example51": lambda cfg, p: _build_example(cfg, p, cons.run_example_unbounded_lines,
                                               _example51_row),
    "ell2": _build_ell2,
    "probe": _build_probe,
}


def build_job(cfg) -> Job:
    """Read and check every parameter of a loaded config; nothing long runs."""
    return _BUILDERS[cfg["kind"]](cfg, cfg["params"])


def cmd_run(cfg, out_dir: Path, quiet: bool) -> int:
    _require(cfg["kind"] != "probe", "kind", "probe configs run under the 'probe' subcommand")
    job = build_job(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = job.execute(out_dir, quiet)
    if trace is None:
        return 0
    meta = {"config_sha256": cfg["_sha256"], "seed": cfg["seed"], "kind": cfg["kind"]}
    csv = out_dir / cfg["output"].get("trace_csv", "trace.csv")
    json_name = cfg["output"].get("trace_json")
    if json_name:  # both files in one pass over the records
        trace_to_json(trace, out_dir / json_name, meta=meta, csv=csv)
    else:
        trace_to_csv(trace, csv, meta=meta)
    last = trace.final
    if not quiet:
        print(f"status={trace.status} schedule_complete={trace.schedule_complete} "
              f"steps={last.n} blocks_completed={len(trace.completed_blocks())} "
              f"norm_a={last.norm_a:.6g} res_a={last.res_a:.3g}"
              + (f" dist_target={last.dist_target:.6g}" if last.dist_target is not None else ""))
    return 2 if trace.status == "schedule_exhausted" and not trace.schedule_complete else 0


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
    checked = list(build_job(cfg).checks())
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


@functools.cache  # built once per process: parse_args keeps no state in the parser
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed, max_iter=args.max_iter)
        command = {"run": cmd_run, "probe": cmd_probe, "validate": cmd_validate}[args.command]
        return command(cfg, Path(args.out), args.quiet)
    except (ValueError, ProjectionStepError, ProjectionCertificateError, SamplerFailure,
            cons.BlockBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
