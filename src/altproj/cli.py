"""Config-driven command line: build instances, run experiments, emit reports.

Subcommands
-----------
run       execute an experiment config, write the trace CSV (and optional
          full-precision JSON), print a one-line summary
probe     execute a probe config, write the probe report JSON
validate  dry-run: build everything, re-check construction invariants,
          print the checked-inequality ledger, run nothing long

Every config is checked against the package's ``schema.json`` before anything is
built.  The schema owns the config's own fields, ``sets.set_from_dict`` set
descriptors and ``constructions.stable_scenario`` its ``scenario_params``.  One
builder per config kind holds the defaults and the checks that dimensions agree,
and returns a ``Job``: what ``run`` or ``probe`` executes and the ledger rows
``validate`` prints.

Exit codes: 0 completed, 2 a schedule exhausted its budget before its
predicates fired, 1 any other error (IO, schema, infeasible parameters).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import constructions as cons
from . import variational as var
from .engine import (Blocks, Constant, ProjectionStepError, RunConfig, ScheduleExhausted,
                     _output, run_perturbed, trace_to_csv, trace_to_json)
from .geometry import as_point
from .sets import (ProjectionCertificateError, SamplerFailure, _support_direction,
                   set_from_dict)


class ConfigError(ValueError):
    """Schema violation; the message names the offending field."""


def _fail(field, msg):
    raise ConfigError(f"config field {field!r}: {msg}" if field else f"config root: {msg}")


def _require(cond, field, msg):
    if not cond:
        _fail(field, msg)


# The draft-07 subset the config validator implements.  An integer is an int,
# not a bool or 2.0; a number is an int or float that is a finite double.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, float) and math.isfinite(v)
                         or _TYPES["integer"](v) and abs(v) <= sys.float_info.max),
}
_BOUNDS = {"minimum": (operator.ge, ">="), "exclusiveMinimum": (operator.gt, ">"),
           "exclusiveMaximum": (operator.lt, "<")}
_KEYWORDS = {"type", "enum", "const", "required", "properties", "additionalProperties",
             "minItems", "items", "$ref", "allOf", "if", "then", "definitions",
             "$schema", "title", "description", *_BOUNDS}


def _check_schema(schema, defs):
    """Raise ValueError on any keyword or $ref the validator does not implement."""
    if schema is False:
        return
    if not isinstance(schema, dict) or schema.keys() - _KEYWORDS:
        raise ValueError(f"schema keyword(s) not implemented: {schema!r:.80}")
    if (schema.get("additionalProperties", False) is not False or "$ref" in schema and (
            len(schema) > 1 or schema["$ref"].removeprefix("#/definitions/") not in defs)):
        raise ValueError(f"schema value not implemented: {schema!r:.80}")
    for sub in (*schema.get("properties", {}).values(), *schema.get("definitions", {}).values(),
                *schema.get("allOf", ()), *[schema[k] for k in ("items", "if", "then")
                                            if k in schema]):
        _check_schema(sub, defs)


@functools.cache
def config_schema() -> dict:
    """The config schema shipped with the package, read and checked once per process."""
    schema = json.loads(Path(__file__).with_name("schema.json").read_text())
    _check_schema(schema, schema.get("definitions", {}))
    return schema


def _check(value, schema, field=""):
    """Raise ConfigError naming the first field of ``value`` that breaks ``schema``."""
    _require(schema is not False, field, "is not used here")
    if "$ref" in schema:
        schema = config_schema()["definitions"][schema["$ref"].removeprefix("#/definitions/")]
    types = schema.get("type", ())
    types = [types] if isinstance(types, str) else types
    if types and not any(_TYPES[t](value) for t in types):
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
    cfg["_sha256"] = hashlib.sha256(raw).hexdigest()
    return cfg


def _parse_set(obj, field, dim=None):
    """A set from its descriptor, in R^dim when dim is given."""
    try:
        S = set_from_dict(obj)
    except Exception as exc:
        raise ConfigError(f"config field {field!r}: bad set descriptor ({exc})")
    _require(dim is None or S.dim == dim, field, f"has dimension {S.dim}, expected {dim}")
    return S


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
                        record_stride=cfg.get("record_stride", 1),
                        target=_vector(p, "target", dim, target))

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
    scen = cons.stable_scenario(p["scenario"], delta_law=p.get("delta_law", "inv_n"),
                                delta_scale=p.get("delta_scale", 1.0),
                                **p.get("scenario_params", {}))
    try:  # both delta laws shrink |delta_n|, so the step-1 pair is the worst case
        scen.a_family(1), scen.b_family(1)
    except ValueError as exc:
        raise ConfigError(f"config field 'params.delta_scale': step-1 sets fail: {exc}") from exc
    return _engine_job(cfg, p, scen.make_schedule(), scen.A.dim, max_iter=10_000,
                       start=scen.default_start, target=scen.target, scenario=scen)


def _example44_row(h):
    A, B, C, D = cons.example_unstable_bodies(h)
    anchor = np.array([1.0, 0.0]) if h % 2 == 1 else np.array([-1.0, 0.0])
    return (f"pair {h}: bodies touch at {anchor.tolist()}",
            C.contains(anchor, 1e-12) and D.contains(anchor, 1e-12),
            f"C has {len(C.vertices)} vertices, D has {len(D.vertices)}")


def _example51_row(k):
    L = cons.tilted_line(k)
    return (f"line {k}: passes through (0, 1/{k}) and ({k}, 0)",
            L.distance(np.array([0.0, 1.0 / k])) < 1e-12
            and L.distance(np.array([float(k), 0.0])) < 1e-12, "")


def _build_example(cfg, p, run, row):
    """Job running an example's blocks; ``row(k)`` checks the k-th block's sets."""
    args = (p["n_blocks"], p.get("max_block_len", 10_000), _vector(p, "start", 2, (0.0, 0.0)),
            cfg.get("record_stride", 1))
    return Job(lambda out_dir, quiet: run(*args), lambda: map(row, range(1, p["n_blocks"] + 1)))


def _build_ell2(cfg, p):
    c = cons.build_ell2_construction(
        p["d"], p["H"], ratio=p.get("ratio", 0.5), slack=p.get("slack", 0.5),
        start=_vector(p, "start", p["d"]), max_block_n=p.get("max_block_n", 10 ** 8))
    budget = p.get("engine_step_budget", 5_000_000)
    windows = p.get("aw_windows", [1, 2, 4])
    out = cfg["output"]
    stride = cfg.get("record_stride", 0)  # 0: ell2_run picks about 1000 records

    def execute(out_dir, quiet):
        with _output(out_dir / out.get("construction_json", "construction.json")) as fh:
            fh.write(json.dumps(c.as_dict(), indent=1))
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
        with _output(out_dir / out.get("report_json", "report.json")) as fh:
            fh.write(json.dumps(report, indent=1))
        return trace

    return Job(execute, lambda: [*c.verify_conditions(),
                                 ("block lengths", True, str([blk.N for blk in c.blocks]))])


def _aw_family_pair(family, k):
    """The k-th (moving set, limit set) pair of a named aw probe family."""
    if family == "unstable_bodies":
        A, _, C, _ = cons.example_unstable_bodies(k)
        return C, A
    return cons.tilted_line(k), cons.OrthoSubspace(np.array([[1.0, 0.0]]))


def _probe_execute(cfg, p):
    """The ``execute`` of a probe config's job."""
    seed = cfg["seed"]
    probe = p["probe"]
    # The two closed-form probes are computed here, so validate checks them in full.
    if probe == "omega":
        for key in ("U", "V"):
            for i, row in enumerate(p[key]):
                _require(len(row) == len(p["U"][0]), f"params.{key}[{i}]",
                         f"has dimension {len(row)}, expected {len(p['U'][0])}")
        rep = var.omega_angle(np.array(p["U"], dtype=float), np.array(p["V"], dtype=float))
        return lambda out_dir, quiet: {"probe": "omega", "seed": seed, "result": rep.as_dict()}
    if probe == "exposure":
        S = _parse_set(p["set"], "params.set")
        f = _vector(p, "f", S.dim)
        try:
            S.support_value(_support_direction(f, S.dim))
        except ValueError as exc:  # SupportUnavailable is one
            _fail("params.f", str(exc))
        alphas = [float(a) for a in p["alphas"]]
        _require(all(a > b for a, b in zip(alphas, alphas[1:])), "params.alphas",
                 "must be strictly decreasing")
        n = p.get("n_samples", 400)
        return lambda out_dir, quiet: {
            "probe": "exposure", "seed": seed, "n_samples": n,
            "result": var.strongly_exposes_probe(S, f, alphas, n_samples=n,
                                                 rng_seed=seed).as_dict()}
    if probe == "separation":
        eps, eta = var.separation_constants(float(p["M"]), float(p["omega"]))
        return lambda out_dir, quiet: {"probe": "separation", "seed": seed,
                                       "result": {"eps": eps, "eta": eta}}
    N = p.get("N", 2)
    n = p.get("n_samples", 1500)
    if "family" in p:
        family = p["family"]
        count = p.get("count", 6)

        def execute(out_dir, quiet):
            rows = [{"index": k, **var.aw_distance(*_aw_family_pair(family, k), N, n_samples=n,
                                                   rng_seed=seed + k).as_dict()}
                    for k in range(1, count + 1)]
            return {"probe": "aw", "seed": seed, "family": family, "N": N,
                    "n_samples": n, "result": rows}
        return execute
    A = _parse_set(p["A"], "params.A")
    C = _parse_set(p["C"], "params.C", A.dim)
    return lambda out_dir, quiet: {
        "probe": "aw", "seed": seed,
        "result": var.aw_distance(A, C, N, n_samples=n, rng_seed=seed).as_dict()}


_BUILDERS = {
    "classical": _build_classical,
    "perturbed": _build_perturbed,
    "stable-scenario": _build_scenario,
    "example44": lambda cfg, p: _build_example(cfg, p, cons.run_example_unstable,
                                               _example44_row),
    "example51": lambda cfg, p: _build_example(cfg, p, cons.run_example_unbounded_lines,
                                               _example51_row),
    "ell2": _build_ell2,
    "probe": lambda cfg, p: Job(_probe_execute(cfg, p),
                                lambda: [("probe parameters construct", True, p["probe"])]),
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
    trace_to_csv(trace, out_dir / cfg["output"].get("trace_csv", "trace.csv"), meta=meta)
    json_name = cfg["output"].get("trace_json")
    if json_name:
        trace_to_json(trace, out_dir / json_name, meta=meta)
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
    except ScheduleExhausted as exc:
        print(f"schedule exhausted: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ProjectionStepError, ProjectionCertificateError, SamplerFailure,
            cons.BlockBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
