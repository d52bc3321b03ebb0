"""Metric derivation from worker results.

End-to-end metrics come from the untraced run only; per-layer metrics
from the traced run.  Counts are per pass over the workload's ops (every
pass does identical work), times are totals per pass or per call.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_times
from workloads import KINDS_2D as KINDS

PROBE_SPANS = ("variational.aw_distance", "variational.strongly_exposes_probe",
               "variational.omega_angle")
PROBE_INNER = PROBE_SPANS + ("variational.epsilon_alpha", "sets.slice_sample")
BUILD_SPANS = ("constructions.build_ell2_construction", "constructions.stable_scenario",
               "sets.set_from_dict")

# How a run's passes become one pass time (see ``pass_seconds``).  On a
# shared host the speed of a core jumps between a fast and a slow state
# for seconds at a time; the median of a run lands anywhere between them,
# while the slow state recurs in nearly every run and is steady, so the
# pass time is taken at the 0.9 quantile of the machine's speed samples.
WORK_QUANTILE = 0.9
SEGMENT_S = 0.1

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

# name -> (unit, which direction is better)
PER_LAYER = {
    "engine.self_us_per_step": ("us", "lower"),
    "engine.records_per_step": ("ratio", "lower"),
    "engine.write_s": ("s", "lower"),
    "engine.bytes_written": ("bytes", "lower"),
    "geometry.as_point.calls_per_step": ("calls/step", "lower"),
    **{f"sets.project.{k}.{m}": (u, "lower") for k in KINDS
       for m, u in (("us_per_call", "us"), ("calls", "count"))},
    "sets.audit.checked": ("count", "higher"),
    "sets.audit.mismatch": ("count", "lower"),
    "sets.audit.mismatch_ratio": ("ratio", "lower"),
    "sets.construct.us_per_call": ("us", "lower"),
    "sets.construct.calls_per_step": ("calls/step", "lower"),
    "constructions.pair_us_per_call": ("us", "lower"),
    "constructions.build_s": ("s", "lower"),
    "variational.aw_distance.samples_per_s": ("1/s", "higher"),
    "variational.epsilon_alpha.us_per_sample": ("us", "lower"),
    "variational.slice_sample.us_per_sample": ("us", "lower"),
    "variational.project_share": ("ratio", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def setup_seconds(setup_results) -> float:
    """Median over fresh interpreters of import time plus every op's set-up."""
    return statistics.median(
        r["import_s"] + sum(op["work_start"] - op["start"] for op in r["ops"])
        for r in setup_results)


def quantile(values, weights=None, q: float = 0.5) -> float:
    """The q-quantile of values, interpolated between order statistics.

    With weights, each value counts as if repeated ``weight`` times.
    """
    pairs = sorted(zip(values, weights or [1.0] * len(values)))
    total = sum(w for _, w in pairs)
    # position of each value: the middle of its weight, as a share of the total
    cum, points = 0.0, []
    for v, w in pairs:
        points.append(((cum + w / 2) / total, v))
        cum += w
    if q <= points[0][0]:
        return points[0][1]
    for (p0, v0), (p1, v1) in zip(points, points[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return points[-1][1]


def _pieces(run_result) -> list:
    """Each pass as a list of (key, seconds, expected seconds), in run order.

    An op is one piece, expected to take its median time over the passes.
    An op marked ``ticks`` is split at its trace records into chunks, and
    all its chunks step the same kernels, so a chunk is expected to take
    its step count times the median per-step time over all chunks; the
    rest of the op (first step, output writing) is one more piece.
    """
    passes, current = [], {}
    for op in run_result["ops"]:
        if op["name"] in current:          # the op list starts over: a new pass
            passes.append(current)
            current = {}
        current[op["name"]] = op
    passes.append(current)
    times = defaultdict(list)
    per_step = defaultdict(list)
    raw = []
    for ops in passes:
        pieces = []
        for name, op in ops.items():
            ticks = op.get("ticks")
            if not ticks:
                pieces.append(((name,), op["end"] - op["work_start"], None))
                continue
            for i, ((n0, t0), (n1, t1)) in enumerate(zip(ticks, ticks[1:])):
                pieces.append(((name, i), t1 - t0, n1 - n0))
                if n1 > n0:
                    per_step[name].append(((t1 - t0) / (n1 - n0), n1 - n0))
            pieces.append(((name, "rest"), op["end"] - op["work_start"]
                           - (ticks[-1][1] - ticks[0][1]), None))
        raw.append(pieces)
        for key, t, steps in pieces:
            if steps is None:
                times[key].append(t)
    step_s = {name: quantile(*zip(*v), q=0.5) for name, v in per_step.items()}
    return [[(key, t, step_s[key[0]] * steps if steps is not None
              else statistics.median(times[key])) for key, t, steps in pieces]
            for pieces in raw]


def pass_seconds(run_result) -> float:
    """Time of one pass over the ops, at the WORK_QUANTILE speed of the machine.

    Consecutive pieces of a pass (see ``_pieces``) are grouped into
    segments of at least SEGMENT_S expected seconds.  A segment's time over
    its expected time is a sample of how fast the machine ran then; the
    samples of all passes are pooled, weighted by expected time, and the
    expected pass time is scaled by their WORK_QUANTILE.
    """
    ratios, weights = [], []
    passes = _pieces(run_result)
    for pieces in passes:
        seg_t = seg_e = 0.0
        for _, t, expected in pieces:
            seg_t += t
            seg_e += expected
            if seg_e >= SEGMENT_S:
                ratios.append(seg_t / seg_e)
                weights.append(seg_e)
                seg_t = seg_e = 0.0
        if seg_e > 0.0:
            ratios.append(seg_t / seg_e)
            weights.append(seg_e)
    expected_pass = sum(e for _, _, e in passes[0])
    return expected_pass * quantile(ratios, weights, WORK_QUANTILE)


def per_op(run_result, unit: str) -> dict:
    """name -> (work units, median work seconds, median wall seconds).

    An op's work time runs from its first work entry to its end, its wall
    time from its start to its end; medians are over the passes.
    """
    rows = defaultdict(list)
    for op in run_result["ops"]:
        rows[op["name"]].append(op)
    return {name: (ops[-1]["units"].get(unit, 0),
                   statistics.median(op["end"] - op["work_start"] for op in ops),
                   statistics.median(op["end"] - op["start"] for op in ops))
            for name, ops in rows.items()}


def work_per_second(run_result, unit: str) -> float:
    """Work units of one pass over ``pass_seconds``."""
    work = sum(w for w, _, _ in per_op(run_result, unit).values())
    return work / pass_seconds(run_result)


def end_to_end(setup_results, run_result, unit: str) -> dict:
    return {
        "setup_s": setup_seconds(setup_results),
        "work_per_s": work_per_second(run_result, unit),
        "peak_rss_mb": run_result["maxrss_kb"] / 1024.0,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(setup_results, untraced, traced, unit: str, audit) -> dict:
    tr = traced["trace"]
    passes = traced["passes"]
    units = defaultdict(float, tr["units"])
    steps = units["steps"]
    calls, total = defaultdict(int), defaultdict(float)
    engine_calls = defaultdict(int)          # calls made inside engine runs
    probe_project_s = 0.0
    for name, parent, coarse, n, t in tr["agg"]:
        calls[name] += n
        total[name] += t
        if coarse == "engine.run_perturbed":
            engine_calls[name] += n
        if name.startswith("sets.project.") and coarse in PROBE_INNER:
            probe_project_s += t
    own = self_times({(a, b, c): (n, t) for a, b, c, n, t in tr["agg"]})

    out = {
        "engine.self_us_per_step": 1e6 * _ratio(own.get("engine.run_perturbed", 0.0), steps),
        "engine.records_per_step": _ratio(units["records"], steps),
        "engine.write_s": (total["engine.trace_to_csv"] + total["engine.trace_to_json"])
        / passes,
        "engine.bytes_written": sum(op["bytes"] for op in traced["ops"]) / passes,
        "geometry.as_point.calls_per_step": _ratio(engine_calls["geometry.as_point"], steps),
    }
    for kind in KINDS:
        name = f"sets.project.{kind}"
        out[f"{name}.us_per_call"] = 1e6 * _ratio(total[name], calls[name])
        out[f"{name}.calls"] = calls[name] / passes
    out.update({
        "sets.audit.checked": audit.checked,
        "sets.audit.mismatch": audit.mismatch,
        "sets.audit.mismatch_ratio": _ratio(audit.mismatch, audit.checked),
        "sets.construct.us_per_call": 1e6 * _ratio(total["sets.construct"],
                                                   calls["sets.construct"]),
        "sets.construct.calls_per_step": _ratio(engine_calls["sets.construct"], steps),
        "constructions.pair_us_per_call": 1e6 * _ratio(total["constructions.pair"],
                                                       calls["constructions.pair"]),
        "constructions.build_s": sum(total[n] for n in BUILD_SPANS) / passes,
        "variational.aw_distance.samples_per_s": _ratio(units["aw_samples"],
                                                        total["variational.aw_distance"]),
        "variational.epsilon_alpha.us_per_sample": 1e6 * _ratio(
            total["variational.epsilon_alpha"], units["eps_samples"]),
        "variational.slice_sample.us_per_sample": 1e6 * _ratio(
            total["sets.slice_sample"], units["slice_samples"]),
        "variational.project_share": _ratio(probe_project_s,
                                            sum(total[n] for n in PROBE_SPANS)),
        "cli.load_config_s": total["cli.load_config"] / passes,
        "cli.import_s": statistics.median(r["import_s"] for r in setup_results),
        "trace.overhead_ratio": _ratio(work_per_second(untraced, unit),
                                       work_per_second(traced, unit)),
    })
    return out
