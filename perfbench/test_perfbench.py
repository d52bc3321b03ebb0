"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from audit import Audit, audit_trace, oracle_project  # noqa: E402
from metrics import END_TO_END, PER_LAYER, pass_seconds, quantile  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs(workload, tmp_path):
    first = workloads.write_configs(workloads.generate(workload, 5), tmp_path / "a")
    again = workloads.write_configs(workloads.generate(workload, 5), tmp_path / "b")
    other = workloads.write_configs(workloads.generate(workload, 6), tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]


def test_perturbed_mix_uses_all_nine_kinds():
    kinds = {blk[side]["kind"] for op in workloads.generate("perturbed_mix", 3)
             if op.config["kind"] == "perturbed"
             for blk in op.config["params"]["blocks"] for side in "AB"}
    assert kinds == set(workloads.KINDS_2D)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_time_minus_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def advance(dt):
        clock.now += dt

    leaf = tr.leaf("leaf", advance)

    def inner():
        advance(1.0)
        leaf(0.25)
        leaf(0.25)
        advance(0.5)

    inner_span = tr.span("inner", inner)

    def outer():
        advance(2.0)
        inner_span()
        leaf(4.0)

    tr.span("outer", outer)()
    own = self_times(tr.agg)
    assert own == {"outer": 2.0, "inner": 1.5, "leaf": 4.5}
    assert tr.agg[("leaf", "inner", "inner")] == [2, 0.5]
    assert tr.agg[("leaf", "outer", "outer")] == [1, 4.0]
    # spans keep (id, name, start, end, parent id); leaves keep no span
    assert [(s[1], s[2], s[3], s[4]) for s in tr.spans] == [
        ("outer", 0.0, 8.0, 0), ("inner", 2.0, 4.0, 1)]
    # self time of a name called inside itself counts each level once
    rec = {("f", "root", "root"): (1, 10.0), ("f", "f", "f"): (1, 4.0)}
    assert self_times(rec) == {"f": 10.0}


def test_weighted_quantile():
    assert quantile([3.0, 1.0, 2.0]) == 2.0
    assert quantile([1.0, 2.0, 3.0, 4.0], q=0.5) == 2.5
    assert quantile([1.0, 2.0], q=0.0) == 1.0 and quantile([1.0, 2.0], q=1.0) == 2.0
    # weight 3 on 1.0: positions 3/8 and 7/8
    assert quantile([1.0, 5.0], [3.0, 1.0], q=0.5) == 2.0


def _passes(times, slow_passes, factor=2.0):
    """A run of ops 'a' and 'b' (1 s and 0.5 s), some passes slowed down."""
    ops = []
    for i in range(times):
        k = factor if i in slow_passes else 1.0
        for name, t in (("a", 1.0), ("b", 0.5)):
            ops.append({"name": name, "work_start": 0.0, "end": k * t, "ticks": None})
    return {"ops": ops}


def test_pass_time_follows_slow_spells_only_when_they_last():
    # a slow spell under a tenth of the run leaves the pass time alone
    assert pass_seconds(_passes(20, {7})) == pytest.approx(1.5)
    # one covering a fifth of it sets the pass time (WORK_QUANTILE = 0.9)
    assert pass_seconds(_passes(10, {2, 5})) == pytest.approx(3.0)


def test_pass_time_of_an_op_timed_in_chunks():
    # records at steps 1, 101, ..., 1001, 1 ms a step; 0.06 s outside them
    ticks = [(n, 0.01 + n * 1e-3) for n in range(1, 1002, 100)]
    op = {"name": "g", "work_start": 0.0, "end": 1.06, "ticks": ticks}
    assert pass_seconds({"ops": [op, dict(op)]}) == pytest.approx(1.06)


def test_oracles_agree_with_closed_forms():
    x = np.array([3.0, -1.0])
    square = {"kind": "polygon2d", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    assert np.allclose(oracle_project(square, x), [1.0, 0.0])
    assert np.allclose(oracle_project({"kind": "nonneg_orthant", "d": 2}, x), [3.0, 0.0])
    line = {"kind": "hyperplane", "a": [1.0, 1.0], "b": 0.0}
    assert np.allclose(oracle_project(line, x), [2.0, -2.0])
    graph = {"kind": "diagonal_affine_graph", "theta": [1.0], "offset": [0.0]}
    assert np.allclose(oracle_project(graph, x), [1.0, 1.0])


def test_audit_flags_a_corrupted_projection(tmp_path):
    from altproj.cli import main

    config = {
        "kind": "perturbed", "seed": 0, "record_stride": 1,
        "output": {"trace_csv": "trace.csv", "trace_json": "trace.json"},
        "params": {"start": [3.0, 2.0], "blocks": [
            {"A": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
             "B": {"kind": "polyhedron", "normals": [[1.0, 0.0], [0.0, 1.0]],
                   "b": [0.5, 0.5], "witness": [0.0, 0.0]},
             "len": 6}]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    trace = tmp_path / "trace.json"

    clean = Audit()
    assert audit_trace(config, trace, clean) == 0
    assert clean.checked == 12

    doc = json.loads(trace.read_text())
    doc["records"][2]["b"][0] += 1e-6
    trace.write_text(json.dumps(doc))
    corrupted = Audit()
    assert audit_trace(config, trace, corrupted) >= 1
    assert corrupted.worst >= 1e-6


def test_benchmark_json_matches_the_metrics_the_harness_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
