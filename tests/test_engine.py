import io
import math
import os
from collections import Counter

import numpy as np
import pytest

import altproj.engine as engine
from altproj.constructions import stable_scenario
from altproj.engine import (Adaptive, BlockLog, Blocks, Constant, PerStep,
                            ProjectionStepError, RunConfig, Trace, TraceRecord, run_classical,
                            run_perturbed, _norm, trace_to_csv, trace_to_json)
from altproj.sets import Ball, OrthoSubspace


def line(angle):
    return OrthoSubspace(np.array([[math.cos(angle), math.sin(angle)]]))


@pytest.mark.parametrize("phi", [math.pi / 6, math.pi / 4, math.pi / 3])
def test_two_line_contraction_rate(phi):
    cfg = RunConfig(start=np.array([1.0, 0.0]), max_iter=50)
    trace = run_classical(line(0.0), line(phi), cfg)
    norms = [r.norm_a for r in trace.records]
    expected = math.cos(phi) ** 2
    for a, b in zip(norms, norms[1:]):
        assert b / a == pytest.approx(expected, abs=1e-9)


def test_same_set_stationary_after_one_step():
    B = Ball(np.array([0.0, 0.0]), 1.0)
    cfg = RunConfig(start=np.array([3.0, 4.0]), max_iter=5)
    trace = run_classical(B, B, cfg)
    first = trace.records[0]
    np.testing.assert_allclose(first.a, first.b)
    for r in trace.records[1:]:
        np.testing.assert_array_equal(r.a, first.a)
        assert r.res_a == 0.0


def test_orthogonal_lines_reach_origin_fast():
    cfg = RunConfig(start=np.array([2.0, 3.0]), max_iter=2)
    trace = run_classical(line(0.0), line(math.pi / 2), cfg)
    assert trace.final.norm_a <= 1e-12


def _check_steps(trace, start, pairs):
    """Full-rate trace: step n ran on ``pairs[block_id]``."""
    prev = start
    for r in trace.records:
        A, B = pairs[r.block_id]
        np.testing.assert_array_equal(r.b, B.project(prev))
        np.testing.assert_array_equal(r.a, A.project(r.b))
        prev = r.a


def test_perturbed_recursion_identities():
    # with stride 1, every record satisfies b_n = P_B(a_{n-1}), a_n = P_A(b_n)
    A, B = line(0.0), line(0.7)
    cfg = RunConfig(start=np.array([1.0, 1.0]), max_iter=20)
    _check_steps(run_classical(A, B, cfg), cfg.start, {1: (A, B)})


def test_blocks_resolution_prefix_sums():
    # step n runs on the block whose prefix sum of lengths first reaches n
    P, Q = line(0.1), line(0.2)
    R, S = line(0.3), line(0.4)
    cfg = RunConfig(start=np.array([1.0, 0.5]), max_iter=100)
    trace = run_perturbed(Blocks(((P, Q, 3), (R, S, 2))), cfg)
    assert [(r.n, r.block_id) for r in trace.records] == [(1, 1), (2, 1), (3, 1),
                                                          (4, 2), (5, 2)]
    assert trace.status == "schedule_exhausted" and trace.final.n == 5
    _check_steps(trace, cfg.start, {1: (P, Q), 2: (R, S)})


def test_constant_resolution():
    sched = Constant(line(0.1), line(0.2))
    cfg = RunConfig(start=np.array([1.0, 0.5]), max_iter=40)
    trace = run_perturbed(sched, cfg)
    assert {r.block_id for r in trace.records} == {1} and trace.final.n == 40
    _check_steps(trace, cfg.start, {1: (sched.A, sched.B)})


def test_adaptive_resolution_advances_on_predicate():
    pairs = [(line(0.2), line(0.9)), (line(0.1), line(1.2))]
    sched = Adaptive(pairs=pairs,
                     switch_predicate=lambda k, a: float(np.linalg.norm(a)) < 0.5,
                     max_block_len=100)
    cfg = RunConfig(start=np.array([1.0, 0.0]), max_iter=30)
    trace = run_perturbed(sched, cfg)
    fired = [r for r in trace.records if r.norm_a < 0.5]
    assert fired, "predicate should fire"
    n_fire = fired[0].n
    assert [r.block_id for r in trace.records][:n_fire + 1] == [1] * n_fire + [2]
    _check_steps(trace, cfg.start, {1: pairs[0], 2: pairs[1]})


def test_adaptive_budget_halts_with_exhausted_status():
    sched = Adaptive(pairs=[(line(0.2), line(0.25))],
                     switch_predicate=lambda k, a: False,
                     max_block_len=7)
    cfg = RunConfig(start=np.array([1.0, 0.0]), max_iter=100)
    trace = run_perturbed(sched, cfg)
    assert trace.status == "schedule_exhausted"
    assert not trace.schedule_complete
    assert trace.blocks[-1].advance == "budget"
    assert trace.final.n == 7


def test_blocks_schedule_consumed_is_complete():
    sched = Blocks(((line(0.0), line(0.5), 4), (line(0.0), line(1.0), 3)))
    cfg = RunConfig(start=np.array([1.0, 0.5]), max_iter=100)
    trace = run_perturbed(sched, cfg)
    assert trace.status == "schedule_exhausted"
    assert trace.schedule_complete
    assert [bl.advance for bl in trace.blocks] == ["length", "length"]
    assert trace.final.n == 7


def test_stop_residual_status():
    cfg = RunConfig(start=np.array([1.0, 0.0]), max_iter=10_000, stop_residual=1e-6)
    trace = run_classical(line(0.0), line(0.8), cfg)
    assert trace.status == "residual_met"
    assert trace.final.res_a < 1e-6


def test_max_iter_status():
    cfg = RunConfig(start=np.array([1.0, 0.0]), max_iter=5)
    trace = run_classical(line(0.0), line(0.3), cfg)
    assert trace.status == "max_iter"
    assert trace.final.n == 5


def test_record_stride_thins_but_keeps_boundaries():
    sched = Blocks(((line(0.0), line(0.5), 10), (line(0.0), line(1.0), 10)))
    cfg = RunConfig(start=np.array([1.0, 0.5]), max_iter=20, record_stride=7)
    trace = run_perturbed(sched, cfg)
    ns = [r.n for r in trace.records]
    assert 1 in ns          # first step
    assert 7 in ns and 14 in ns   # stride hits
    assert 10 in ns         # block boundary always logged
    assert 20 in ns         # final step
    assert 11 not in ns


def test_record_indices_logged():
    cfg = RunConfig(start=np.array([1.0, 0.0]), max_iter=50, record_stride=50,
                    record_indices=frozenset({13, 29}))
    trace = run_classical(line(0.0), line(0.4), cfg)
    ns = {r.n for r in trace.records}
    assert {13, 29} <= ns


def test_determinism_bitwise():
    cfg = RunConfig(start=np.array([0.3, 1.7]), max_iter=40)
    t1 = run_classical(line(0.0), line(0.6), cfg)
    t2 = run_classical(line(0.0), line(0.6), cfg)
    for r1, r2 in zip(t1.records, t2.records):
        np.testing.assert_array_equal(r1.a, r2.a)
        np.testing.assert_array_equal(r1.b, r2.b)
        assert r1.res_a == r2.res_a


def test_fejer_monotone_when_origin_in_both_sets():
    # both balls contain 0, so projections never increase norms
    A = Ball(np.array([0.5, 0.0]), 1.0)
    B = Ball(np.array([0.0, 0.4]), 1.0)
    cfg = RunConfig(start=np.array([4.0, -3.0]), max_iter=40)
    trace = run_classical(A, B, cfg)
    prev_norm = float(np.linalg.norm(cfg.start))
    for r in trace.records:
        assert r.norm_b <= prev_norm + 1e-12
        assert r.norm_a <= r.norm_b + 1e-12
        prev_norm = r.norm_a


def test_trace_csv_format_and_roundtrip():
    cfg = RunConfig(start=np.array([1.0, 0.3]), max_iter=6,
                    target=np.array([0.0, 0.0]))
    trace = run_classical(line(0.0), line(0.5), cfg)
    buf = io.StringIO()
    trace_to_csv(trace, buf, meta={"seed": 3})
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "# seed=3"
    assert lines[1] == "n,block,res_a,norm_a,norm_b,gap_ab,dist_target"
    row = lines[2].split(",")
    assert int(row[0]) == 1 and int(row[1]) == 1
    # shortest-repr decimals round-trip exactly
    assert float(row[3]) == trace.records[0].norm_a


def test_trace_csv_empty_target_column():
    cfg = RunConfig(start=np.array([1.0, 0.3]), max_iter=2)
    trace = run_classical(line(0.0), line(0.5), cfg)
    buf = io.StringIO()
    trace_to_csv(trace, buf)
    rows = buf.getvalue().strip().split("\n")[1:]
    assert all(r.endswith(",") for r in rows)


def test_trace_json_includes_coordinates(tmp_path):
    import json
    cfg = RunConfig(start=np.array([1.0, 0.3]), max_iter=3)
    trace = run_classical(line(0.0), line(0.5), cfg)
    path = tmp_path / "t.json"
    trace_to_json(trace, path, meta={"k": "v"})
    doc = json.loads(path.read_text())
    assert doc["meta"] == {"k": "v"}
    assert doc["records"][0]["a"] == list(trace.records[0].a)
    assert doc["status"] == "max_iter"


def _reference_json(trace, meta):
    """The document as ``json.dumps(doc, indent=1)`` writes it."""
    import json
    return json.dumps({
        "meta": meta or {},
        "status": trace.status,
        "schedule_complete": trace.schedule_complete,
        "blocks": [{"block": bl.block_id, "start_n": bl.start_n, "end_n": bl.end_n,
                    "advance": bl.advance} for bl in trace.blocks],
        "records": [{"n": r.n, "block": r.block_id, "block_step": r.block_step,
                     "a": r.a.tolist(), "b": r.b.tolist(), "norm_a": r.norm_a,
                     "norm_b": r.norm_b, "res_a": r.res_a, "gap_ab": r.gap_ab,
                     "dist_target": r.dist_target} for r in trace.records],
    }, indent=1)


def _hand_built_traces():
    rng = np.random.default_rng(5)
    odd = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-310, 5e-324, 1.7976931348623157e308]
    records = []
    for n in range(1, 41):
        d = 1 + n % 4
        a = rng.standard_normal(d) * 10.0 ** float(rng.integers(-20, 20))
        b = rng.standard_normal(d)
        if n % 5 == 0:
            a[n % d] = odd[n % len(odd)]
            b[0] = odd[(n + 3) % len(odd)]
        scalars = [float(v) for v in rng.standard_normal(4)]
        if n % 3 == 0:
            scalars[n % 4] = odd[n % len(odd)]
        dist = None if n % 2 else (odd[n % len(odd)] if n % 4 == 0 else float(rng.uniform()))
        records.append(TraceRecord(n, 1 + n // 10, 1 + n % 10, a, b, *scalars, dist))
    blocks = (BlockLog(1, 1, 10, "length"), BlockLog(2, 11, 40, "run_end"))
    return [
        Trace(tuple(records), blocks, "max_iter", False),
        Trace(tuple(records[:1]), (), "residual_met", True),
        Trace((), (), "schedule_exhausted", False),
    ]


@pytest.mark.parametrize("meta", [None, {}, {"config_sha256": "ab" * 32, "seed": 7},
                                  {"nested": {"list": [1, 2.5, None, True], "s": "x\u00e9\""},
                                   "empty": {"l": [], "d": {}}}],
                         ids=["none", "empty", "flat", "nested"])
def test_trace_json_byte_identical_to_json_dumps(meta):
    for trace in _hand_built_traces():
        buf = io.StringIO()
        trace_to_json(trace, buf, meta=meta)
        assert buf.getvalue() == _reference_json(trace, meta)


def test_trace_json_blocks_byte_identical_to_json_dumps():
    """The templated "blocks" list equals json.dumps(doc, indent=1) for 0, 1 and 2000 blocks."""
    causes = ("predicate", "length", "budget", "run_end")
    records = _hand_built_traces()[0].records[:3]
    for count in (0, 1, 2000):
        blocks = tuple(BlockLog(k, 3 * k - 2, 3 * k, causes[k % 4]) for k in range(1, count + 1))
        for recs in ((), records):
            trace = Trace(recs, blocks, "schedule_exhausted", True)
            buf = io.StringIO()
            trace_to_json(trace, buf, meta={"seed": 1})
            assert buf.getvalue() == _reference_json(trace, {"seed": 1})


def _reference_csv(trace, meta):
    """The text as a whole document of joined lines, one per record."""
    lines = [f"# {key}={val}" for key, val in (meta or {}).items()]
    lines.append("n,block,res_a,norm_a,norm_b,gap_ab,dist_target")
    for r in trace.records:
        dist = "" if r.dist_target is None else repr(float(r.dist_target))
        lines.append(",".join([str(r.n), str(r.block_id),
                               *(repr(float(x)) for x in (r.res_a, r.norm_a, r.norm_b, r.gap_ab)),
                               dist]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("meta", [None, {"config_sha256": "ab" * 32, "seed": 7}])
def test_trace_csv_streamed_equals_joined_lines(meta):
    for trace in _hand_built_traces():
        buf = io.StringIO()
        trace_to_csv(trace, buf, meta=meta)
        assert buf.getvalue() == _reference_csv(trace, meta)


@pytest.mark.parametrize("write", [trace_to_csv, trace_to_json])
def test_rewrite_in_place_equals_a_fresh_write(tmp_path, write):
    """Writing over a longer, shorter or empty trace leaves the bytes of a
    fresh write, which are the text written to a file object."""
    long, short, empty = _hand_built_traces()
    for first, second in ((long, short), (long, empty), (empty, long), (short, short)):
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        write(first, used, meta={"seed": 1})
        write(second, used, meta={"seed": 2})
        fresh.unlink(missing_ok=True)
        write(second, fresh, meta={"seed": 2})
        buf = io.StringIO()
        write(second, buf, meta={"seed": 2})
        assert used.read_bytes() == fresh.read_bytes() == buf.getvalue().encode()


def test_failed_write_leaves_no_old_bytes_after_new_ones(tmp_path, monkeypatch):
    long = _hand_built_traces()[0]
    path = tmp_path / "t.json"
    trace_to_json(long, path, meta={"seed": 1})
    old = path.read_bytes()
    real, done = engine._json_record, []

    def fails_at_the_fourth(r):
        if len(done) == 3:
            raise RuntimeError("record failed")
        done.append(r)
        return real(r)

    monkeypatch.setattr(engine, "_json_record", fails_at_the_fourth)
    with pytest.raises(RuntimeError, match="record failed"):
        trace_to_json(long, path, meta={"seed": 2})
    partial = path.read_bytes()
    assert len(partial) < len(old)
    assert _reference_json(long, {"seed": 2}).encode().startswith(partial)
    assert partial.endswith(real(done[-1]).encode())


def test_trace_to_a_device_is_not_cut():
    """As with O_TRUNC, only a regular file is cut to length."""
    trace = _hand_built_traces()[0]
    trace_to_csv(trace, os.devnull)
    trace_to_json(trace, os.devnull)


def test_block_ends_force_records_except_under_per_step():
    """Adaptive block ends force a record, PerStep's do not; both log the same blocks."""
    def pairs(k):
        return line(0.0), line(0.3 + 1.0 / k)

    cfg = RunConfig(start=np.array([1.0, 1.0]), max_iter=30, record_stride=10)
    adaptive = run_perturbed(Adaptive(pairs, lambda k, a: True, max_block_len=1), cfg)
    per_step = run_perturbed(PerStep(pairs), cfg)
    assert [r.n for r in adaptive.records] == list(range(1, 31))
    assert [r.n for r in per_step.records] == [1, 10, 20, 30]
    assert per_step.blocks == adaptive.blocks
    assert [bl.advance for bl in per_step.blocks] == ["predicate"] * 30


class _FailsAfter:
    """Projection stub that errors once a countdown expires."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.calls = 0
        self.fail_at = fail_at

    @property
    def dim(self):
        return self.inner.dim

    def project(self, x):
        self.calls += 1
        if self.calls >= self.fail_at:
            raise RuntimeError("solver gave up")
        return self.inner.project(x)

    def distance(self, x):
        return self.inner.distance(x)


def test_projection_error_carries_step_index():
    flaky = _FailsAfter(line(0.4), fail_at=4)
    cfg = RunConfig(start=np.array([1.0, 0.3]), max_iter=20)
    with pytest.raises(ProjectionStepError) as err:
        run_perturbed(Constant(line(0.0), flaky), cfg)
    assert err.value.step == 4


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(start=np.array([1.0]), max_iter=0)
    with pytest.raises(ValueError):
        RunConfig(start=np.array([1.0]), max_iter=3, record_stride=0)
    with pytest.raises(ValueError):
        RunConfig(start=np.array([np.nan]), max_iter=3)


def test_norm_bit_equal_to_linalg_norm():
    """engine._norm gives the bits of float(np.linalg.norm(v)) it replaces."""
    rng = np.random.default_rng(8)
    for _ in range(5000):
        size = int(rng.integers(1, 20))
        v = rng.standard_normal(size) * 10.0 ** rng.uniform(-150, 150)
        assert _norm(v) == float(np.linalg.norm(v))


class _CountingSchedule:
    """Schedule wrapper that counts ``pair`` calls per block."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def pair(self, block_id):
        self.calls[block_id] += 1
        return self.inner.pair(block_id)

    def advance(self, block_id, block_step, a_n):
        return self.inner.advance(block_id, block_step, a_n)


def test_blocks_pair_fetched_once_per_block():
    """run_perturbed asks a Blocks schedule for each block's pair once."""
    sched = _CountingSchedule(Blocks(((line(0.0), line(0.5), 4), (line(0.1), line(1.0), 3),
                                      (line(0.2), line(0.7), 5))))
    trace = run_perturbed(sched, RunConfig(start=np.array([1.0, 0.5]), max_iter=100))
    assert trace.status == "schedule_exhausted" and trace.final.n == 12
    assert sched.calls == {1: 1, 2: 1, 3: 1, 4: 1}


@pytest.mark.parametrize("schedule", [
    Blocks(((line(0.0), line(0.5), 4), (line(0.1), line(1.0), 3))),
    PerStep(lambda k: (line(0.0), line(0.3 + 1.0 / k))),
], ids=["Blocks", "PerStep"])
def test_each_record_built_through_engine_trace_record(schedule, monkeypatch):
    """run_perturbed builds each logged record through ``engine.TraceRecord`` as
    the module holds it when the run starts, never a copy bound at import: a
    benchmark that swaps in a wrapper times the run by its records."""
    built = []

    def counting(**fields):
        built.append(fields["n"])
        return TraceRecord(**fields)

    monkeypatch.setattr(engine, "TraceRecord", counting)
    trace = run_perturbed(schedule, RunConfig(start=np.array([1.0, 0.5]), max_iter=7,
                                              record_stride=3))
    assert built == [r.n for r in trace.records] and len(built) >= 3


def test_adaptive_callable_family_built_once_per_block():
    """A callable Adaptive family is called once per block, not once per step."""
    built = Counter()

    def family(k):
        built[k] += 1
        if k > 3:
            raise IndexError(k)
        return line(0.0), line(0.3 * k)

    sched = Adaptive(pairs=family, switch_predicate=lambda k, a: np.linalg.norm(a) < 0.5 ** k,
                     max_block_len=1000)
    trace = run_perturbed(sched, RunConfig(start=np.array([1.0, 1.0]), max_iter=1000))
    assert trace.status == "schedule_exhausted" and trace.schedule_complete
    assert trace.final.n > 3  # some block ran several steps
    assert built == {1: 1, 2: 1, 3: 1, 4: 1}


def test_stable_scenario_pair_fetched_every_step():
    """A stable scenario advances every step, so its pair is built every step."""
    sched = _CountingSchedule(stable_scenario("tangent_disc").make_schedule())
    run_perturbed(sched, RunConfig(start=np.array([3.0, -2.0]), max_iter=40))
    assert sched.calls == {k: 1 for k in range(1, 41)}


def _residual_stop_reference(blocks, start, max_iter, stop_residual):
    """(last step, status) of a loop that takes ||a_n - a_{n-1}|| every step."""
    prev, n = start, 0
    for A, B, length in blocks:
        for _ in range(length):
            n += 1
            a = A.project(B.project(prev))
            if float(np.linalg.norm(a - prev)) < stop_residual:
                return n, "residual_met"
            if n == max_iter:
                return n, "max_iter"
            prev = a
    return n, "schedule_exhausted"


@pytest.mark.parametrize("stop_residual", [1e-3, 1e-6, 1e-12, 1e-300])
@pytest.mark.parametrize("stride", [1, 7])
def test_stop_residual_matches_per_step_reference(stop_residual, stride):
    """Taking the residual only under stop_residual stops at the same step."""
    blocks = ((line(0.0), line(0.9), 15), (line(0.2), line(0.8), 400))
    start = np.array([1.0, 0.4])
    cfg = RunConfig(start=start, max_iter=300, stop_residual=stop_residual,
                    record_stride=stride)
    trace = run_perturbed(Blocks(blocks), cfg)
    assert (trace.final.n, trace.status) == _residual_stop_reference(
        blocks, start, 300, stop_residual)
