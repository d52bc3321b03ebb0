import json
import math

import numpy as np
import pytest

from altproj.constructions import (BlockBudgetExceeded, Ell2Construction,
                                   InfeasibleParams, build_ell2_construction,
                                   default_start_alphas, ell2_aw_certificate,
                                   ell2_checkpoints, ell2_limit_graph,
                                   ell2_relative_gap, ell2_run, ell2_schedule,
                                   ell2_start_point, ell2_verify_engine,
                                   example_unstable_bodies,
                                   run_example_unbounded_lines,
                                   run_example_unstable, stable_scenario,
                                   tilted_line)
from altproj.engine import RunConfig, ScheduleExhausted, run_classical
from altproj.sets import AffineSubspace, Ball, Halfspace, Polyhedron
from altproj.variational import aw_distance, strongly_exposes_probe

from _oracles import exact_fields


# ---------------------------------------------------------------------------
# touching squares


def test_unstable_bodies_vertex_lists():
    A, B, C2, D2 = example_unstable_bodies(2)
    assert {tuple(v) for v in A.vertices} == {(1, 1), (-1, 1), (1, 0), (-1, 0)}
    assert {tuple(v) for v in B.vertices} == {(1, -1), (-1, -1), (1, 0), (-1, 0)}
    # even index 2 = first lifted-right pair: bottom-right vertex at height 1
    assert (1.0, 1.0) in {tuple(v) for v in C2.vertices}
    _, _, C4, D4 = example_unstable_bodies(4)
    assert (1.0, 0.5) in {tuple(v) for v in C4.vertices}
    assert (1.0, -0.5) in {tuple(v) for v in D4.vertices}


def test_unstable_bodies_degenerate_first_pair_dedupes():
    _, _, C1, D1 = example_unstable_bodies(1)
    assert len(C1.vertices) == 3
    assert len(D1.vertices) == 3


def test_unstable_bodies_mirror_symmetry():
    for h in (1, 2, 5, 8):
        _, _, C, D = example_unstable_bodies(h)
        mirrored = {(x, -y) for x, y in map(tuple, C.vertices)}
        assert mirrored == {tuple(v) for v in D.vertices}


def test_unstable_bodies_converge_in_aw():
    A, B, _, _ = example_unstable_bodies(1)
    prev_c = prev_d = math.inf
    for h in (1, 3, 5, 9):
        _, _, C, D = example_unstable_bodies(h)
        hc = aw_distance(C, A, 2, n_samples=700, rng_seed=h).h_N
        hd = aw_distance(D, B, 2, n_samples=700, rng_seed=h + 1).h_N
        assert hc < prev_c + 1e-6 and hd < prev_d + 1e-6
        prev_c, prev_d = hc, hd
    assert prev_c < 0.2 and prev_d < 0.2


def test_run_example_unstable_oscillates():
    trace = run_example_unstable(6)
    blocks = trace.blocks
    assert len(blocks) == 6
    assert all(bl.advance == "predicate" for bl in blocks)
    recs = {r.n: r for r in trace.records}
    right, left = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    ends = [recs[bl.end_n].a for bl in blocks]
    for k, a in enumerate(ends, start=1):
        anchor = right if k % 2 == 1 else left
        assert np.linalg.norm(a - anchor) < 0.5
    # consecutive block ends are >= 1 apart: the run is not Cauchy
    gaps = [np.linalg.norm(e1 - e2) for e1, e2 in zip(ends, ends[1:])]
    assert all(g >= 1.0 for g in gaps)


def test_run_example_unstable_block_lengths_finite_and_logged():
    trace = run_example_unstable(4, max_block_len=10_000)
    for bl in trace.blocks:
        assert 1 <= bl.end_n - bl.start_n + 1 <= 10_000


def test_run_example_unstable_budget_error():
    with pytest.raises(ScheduleExhausted):
        run_example_unstable(4, max_block_len=1)


def test_constant_pair_converges_into_intersection():
    A, B, _, _ = example_unstable_bodies(1)
    cfg = RunConfig(start=np.array([0.0, 0.2]), max_iter=3)
    trace = run_classical(A, B, cfg)
    final = trace.final.a
    assert A.membership(final, 1e-9) and B.membership(final, 1e-9)
    assert abs(final[1]) <= 1e-12


# ---------------------------------------------------------------------------
# escaping lines


def test_tilted_line_incidence():
    for k in (1, 2, 7):
        L = tilted_line(k)
        assert L.distance(np.array([0.0, 1.0 / k])) < 1e-12
        assert L.distance(np.array([float(k), 0.0])) < 1e-12


def test_unbounded_lines_first_step_closed_form():
    trace = run_example_unbounded_lines(1, record_stride=1)
    first = trace.records[0]
    np.testing.assert_allclose(first.b, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(first.a, [0.5, 0.0], atol=1e-12)


def test_unbounded_lines_block_end_norms_grow():
    trace = run_example_unbounded_lines(6)
    recs = {r.n: r for r in trace.records}
    end_norms = [recs[bl.end_n].norm_a for bl in trace.blocks]
    for k, nrm in enumerate(end_norms, start=1):
        assert nrm > k / 2.0
    assert all(n1 < n2 for n1, n2 in zip(end_norms, end_norms[1:]))


# ---------------------------------------------------------------------------
# product-space construction


@pytest.fixture(scope="module")
def desk_construction():
    return build_ell2_construction(8, 4, ratio=0.5)


def test_ell2_conditions_hold(desk_construction):
    rows = desk_construction.verify_conditions()
    failed = [(name, detail) for name, ok, detail in rows if not ok]
    assert not failed


def test_ell2_multiplier_lower_bound(desk_construction):
    for blk in desk_construction.blocks:
        h = blk.h
        assert (1 + blk.M) ** 2 > 2.0 ** h / (2.0 ** (h - 1) + h - 1)


def test_ell2_offset_norm_bound(desk_construction):
    c = desk_construction
    K = max(max(1 / blk.M, (1 + blk.M) / blk.M) for blk in c.blocks)
    for blk in c.blocks:
        bound = K * c.ratio ** blk.h * math.sqrt(2.0 ** (blk.h - 1) + blk.h - 1)
        assert np.linalg.norm(blk.b) <= bound + 1e-12


def test_ell2_per_coordinate_growth_monotone(desk_construction):
    c = desk_construction
    blk = c.blocks[1]
    h = blk.h
    ts = [1, 5, 50, blk.N]
    tables = [c.closed_alphas(h, t) for t in ts]
    for t1, t2 in zip(tables, tables[1:]):
        assert np.all(t2[h:] > t1[h:])   # growing coordinates strictly increase
        assert np.all(t2[:h] <= t1[:h])  # settled coordinates decay


def test_ell2_closed_form_step_consistency(desk_construction):
    # one engine step from the closed-form state equals the closed form at t+1
    c = desk_construction
    err = ell2_verify_engine(c, [(h, t) for h in (1, 2, 3, 4) for t in (1, 2, 17)],
                             window=1)
    assert err <= 1e-12


def test_ell2_engine_matches_closed_forms_small_instance():
    # full run on a small instance: every block boundary recomputed exactly
    c = build_ell2_construction(5, 2, ratio=0.5)
    cps = ell2_checkpoints(c, 40, rng_seed=3)
    assert ell2_verify_engine(c, cps, window=10 ** 9) <= 1e-8  # window > N: full replay
    trace = ell2_run(c, record_stride=1)
    recs = {r.n: r for r in trace.records}
    bounds = [0] + c.block_boundaries()
    for h, blk in enumerate(c.blocks, start=1):
        end = recs[bounds[h - 1] + blk.N]
        assert ell2_relative_gap(end.a[:c.d], blk.end_alphas) <= 1e-8


def test_ell2_block_end_norms_exceed_growth_targets(desk_construction):
    for blk in desk_construction.blocks:
        assert float(np.sum(blk.end_alphas ** 2)) > 2.0 ** blk.h


def test_ell2_schedule_structure(desk_construction):
    c = desk_construction
    sched = ell2_schedule(c)
    assert [L for _, _, L in sched.blocks] == [blk.N for blk in c.blocks]
    start = ell2_start_point(c)
    assert start.size == 2 * c.d
    np.testing.assert_array_equal(start[c.d:], 0.0)
    np.testing.assert_array_equal(start[:c.d], c.start_alphas)


def test_ell2_aw_certificate_decreasing(desk_construction):
    c = desk_construction
    rows = ell2_aw_certificate(c, [1, 2, 4])
    by_n = {}
    for h, N, bound in rows:
        by_n.setdefault(N, []).append((h, bound))
    for N, items in by_n.items():
        bounds = [b for _, b in sorted(items)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))


def test_ell2_certificate_dominates_sampled_distance(desk_construction):
    c = desk_construction
    B = ell2_limit_graph(c)
    rows = {(h, N): bound for h, N, bound in ell2_aw_certificate(c, [2])}
    from altproj.sets import DiagonalAffineGraph
    for blk in c.blocks:
        Ch = DiagonalAffineGraph(blk.theta, blk.b)
        sampled = aw_distance(Ch, B, 2, mode="sampled", n_samples=600,
                              rng_seed=blk.h).h_N
        assert sampled <= rows[(blk.h, 2)] + 1e-6


def test_ell2_json_round_trip(desk_construction):
    doc = json.loads(json.dumps(desk_construction.as_dict()))
    c2 = Ell2Construction.from_dict(doc)
    assert c2.d == desk_construction.d and c2.H == desk_construction.H
    for b1, b2 in zip(desk_construction.blocks, c2.blocks):
        assert b1.N == b2.N and b1.M == b2.M
        np.testing.assert_array_equal(b1.theta, b2.theta)
        np.testing.assert_array_equal(b1.end_alphas, b2.end_alphas)


def test_ell2_growth_stabilizes_after_final_block():
    # at fixed truncation the two limit subspaces have angle constant < 1,
    # so continuing against the unperturbed graph contracts instead of growing
    c = build_ell2_construction(5, 2, ratio=0.5)
    trace = ell2_run(c)
    d = c.d
    basis = np.zeros((d, 2 * d))
    basis[:, :d] = np.eye(d)
    from altproj.sets import OrthoSubspace
    axis = OrthoSubspace(basis)
    cont = run_classical(axis, ell2_limit_graph(c),
                         RunConfig(start=trace.final.a, max_iter=300,
                                   record_stride=50))
    assert cont.final.norm_a < 0.5 * trace.final.norm_a


def test_stable_scenario_iterates_near_limit_intersection():
    # proxy for dist(a_n, A intersect B): settle the final iterate into the
    # limit pair classically and measure how far it had to move
    scen = stable_scenario("overlapping_balls")
    trace = scen.run(max_iter=4000)
    final = trace.final.a
    settle = run_classical(scen.A, scen.B,
                           RunConfig(start=final, max_iter=300,
                                     stop_residual=1e-12, record_stride=1))
    moved = float(np.linalg.norm(settle.final.a - final))
    assert settle.final.res_a < 1e-10
    assert moved < 1e-3


def test_ell2_budget_error_carries_block():
    with pytest.raises(BlockBudgetExceeded) as err:
        build_ell2_construction(8, 4, ratio=0.5, max_block_n=100)
    assert err.value.h >= 1


def test_ell2_parameter_validation():
    with pytest.raises(ValueError):
        build_ell2_construction(4, 4, ratio=0.5)  # needs H < d
    with pytest.raises(ValueError):
        build_ell2_construction(8, 2, ratio=0.5,
                                start=np.full(8, 0.5))  # norm >= 1
    with pytest.raises(ValueError):
        start = default_start_alphas(8)
        start[3] = -start[3]
        build_ell2_construction(8, 2, ratio=0.5, start=start)


def test_ell2_start_defaults():
    s = default_start_alphas(8)
    assert np.all(s > 0)
    assert np.linalg.norm(s) == pytest.approx(0.9, abs=1e-12)


# ---------------------------------------------------------------------------
# stability scenarios


def test_tangent_disc_scenario_families_shrink():
    scen = stable_scenario("tangent_disc")
    for n in (1, 10, 100):
        est = aw_distance(scen.a_family(n), scen.A, 2, n_samples=400, rng_seed=n)
        assert est.h_N <= 2.0 * scen.delta(n) + 1e-6


def test_tangent_disc_separator_strongly_exposes():
    scen = stable_scenario("tangent_disc")
    probe = strongly_exposes_probe(scen.A, np.array([0.0, -1.0]),
                                   [0.2, 0.1, 0.05], n_samples=300, rng_seed=0)
    assert all(r1 > r2 for r1, r2 in zip(probe.ratios, probe.ratios[1:]))
    assert probe.slice_diams[-1] < probe.slice_diams[0]


def test_overlapping_balls_contain_origin_for_all_n():
    scen = stable_scenario("overlapping_balls")
    for n in (1, 7, 50):
        assert scen.a_family(n).membership(np.zeros(2), 1e-12)
        assert scen.b_family(n).membership(np.zeros(2), 1e-12)


def test_transversal_planes_omega_below_one():
    scen = stable_scenario("transversal_planes")
    from altproj.variational import omega_angle
    rep = omega_angle(scen.A.basis, scen.B.basis)
    assert rep.omega == pytest.approx(scen.notes["omega"], abs=1e-12)
    assert rep.omega < 1.0


def test_orthant_polar_membership_validation():
    scen = stable_scenario("orthant_polar", d=3, a=np.array([-1.0, -2.0, -0.5]))
    assert scen.notes["polar_interior"]
    with pytest.raises(InfeasibleParams):
        stable_scenario("orthant_polar", d=3, a=np.array([-1.0, 0.0, -0.5]))


def test_orthant_halfspace_validation():
    scen = stable_scenario("orthant_halfspace", d=2, a=np.array([1.0, -1.0]), b=0.5)
    w = np.array(scen.notes["witness"])
    assert np.all(w > 0) and float(scen.B.a @ w) < scen.B.b
    with pytest.raises(InfeasibleParams):
        stable_scenario("orthant_halfspace", d=2, a=np.array([-1.0, -1.0]), b=0.5)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_orthant_families_scale_normals_of_extreme_size(scale):
    """Normals whose squares over- or underflow give the sets of the same
    normals divided by their largest entry, at the limit and at every step;
    the bounds family keeps its shift in the units of the given normals."""
    def sets(kind, **params):
        sc = stable_scenario(kind, **params)
        return [exact_fields(S) for S in (sc.B, sc.b_family(1), sc.b_family(40))]

    for kind, a, b in (("orthant_halfspace", [1.0, -1.0], 0.5),
                       ("orthant_polar", [-1.0, -2.0, -0.5], None)):
        extra = {} if b is None else {"b": b}
        big = {} if b is None else {"b": b * scale}
        assert sets(kind, a=np.array(a) * scale, **big) == sets(kind, a=np.array(a), **extra)
    normals, offsets = np.array([[1.0, 1.0, 1.0], [1.5, 1.0, 1.0]]), np.array([3.0, 2.0])
    sc = stable_scenario("orthant_bounds", normals=normals * [[scale], [1.0]],
                         offsets=offsets * [scale, 1.0])
    plain = stable_scenario("orthant_bounds", normals=normals, offsets=offsets)
    assert exact_fields(sc.B) == exact_fields(plain.B)
    for n in (1, 40):
        got, want = sc.b_family(n).b, plain.b_family(n).b
        assert got[1] == want[1]
        assert got[0] == pytest.approx((3.0 * scale + sc.delta(n)) / (scale * math.sqrt(3.0)),
                                       rel=1e-15)


def test_orthant_bounds_requires_positive_offsets():
    with pytest.raises(InfeasibleParams):
        stable_scenario("orthant_bounds", d=2,
                        normals=np.array([[1.0, 0.0]]), offsets=np.array([0.0]))


@pytest.mark.parametrize("kind, params, name", [
    ("orthant_bounds", {"d": 2.7}, "d"),
    ("orthant_polar", {"d": "x"}, "d"),
    ("orthant_halfspace", {"d": True}, "d"),
    ("transversal_planes", {"kappa": "0.5"}, "kappa"),
    ("transversal_planes", {"kappa": math.nan}, "kappa"),
    ("orthant_halfspace", {"b": False}, "b"),
    ("orthant_halfspace", {"a": ["1", "-1"]}, "a"),
    ("orthant_polar", {"a": [[-1.0, -1.0, -1.0]]}, "a"),
    ("orthant_bounds", {"d": 2, "normals": [[1.0, 0.0], [1.0]], "offsets": [1.0, 1.0]},
     "normals"),
    ("orthant_bounds", {"d": 2, "normals": [[1.0, 0.0]], "offsets": [math.inf]}, "offsets"),
])
def test_scenario_params_are_checked_not_coerced(kind, params, name):
    with pytest.raises(InfeasibleParams, match=f"scenario parameter '{name}'"):
        stable_scenario(kind, **params)


def test_orthant_bounds_uses_offsets_given_alone():
    scen = stable_scenario("orthant_bounds", d=2, offsets=[3.0, 4.0])
    # default normals (1, 1) and (1.5, 0.5); the default offsets (2, 2) exclude this point
    assert scen.B.contains(np.array([1.4, 1.4]))


def test_unknown_scenario_kind_rejected():
    with pytest.raises(InfeasibleParams):
        stable_scenario("nope")


def test_scenario_runs_converge_quickly():
    # the inflating families keep nudging the boundary by ~1/n^2 per step,
    # so the residual needs a few thousand steps to drop under 1e-6
    scen = stable_scenario("overlapping_balls")
    trace = scen.run(max_iter=5000)
    assert trace.final.res_a < 1e-6
    scen = stable_scenario("transversal_planes", delta_law="inv_n_sq")
    trace = scen.run(max_iter=1500)
    assert trace.final.norm_a < 1e-5


SCENARIOS = ("tangent_disc", "overlapping_balls", "transversal_planes", "orthant_bounds",
             "orthant_halfspace", "orthant_polar")


def _public_pair(kind, scen, n):
    """The step-n pair of a scenario with default parameters, built by the
    public constructors alone."""
    dn = scen.delta(n)
    if kind == "tangent_disc":
        up = np.array([0.0, 1.0])
        return Ball(up + dn * up, 1.0), Halfspace(up, -dn)
    if kind == "overlapping_balls":
        u = np.array([1.0, 0.0])
        return (Ball(np.array([0.5, 0.0]) + dn * u, 1.5 + dn),
                Ball(np.array([-0.5, 0.0]) - dn * u, 1.5 + dn))
    if kind == "transversal_planes":
        return (AffineSubspace(dn * np.array([0.0, 0.0, 1.0, 0.0]), scen.A.basis),
                AffineSubspace(dn * np.array([0.0, 1.0, 0.0, 0.0]), scen.B.basis))
    d = scen.A.d
    v = -dn * (np.ones(d) / math.sqrt(d))
    A_n = Polyhedron(-np.eye(d), -v, witness=np.maximum(v, 0.0) + 1.0)
    if kind == "orthant_bounds":
        return A_n, Polyhedron(np.vstack([np.ones(d), np.eye(d)[0] + 0.5]),
                               np.array([float(d), 2.0]) + dn, witness=np.zeros(d))
    if kind == "orthant_halfspace":
        a = np.array([1.0, -1.0])
        return A_n, Halfspace(a, 0.5 + dn * float(np.linalg.norm(a)))
    a = np.array([-1.0, -2.0, -0.5])
    return A_n, Halfspace(a, dn * float(np.linalg.norm(a)))


@pytest.mark.parametrize("law", ["inv_n", "inv_n_sq"])
@pytest.mark.parametrize("kind", SCENARIOS)
def test_scenario_step_sets_bit_equal_to_public_constructors(kind, law):
    """Each step-n set has the type and exact fields the public constructor gives."""
    for scale in (1.0, 0.3, 0.0):
        scen = stable_scenario(kind, delta_law=law, delta_scale=scale)
        for n in [*range(1, 51), 10 ** 3, 10 ** 5]:
            A_n, B_n = _public_pair(kind, scen, n)
            assert exact_fields(scen.a_family(n)) == exact_fields(A_n), (scale, n)
            assert exact_fields(scen.b_family(n)) == exact_fields(B_n), (scale, n)


@pytest.mark.parametrize("kind, scale, steps, message", [
    ("overlapping_balls", -10.0, (1, 2, 6), "radius must be positive"),
    ("orthant_bounds", -10.0, (1, 2, 4), "witness point is not feasible"),
    ("orthant_halfspace", 1.5e308, (1,), "b must be finite"),
])
def test_scenario_step_sets_fail_as_the_public_constructors_do(kind, scale, steps, message):
    """A step whose perturbation breaks a set raises the constructor's error."""
    scen = stable_scenario(kind, delta_scale=scale)
    for n in steps:
        with pytest.raises(ValueError) as want:
            _public_pair(kind, scen, n)
        with pytest.raises(ValueError) as got:
            scen.a_family(n), scen.b_family(n)
        assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("kind", SCENARIOS)
def test_scenario_steps_leave_the_limit_sets_unchanged(kind):
    """Step sets have read-only arrays and do not touch the limit sets they share."""
    scen = stable_scenario(kind)
    before = exact_fields(scen.A), exact_fields(scen.B)
    for n in range(1, 20):
        for S in (scen.a_family(n), scen.b_family(n)):
            assert not any(v.flags.writeable for v in vars(S).values()
                           if isinstance(v, np.ndarray))
    assert (exact_fields(scen.A), exact_fields(scen.B)) == before


def _same_record(r, s):
    return (r.n, r.block_id, r.block_step, r.a.tobytes(), r.b.tobytes(), r.norm_a, r.norm_b,
            r.res_a, r.gap_ab, r.dist_target) == (
        s.n, s.block_id, s.block_step, s.a.tobytes(), s.b.tobytes(), s.norm_a, s.norm_b,
        s.res_a, s.gap_ab, s.dist_target)


@pytest.mark.parametrize("kind", ["tangent_disc", "orthant_halfspace"])
def test_scenario_run_honours_record_stride(kind):
    """A scenario run logs steps 1, k*stride and the last, as the full-rate run does."""
    scen = stable_scenario(kind)
    full = scen.run(max_iter=2500, record_stride=1)
    thin = scen.run(max_iter=2500, record_stride=1000)
    assert [r.n for r in thin.records] == [1, 1000, 2000, 2500]
    by_n = {r.n: r for r in full.records}
    assert all(_same_record(r, by_n[r.n]) for r in thin.records)
    assert thin.blocks == full.blocks and len(thin.blocks) == 2500
