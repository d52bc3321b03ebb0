import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from altproj import sets as sets_module
from altproj.constructions import _checked, _moved
from altproj.sets import (AffineSubspace, Ball, DiagonalAffineGraph, Halfspace, Hyperplane,
                          NonnegOrthant, OrthoSubspace, Polygon2D, Polyhedron,
                          ProjectionCertificateError, SupportUnavailable, _passive_solve,
                          _polyhedron_unbounded_in, set_from_dict, set_to_dict,
                          slice_sample)
from altproj.variational import strongly_exposes_probe

from _oracles import (DISTANCE_CLOSED_FORMS, PROJECTABLE_KINDS, clip_polygon_unique,
                      convex_hull_unique, disc_slice_diameter,
                      exact_fields, graph_projection_first_coords_oracle,
                      polygon_project_loop, polyhedron_project_dykstra,
                      lp_support, polyhedron_projection_bruteforce, public_translate,
                      random_set, slice_reference)
from _paper_checks import ConeSpec


# ---------------------------------------------------------------------------
# projection examples


def test_halfspace_projection_drops_positive_part():
    H = Halfspace(np.array([1.0, 0.0]), 0.0)
    np.testing.assert_allclose(H.project(np.array([2.0, 3.0])), [0.0, 3.0])


def test_orthant_clamps():
    K = NonnegOrthant(2)
    np.testing.assert_allclose(K.project(np.array([-1.0, 2.0])), [0.0, 2.0])


def test_polygon_projection_foot_on_bottom_edge():
    A = Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)])
    np.testing.assert_allclose(A.project(np.array([0.0, -1.0])), [0.0, 0.0])


def test_graph_projection_matches_line_search_example():
    g = DiagonalAffineGraph(np.array([0.5]), np.array([0.2]))
    z = np.array([1.0, 0.0])
    got = g.project(z)
    assert got[0] == pytest.approx(0.72, abs=1e-12)
    oracle = graph_projection_first_coords_oracle(g.theta, g.offset, z)
    assert got[0] == pytest.approx(oracle[0], abs=1e-10)


def test_graph_projection_matches_line_search_random(rng):
    for _ in range(25):
        d = int(rng.integers(1, 5))
        g = DiagonalAffineGraph(rng.uniform(-2, 2, size=d), rng.uniform(-1, 1, size=d))
        z = rng.standard_normal(2 * d) * 2
        got = g.project(z)[:d]
        oracle = graph_projection_first_coords_oracle(g.theta, g.offset, z)
        np.testing.assert_allclose(got, oracle, atol=1e-10)


# ---------------------------------------------------------------------------
# Dykstra


def test_dykstra_single_constraint_agrees_with_halfspace():
    P = Polyhedron(np.array([[1.0, 0.0]]), np.array([0.0]), witness=np.array([-1.0, 0.0]))
    np.testing.assert_allclose(polyhedron_project_dykstra(P, np.array([2.0, 3.0])),
                               [0.0, 3.0], atol=1e-10)


def test_dykstra_orthant_corner():
    P = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2),
                   witness=np.array([-1.0, -1.0]))
    got = polyhedron_project_dykstra(P, np.array([1.0, 1.0]))
    oracle = polyhedron_projection_bruteforce(P, np.array([1.0, 1.0]))
    np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(got, oracle, atol=1e-9)


def test_dykstra_feasible_point_unchanged():
    P = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]),
                   witness=np.zeros(2))
    x = np.array([0.2, -0.5])
    np.testing.assert_array_equal(polyhedron_project_dykstra(P, x), x)


def test_dykstra_matches_bruteforce_random(rng):
    for _ in range(30):
        P = random_set("polyhedron", rng)
        x = rng.standard_normal(P.dim) * 2
        got = polyhedron_project_dykstra(P, x, tol=1e-12)
        oracle = polyhedron_projection_bruteforce(P, x)
        np.testing.assert_allclose(got, oracle, atol=1e-8)


# ---------------------------------------------------------------------------
# exact polyhedron projection


def _polyhedron_4_to_11(rng):
    """d in {2, 3} with 4-11 constraints: the distribution on which Dykstra,
    stopped on iterate displacement, returned non-nearest points (in 12 of
    the 1000 draws below, off by up to 0.13)."""
    d = int(rng.integers(2, 4))
    m = int(rng.integers(4, 12))
    center = rng.standard_normal(d) * 0.5
    A = rng.standard_normal((m, d))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    b = A @ center + rng.uniform(0.3, 2.0, size=m)
    return Polyhedron(A, b, witness=center)


def _kkt_gap(P, x, y, active_tol=1e-9):
    """Largest KKT violation of y as the projection of x onto P, with the
    multipliers recomputed here by least squares on the tight constraints."""
    A, b = P.normals, P.b
    slack = b - A @ y
    tight = slack <= active_tol * max(1.0, float(np.linalg.norm(x)))
    lam = np.zeros(len(b))
    if tight.any():
        lam[tight] = np.linalg.lstsq(A[tight].T, x - y, rcond=None)[0]
    return max(-float(slack.min()), -float(lam.min()),
               float(np.linalg.norm(y - x + A.T @ lam)))


def test_polyhedron_projection_hand_case():
    # Dykstra stopped on displacement returned (1.5, 0) here.
    P = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([2.0, 0.5, 1.5]),
                   witness=np.zeros(2))
    x = np.array([3.0, 2.0])
    np.testing.assert_allclose(P.project(x), [1.25, 0.25], atol=1e-12)
    np.testing.assert_allclose(polyhedron_project_dykstra(P, x), [1.25, 0.25], atol=1e-9)
    np.testing.assert_allclose(polyhedron_projection_bruteforce(P, x), [1.25, 0.25],
                               atol=1e-12)


def test_polyhedron_projection_exact_on_dykstra_failure_distribution():
    rng = np.random.default_rng(64)
    worst = {"oracle": 0.0, "dykstra": 0.0, "kkt": 0.0, "vi": -np.inf, "idem": 0.0,
             "nonexp": -np.inf}
    for _ in range(1000):
        P = _polyhedron_4_to_11(rng)
        x = rng.standard_normal(P.dim) * 2.5
        z = rng.standard_normal(P.dim) * 2.5
        oracle = polyhedron_projection_bruteforce(P, x)
        px, pz = P.project(x), P.project(z)
        worst["oracle"] = max(worst["oracle"], float(np.linalg.norm(px - oracle)))
        worst["dykstra"] = max(worst["dykstra"], float(np.linalg.norm(
            polyhedron_project_dykstra(P, x) - oracle)))
        worst["kkt"] = max(worst["kkt"], _kkt_gap(P, x, px))
        worst["idem"] = max(worst["idem"], float(np.linalg.norm(P.project(px) - px)))
        worst["nonexp"] = max(worst["nonexp"],
                              float(np.linalg.norm(px - pz) - np.linalg.norm(x - z)))
        for y in [P.witness, pz] + [P.project(rng.standard_normal(P.dim) * 3.0)
                                    for _ in range(4)]:
            worst["vi"] = max(worst["vi"], float((x - px) @ (y - px)))
    assert worst["oracle"] <= 1e-8, worst
    assert worst["dykstra"] <= 1e-8, worst
    assert worst["kkt"] <= 1e-9, worst
    assert worst["vi"] <= 1e-8, worst
    assert worst["idem"] <= 1e-10, worst
    assert worst["nonexp"] <= 1e-9, worst


def test_polyhedron_feasible_point_returned_unchanged():
    P = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]),
                   witness=np.zeros(2))
    x = np.array([0.2, -0.5])
    y = P.project(x)
    np.testing.assert_array_equal(y, x)
    assert y is not x


def test_polyhedron_certificate_failure_raises(monkeypatch):
    import altproj.sets as sets_module
    monkeypatch.setattr(sets_module, "_KKT_TOL", -1.0)
    P = Polyhedron(np.array([[1.0, 0.0]]), np.array([0.0]), witness=np.array([-1.0, 0.0]))
    with pytest.raises(ProjectionCertificateError, match="KKT certificate"):
        P.project(np.array([2.0, 3.0]))


_NO_SCIPY = """
import sys
sys.modules["scipy"] = None           # every import of scipy now fails
from pathlib import Path
import numpy as np
import altproj
from altproj import cli
from altproj.sets import Polyhedron, SupportUnavailable

P = Polyhedron(np.eye(2), np.zeros(2), witness=-np.ones(2))
P.project(np.array([1.0, 2.0])); P.distance(np.array([3.0, -1.0]))
assert P.support_value(np.array([1.0, 1.0])) == 0.0
try:
    P.support_value(np.array([-1.0, 0.0]))
    raise AssertionError("unbounded direction not detected")
except SupportUnavailable:
    pass
out = sys.argv[2]
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    assert cli.main(["validate", "--config", str(path), "--out", out, "--quiet"]) == 0, path
    if path.name.startswith("probe_"):
        assert cli.main(["probe", "--config", str(path), "--out", out, "--quiet"]) == 0, path
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_polyhedron_projection_does_not_import_scipy_optimize(tmp_path):
    """The runtime needs numpy only: with scipy made unimportable, polyhedron
    projection and support values work, and every shipped config validates
    and every shipped probe config runs."""
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(root / "configs"), str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert out.stdout.strip() == "['scipy']"   # only the blocking entry
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "aw_squares.json", "exposure_disc.json", "omega_planes.json", "separation.json"]


def test_passive_solve_bit_equal_to_numpy_solve():
    """The NNLS's least squares solves give np.linalg.solve's bits: square
    systems and normal equations of 1 to 13 columns, seeded.  Only the
    one-column solve is a division, which equals LAPACK's on a 1 x 1 system."""
    rng = np.random.default_rng(21)
    for rows in range(1, 14):
        for _ in range(10):
            E = rng.standard_normal((rows, rows + 3)) * 10.0 ** rng.uniform(-3, 3, rows + 3)
            f = rng.standard_normal(rows)
            Q, q = E.T @ E, E.T @ f
            for k in range(1, rows + 1):
                cols = sorted(rng.choice(rows + 3, k, replace=False).tolist())
                want = (np.linalg.solve(E[:, cols], f) if 1 < k == rows
                        else np.linalg.solve(Q[cols][:, cols], q[cols]))
                assert _passive_solve(E, f, Q, q, cols).tobytes() == want.tobytes(), (rows, cols)


def test_passive_solve_singular_returns_none_without_a_warning():
    """A singular solve is None, as np.linalg.solve's LinAlgError was, and
    raises no RuntimeWarning where warnings are errors."""
    E = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    f = np.array([1.0, 0.0])
    Q, q = E.T @ E, E.T @ f
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _passive_solve(E, f, Q, q, [0, 1]) is None  # the square system
        assert _passive_solve(E, np.zeros(3), Q, q, [0, 1]) is None  # its normal equations
        assert _passive_solve(E, f, Q, q, [0, 2]) is not None


# ---------------------------------------------------------------------------
# unbounded directions of a polyhedron: Farkas' lemma on NNLS against linprog


def _unbounded_by_linprog(P, f):
    """sup <f, .> over P is +inf iff the recession cone {A y <= 0}, boxed,
    has a direction of positive ascent; an LP, independent of the NNLS."""
    from scipy.optimize import linprog
    res = linprog(-f, A_ub=P.normals, b_ub=np.zeros(len(P.b)),
                  bounds=[(-1.0, 1.0)] * P.dim, method="highs")
    assert res.status == 0
    return -res.fun > 1e-9


def test_polyhedron_unbounded_directions_match_linprog():
    rng = np.random.default_rng(4000)
    kinds = {"normal": 0, "boundary": 0, "interior": 0, "outside": 0, "random": 0}
    for _ in range(250):
        d, m = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        A = rng.standard_normal((m, d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        r = rng.standard_normal(d)
        flip = rng.uniform() < 0.5
        if flip:        # every normal makes A r <= 0: r is a recession direction
            A *= np.where(A @ r > 0.0, -1.0, 1.0)[:, None]
        center = rng.standard_normal(d)
        P = Polyhedron(A, A @ center + rng.uniform(0.3, 2.0, m), witness=center)
        lam = rng.uniform(0.1, 2.0, m)
        cases = [("normal", P.normals[int(rng.integers(m))], False),
                 ("interior", P.normals.T @ lam, False),
                 ("random", rng.standard_normal(d), None)]
        if m > 1:
            lam[rng.permutation(m)[:int(rng.integers(1, m))]] = 0.0
            cases.append(("boundary", P.normals.T @ lam, False))
        if flip:
            cases.append(("outside", r, True))
        for name, f, expected in cases:
            got = _polyhedron_unbounded_in(P, f)
            assert got == _unbounded_by_linprog(P, f), (name, P, f)
            assert expected is None or got == expected, (name, P, f)
            kinds[name] += 1
    assert min(kinds.values()) >= 60, kinds


def test_polyhedron_unbounded_direction_exact_cases():
    a = np.array([0.6, -0.8])
    P = Polyhedron(a[None], np.array([1.0]), witness=np.zeros(2))
    assert not _polyhedron_unbounded_in(P, a)
    assert _polyhedron_unbounded_in(P, -a)
    ray = Polyhedron(np.array([[2.0]]), np.array([3.0]), witness=np.zeros(1))
    assert ray.support_value(np.array([2.0])) == 3.0
    with pytest.raises(SupportUnavailable, match="unbounded"):
        ray.support_value(np.array([-2.0]))


# ---------------------------------------------------------------------------
# membership


def test_membership_examples():
    assert Ball(np.zeros(2), 1.0).membership(np.array([0.5, 0.0]), 0.0)
    assert Hyperplane(np.array([0.0, 1.0]), 0.0).membership(np.array([7.0, 1e-12]), 1e-9)
    P = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]),
                   witness=np.zeros(2))
    assert not P.membership(np.array([2.0, 0.0]), 0.5)
    assert P.membership(np.array([2.0, 0.0]), 1.0 + 1e-9)


_UNIT_SQUARE = Polygon2D([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
_UNIT_BOX = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 0.0, 0.0]),
                       witness=np.full(2, 0.5))


@pytest.mark.parametrize("make", [lambda rng: _UNIT_SQUARE, lambda rng: _UNIT_BOX] + [
    lambda rng, kind=kind: random_set(kind, rng) for kind in PROJECTABLE_KINDS],
    ids=["unit-square", "unit-box"] + list(PROJECTABLE_KINDS))
def test_membership_is_distance_within_tol(make, rng):
    """membership(x, tol) == (distance(x) <= tol) for every kind, on points
    inside, near the boundary and in the corner regions of the square and
    the box, where a point can be within tol of every edge line but farther
    than tol from the set: (1.09, 1.09) is within 0.1 of both lines x = 1 and
    y = 1 and 0.127 from the square."""
    corners = np.array([(1.09, 1.09), (-0.09, 1.09), (1.09, -0.09), (-0.09, -0.09)])
    for _ in range(4):
        S = make(rng)
        X = [S.project(rng.standard_normal(S.dim) * 3.0) + rng.standard_normal(S.dim) * s
             for s in (0.0, 1e-3, 0.05, 0.1, 1.0) for _ in range(10)]
        if S.dim == 2:
            X += list(corners) + list(corners + rng.uniform(-0.05, 0.05, corners.shape))
        for x in X:
            for tol in (0.0, 1e-9, 0.05, 0.1, 0.2):
                assert S.membership(x, tol) == (S.distance(x) <= tol), (S.to_dict(), x, tol)


# ---------------------------------------------------------------------------
# support values and slices


def test_support_value_examples():
    assert Ball(np.array([0.0, 1.0]), 1.0).support_value(
        np.array([0.0, -1.0])) == pytest.approx(0.0, abs=1e-15)
    A = Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)])
    assert A.support_value(np.array([0.0, 1.0])) == 1.0
    assert A.support_value(np.array([0.0, -1.0])) == 0.0


def test_support_value_unbounded_direction_errors():
    with pytest.raises(SupportUnavailable):
        Halfspace(np.array([1.0, 0.0]), 0.0).support_value(np.array([0.0, 1.0]))
    with pytest.raises(SupportUnavailable):
        NonnegOrthant(2).support_value(np.array([1.0, -1.0]))
    with pytest.raises(SupportUnavailable):
        OrthoSubspace(np.array([[1.0, 0.0]])).support_value(np.array([1.0, 0.0]))
    # unbounded polyhedron direction detected
    P = Polyhedron(np.array([[1.0, 0.0]]), np.array([1.0]), witness=np.zeros(2))
    with pytest.raises(SupportUnavailable):
        P.support_value(np.array([-1.0, 0.0]))


def test_support_value_polyhedron_attained_at_support_point(rng):
    for _ in range(10):
        P = random_set("polyhedron", rng, dim=2)
        f = rng.standard_normal(2)
        try:
            val = P.support_value(f)
        except SupportUnavailable:
            continue
        pt = P.support_point(f)
        assert float(f @ pt) == pytest.approx(val, rel=1e-9, abs=1e-9)
        assert P.membership(pt, 1e-7)


def _box_bounded_polytope(rng, d, scale):
    """A few random constraints and the box around a random center, all scaled."""
    A = np.vstack([rng.standard_normal((int(rng.integers(1, 5)), d)), np.eye(d), -np.eye(d)])
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    center = rng.standard_normal(d)
    b = A @ center + rng.uniform(0.3, 2.0, len(A))
    return Polyhedron(A, b * scale, witness=center * scale)


def _count_projections(monkeypatch):
    """The list that every later ``Polyhedron._project`` call appends its point to."""
    calls = []
    project = Polyhedron._project
    monkeypatch.setattr(Polyhedron, "_project", lambda S, x: calls.append(x) or project(S, x))
    return calls


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_polyhedron_support_point_attains_support_value_in_one_proximal_run(d, monkeypatch):
    """support_value is <f, support_point(f)>: it takes exactly the projections of one
    support_point, and no more than the step cap allows (two per step)."""
    calls = _count_projections(monkeypatch)
    rng = np.random.default_rng(d)
    bounded = 0
    for i in range(40):  # random polyhedra, unbounded in many directions, and boxed ones
        P = random_set("polyhedron", rng, dim=d) if i % 2 else _box_bounded_polytope(rng, d, 1.0)
        f = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        calls.clear()
        try:
            val = P.support_value(f)
        except SupportUnavailable:
            continue
        per_value = len(calls)
        calls.clear()
        pt = P.support_point(f)
        assert len(calls) == per_value <= 2 * sets_module._SUPPORT_STEPS
        assert abs(float(f @ pt) - val) <= 1e-12 * abs(val)
        bounded += 1
    assert bounded >= 10


def test_polyhedron_support_matches_rescaled_linprog(monkeypatch):
    """1080 seeded box-bounded polytopes in d = 1..6 at scales 1e-8, 1 and 1e8: every
    support value is answered within 1e-9 ||f|| max(1, ||x*||) of linprog's, in a
    handful of projections (the vertex enumeration this replaced stopped at d = 3)."""
    calls = _count_projections(monkeypatch)
    rng = np.random.default_rng(22)
    counts = []
    for d in range(1, 7):
        for scale in (1e-8, 1.0, 1e8):
            for _ in range(60):
                P = _box_bounded_polytope(rng, d, scale)
                f = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
                value, x_star = lp_support(P, f)
                calls.clear()
                got = P.support_value(f)
                counts.append(len(calls))
                bound = 1e-9 * np.linalg.norm(f) * max(1.0, np.linalg.norm(x_star))
                assert abs(got - value) <= bound, (d, scale, P.to_dict(), f, got, value)
    assert len(counts) == 1080 and np.median(counts) <= 8 and max(counts) <= 40


def test_polyhedron_support_dual_certificate_holds():
    """The multipliers support_point stops on are a dual certificate in the stored
    normals: mu >= 0, ||A^T mu - f|| <= 1e-9 ||f||, b.mu within 1e-9 ||f|| max(1, ||y||)
    of <f, y> at the feasible y returned, so that no point of the set, sampled by
    projecting far points, beats b.mu by more than weak duality allows."""
    rng = np.random.default_rng(5)
    for d in range(1, 7):
        for scale in (1e-8, 1.0, 1e8):
            for _ in range(10):
                P = _box_bounded_polytope(rng, d, scale)
                f = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
                y, mu = P._support(f)
                nf, ny = np.linalg.norm(f), np.linalg.norm(y)
                residual = np.linalg.norm(P.normals.T @ mu - f)
                assert mu.shape == P.b.shape and np.all(mu >= 0.0)
                assert residual <= 1e-9 * nf
                assert abs(P.b @ mu - f @ y) <= 1e-9 * nf * max(1.0, ny)
                assert P.distance(y) <= 1e-9 * max(1.0, ny)
                Z = P.project_many(P.witness + rng.standard_normal((50, d)) * 10.0 * scale)
                assert np.all(Z @ f <= P.b @ mu + residual * np.linalg.norm(Z, axis=1)
                              + 1e-12 * nf * max(1.0, ny))


def test_polyhedron_support_without_a_vertex_and_in_higher_dimensions():
    """A strip has no vertex and a 6-D box is beyond enumeration by d-subsets of
    rows: both have support points, and a zero f is attained at the witness."""
    strip = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]),
                       witness=np.zeros(2))
    pt = strip.support_point(np.array([2.0, 0.0]))
    assert pt[0] == 1.0 and strip.support_value(np.array([2.0, 0.0])) == 2.0
    with pytest.raises(SupportUnavailable, match="unbounded"):
        strip.support_value(np.array([1.0, 1.0]))
    box = Polyhedron(np.vstack([np.eye(6), -np.eye(6)]), np.ones(12), witness=np.zeros(6))
    f = np.arange(1.0, 7.0) * np.array([1, -1, 1, -1, 1, -1])
    assert box.support_point(f).tolist() == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    assert box.support_value(f) == 21.0
    assert box.support_point(np.zeros(6)).tolist() == [0.0] * 6


def _thin_cone_draws(delta, n=400, seed=3):
    """Polyhedra in R^3 whose 3 to 6 normals lie within delta of one direction u
    (u + delta v, v uniform in the unit disc orthogonal to u), with a direction f
    that is a positive combination of them, so that sup <f, .> is finite."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        m = int(rng.integers(3, 7))
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        e1, e2 = np.linalg.svd(u[None])[2][1:]
        r, phi = np.sqrt(rng.uniform(0.0, 1.0, m)), rng.uniform(0.0, 2.0 * np.pi, m)
        A = u + delta * ((r * np.cos(phi))[:, None] * e1 + (r * np.sin(phi))[:, None] * e2)
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        center = rng.standard_normal(3)
        yield (Polyhedron(A, A @ center + rng.uniform(0.3, 2.0, m), witness=center),
               A.T @ rng.uniform(0.1, 1.0, m))


@pytest.mark.parametrize("delta", [1e-4, 1e-5, 1e-6, 1e-7])
def test_polyhedron_support_on_thin_cones_of_normals(delta):
    """Thin cones of normals: at delta = 1e-4 every direction linprog calls bounded
    gets a value; at 1e-4 and 1e-5 every value given is within 1e-9 ||f|| max(1,
    ||x*||) of linprog's; and no more directions are called unbounded against
    linprog than by the Farkas test alone, which the vertex enumeration ran first."""
    answered = bounded = false_unbounded = farkas_false = 0
    for P, f in _thin_cone_draws(delta):
        reference = lp_support(P, f)
        bounded += reference is not None
        if reference is not None:
            farkas_false += _polyhedron_unbounded_in(P, f)
        try:
            got = P.support_value(f)
        except SupportUnavailable as exc:
            false_unbounded += reference is not None and "unbounded" in str(exc)
            continue
        answered += 1
        if reference is not None and delta >= 1e-5:
            value, x_star = reference
            bound = 1e-9 * np.linalg.norm(f) * max(1.0, np.linalg.norm(x_star))
            assert abs(got - value) <= bound, (P.to_dict(), f, got, value)
    assert false_unbounded <= farkas_false
    if delta == 1e-4:
        assert answered == bounded == 400


def test_slice_sample_whole_ball():
    B = Ball(np.array([0.0, 1.0]), 1.0)
    pts = slice_sample(B, np.array([0.0, 1.0]), alpha=2.0, n_samples=600, rng_seed=0)
    diffs = pts[:, None, :] - pts[None, :, :]
    diam = np.sqrt(np.max(np.sum(diffs ** 2, axis=-1)))
    assert diam == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("alpha", [0.3, 0.1, 0.03])
def test_slice_sample_ball_cap_diameter_shrinks(alpha):
    B = Ball(np.array([0.0, 1.0]), 1.0)
    pts = slice_sample(B, np.array([0.0, 1.0]), alpha=alpha, n_samples=400, rng_seed=1)
    f_vals = pts @ np.array([0.0, 1.0])
    assert np.all(f_vals >= 2.0 - alpha - 1e-9)
    diffs = pts[:, None, :] - pts[None, :, :]
    diam = np.sqrt(np.max(np.sum(diffs ** 2, axis=-1)))
    assert diam <= disc_slice_diameter(alpha) + 1e-9


def test_slice_sample_polygon_band():
    A = Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)])
    pts = slice_sample(A, np.array([0.0, 1.0]), alpha=0.5, n_samples=300, rng_seed=2)
    assert np.all(pts[:, 1] >= 0.5 - 1e-9)


def test_slice_sample_contains_support_face_point():
    B = Ball(np.array([2.0, 0.0]), 1.0)
    f = np.array([1.0, 0.0])
    pts = slice_sample(B, f, alpha=0.05, n_samples=50, rng_seed=3)
    assert np.max(pts @ f) >= B.support_value(f) - 1e-9


# ---------------------------------------------------------------------------
# projection contract properties across kinds


def _sample_interior(S, rng, k):
    return [S.project(rng.standard_normal(S.dim) * s) for s in rng.uniform(0.2, 3.0, k)]


@pytest.mark.parametrize("kind", PROJECTABLE_KINDS)
def test_projection_contract_per_kind(kind, rng):
    for _ in range(12):
        S = random_set(kind, rng)
        x = rng.standard_normal(S.dim) * 2.5
        z = rng.standard_normal(S.dim) * 2.5
        px, pz = S.project(x), S.project(z)
        # membership of the projection
        assert S.membership(px, 1e-9)
        # nonexpansiveness
        assert np.linalg.norm(px - pz) <= np.linalg.norm(x - z) + 1e-9
        # idempotence
        assert np.linalg.norm(S.project(px) - px) <= 1e-10
        # variational inequality against sampled members
        for y in _sample_interior(S, rng, 12):
            assert float((x - px) @ (y - px)) <= 1e-8
        # cosine form for exterior points
        if np.linalg.norm(x - px) > 1e-8:
            for y in _sample_interior(S, rng, 6):
                if np.linalg.norm(y - px) < 1e-10 or np.linalg.norm(x - y) < 1e-12:
                    continue
                cosv = float((px - y) @ (x - y)) / (np.linalg.norm(px - y)
                                                    * np.linalg.norm(x - y))
                assert np.linalg.norm(y - px) <= np.linalg.norm(x - y) * cosv + 1e-8


coords = st.floats(min_value=-50, max_value=50, allow_nan=False)


@given(arrays(np.float64, 3, elements=coords), arrays(np.float64, 3, elements=coords),
       arrays(np.float64, 3, elements=coords), st.floats(-5, 5))
def test_halfspace_projection_properties(x, z, a, b):
    if np.linalg.norm(a) < 1e-6:
        return
    H = Halfspace(a, b)
    px, pz = H.project(x), H.project(z)
    assert H.distance(px) <= 1e-9
    assert np.linalg.norm(px - pz) <= np.linalg.norm(x - z) + 1e-9
    assert np.linalg.norm(H.project(px) - px) <= 1e-10


@given(arrays(np.float64, 2, elements=coords), arrays(np.float64, 2, elements=coords),
       st.floats(0.1, 10))
def test_ball_projection_properties(x, c, r):
    B = Ball(c, r)
    px = B.project(x)
    assert B.distance(px) <= 1e-9
    assert np.linalg.norm(B.project(px) - px) <= 1e-10
    # exterior points land exactly on the sphere
    if np.linalg.norm(x - c) > r:
        assert np.linalg.norm(px - c) == pytest.approx(r, rel=1e-12)


def test_ball_projection_norm_bit_equal_to_linalg_norm():
    """Ball.project takes ||x - c|| as sqrt(d.d): it gives the bits of the form with
    np.linalg.norm inside, on and outside the sphere, at signed zeros, and at scales
    1e-150 and 1e150, whose squares come near under- and overflow."""
    rng = np.random.default_rng(2020)

    def with_linalg_norm(B, x):
        d = x - B.center
        n = float(np.linalg.norm(d))
        return x.copy() if n <= B.radius else B.center + (B.radius / n) * d

    for dim in range(1, 7):
        for scale in (1e-150, 1.0, 1e150):
            for _ in range(10):
                B, points = _distance_cases(Ball, dim, scale, rng)
                zeros = rng.choice([0.0, -0.0], (2, dim))
                origin = Ball(zeros[0], B.radius)
                for S, x in [*((B, x) for x in (*points, *zeros)),
                             *((origin, x) for x in (zeros[1], *points))]:
                    assert S.project(x).tobytes() == with_linalg_norm(S, x).tobytes(), (S, x)


def test_subspace_residual_orthogonality(rng):
    for _ in range(20):
        S = random_set("ortho_subspace", rng)
        x = rng.standard_normal(S.dim) * 3
        r = x - S.project(x)
        for row in S.basis:
            assert abs(float(r @ row)) <= 1e-9


# ---------------------------------------------------------------------------
# constructors and serialization


def test_polygon_constructor_reorders_and_dedupes():
    # shuffled square with duplicates collapses to the CCW hull
    P = Polygon2D([(1, 0), (1, 1), (-1, 0), (-1, 1), (1, 1), (0.0, 0.5)])
    assert len(P.vertices) == 4
    v = P.vertices
    m = len(v)
    for i in range(m):
        p, q, r = v[i], v[(i + 1) % m], v[(i + 2) % m]
        cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        assert cross > 0  # strictly convex, CCW


def test_degenerate_halfspace_rejected():
    with pytest.raises(ValueError):
        Halfspace(np.array([0.0, 0.0]), 1.0)


def test_orthonormality_enforced():
    with pytest.raises(ValueError):
        OrthoSubspace(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        OrthoSubspace(np.array([[1.0, 1.0]]))


def test_polyhedron_requires_feasible_witness():
    with pytest.raises(ValueError):
        Polyhedron(np.array([[1.0, 0.0]]), np.array([0.0]), witness=np.array([1.0, 0.0]))


@pytest.mark.parametrize("d", [2.7, 2.0, True, "2", 0])
def test_orthant_dimension_must_be_a_positive_integer(d):
    with pytest.raises(ValueError, match="'d'"):
        NonnegOrthant(d)


def test_ball_radius_positive():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)


@pytest.mark.parametrize("build", [
    lambda: Halfspace(np.array([0.0, 1.0]), np.nan),
    lambda: Halfspace(np.array([0.0, 1.0]), np.inf),
    lambda: Hyperplane(np.array([1.0, 1.0]), -np.inf),
    lambda: Polyhedron(np.array([[1.0, 0.0]]), np.array([np.nan]), witness=np.zeros(2)),
    lambda: Polyhedron(np.array([[np.inf, 0.0]]), np.array([1.0]), witness=np.zeros(2)),
    lambda: AffineSubspace(np.zeros(2), np.array([[np.nan, 1.0]])),
    lambda: Ball(np.zeros(2), np.inf),
    lambda: ConeSpec(np.array([0.0, 1.0]), 0.5, shift=np.inf),
], ids=["halfspace-nan-b", "halfspace-inf-b", "hyperplane-inf-b", "polyhedron-nan-b",
        "polyhedron-inf-normals", "affine-nan-basis", "ball-inf-radius", "cone-inf-shift"])
def test_non_finite_input_rejected_at_construction(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_descriptor_rejects_unknown_and_names_missing_fields():
    with pytest.raises(ValueError, match=r"unknown field\(s\) \['bogus'\]"):
        set_from_dict({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0, "bogus": 3})
    with pytest.raises(ValueError, match=r"missing field\(s\) \['radius'\]"):
        set_from_dict({"kind": "ball", "center": [0.0, 0.0]})
    with pytest.raises(ValueError, match="unknown set kind tag"):
        set_from_dict({"kind": "torus"})


def test_json_round_trip_all_kinds(rng):
    for S in [random_set(kind, rng) for kind in PROJECTABLE_KINDS]:
        doc = json.loads(json.dumps(set_to_dict(S)))
        T = set_from_dict(doc)
        assert type(T) is type(S)
        for key, val in set_to_dict(S).items():
            val2 = set_to_dict(T)[key]
            if isinstance(val, list):
                np.testing.assert_array_equal(np.asarray(val, dtype=float),
                                              np.asarray(val2, dtype=float))
            else:
                assert val == val2


def test_translate_consistency(rng):
    for kind in PROJECTABLE_KINDS:
        S = random_set(kind, rng)
        v = rng.standard_normal(S.dim)
        T = S.translate(v)
        for _ in range(8):
            x = S.project(rng.standard_normal(S.dim) * 2)
            assert T.membership(x + v, 1e-8)


def test_sample_points_land_in_set(rng):
    for kind in PROJECTABLE_KINDS:
        S = random_set(kind, rng)
        for p in S.project_many(rng.standard_normal((16, S.dim))):
            assert S.membership(p, 1e-8)


# ---------------------------------------------------------------------------
# batched projections


def _batch_points(S, rng):
    """Points inside, on and far outside S: projections, vertices, Gaussians."""
    d = S.dim
    X = [rng.standard_normal(d) * s for s in (0.01, 0.5, 1.0, 3.0, 1e3, 1e6) for _ in range(20)]
    X += [S.project(x) for x in X[:60]] + [np.zeros(d)]
    if isinstance(S, Polygon2D):
        X += list(S.vertices) + [0.5 * (S.vertices[0] + S.vertices[-1])]
    return np.array(X)


_BATCH_SETS = [("polygon2d-1", lambda rng: Polygon2D([[0.5, -1.0]])),
               ("polygon2d-2", lambda rng: Polygon2D([[0.5, -1.0], [-1.0, 2.0]])),
               ("polygon2d-2-axis", lambda rng: Polygon2D([[0.0, 0.0], [0.0, 1.0]]))] + [
    (kind, lambda rng, kind=kind: random_set(kind, rng)) for kind in PROJECTABLE_KINDS]


@pytest.mark.parametrize("make", [m for _, m in _BATCH_SETS], ids=[n for n, _ in _BATCH_SETS])
def test_batched_projection_bit_equal_to_scalar(make, rng):
    for _ in range(4):
        S = make(rng)
        X = _batch_points(S, rng)
        P, D = S.project_many(X), S.distance_many(X)
        assert P.shape == X.shape and D.shape == (len(X),)
        assert np.array_equal(P, np.array([S.project(x) for x in X]))
        assert np.array_equal(D, np.array([S.distance(x) for x in X]))
        assert S.project_many(X[:0]).shape == (0, S.dim)


def _oracle_polygons(rng):
    """Seeded polygons of 1-9 input vertices at several scales (points and
    segments included), and the shipped squares of the oscillation example."""
    yield Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)])
    yield Polygon2D([(1, -1), (-1, -1), (1, -0.25), (-1, 0)])
    yield Polygon2D([(0.0, 0.0), (0.0, 1.0)])
    for m in range(1, 10):
        for _ in range(5):
            V = rng.standard_normal((m, 2)) * 10.0 ** rng.uniform(-2, 3) + rng.standard_normal(2)
            yield Polygon2D(V)


def test_polygon_kernel_bit_equal_to_edge_loops(rng):
    """project and project_many give what the per-edge loop of tests/_oracles.py
    gives, bit for bit, on points from 1e-2 to 1e6 and on each polygon's
    vertices and edge midpoints, also as a Fortran-ordered batch and as
    strided rows (the kernel views each row as one complex number)."""
    counts = set()
    for P in _oracle_polygons(rng):
        v = P.vertices
        counts.add(len(v))
        X = [rng.standard_normal(2) * s for s in (1e-2, 1e-1, 1.0, 1e2, 1e4, 1e6) for _ in range(8)]
        X += list(v) + [0.5 * (v[i] + v[(i + 1) % len(v)]) for i in range(len(v))]
        X = np.array(X + [np.zeros(2), -np.zeros(2)])
        want = np.array([polygon_project_loop(P, x) for x in X])
        assert np.array([P.project(x) for x in X]).tobytes() == want.tobytes()
        assert P.project_many(X).tobytes() == want.tobytes()
        assert P.project_many(np.asfortranarray(X)).tobytes() == want.tobytes()
        assert np.array([P.project(x) for x in np.repeat(X, 2, axis=1)[:, ::2]]).tobytes() \
            == want.tobytes()
    assert {1, 2, 3} <= counts and max(counts) >= 7


def _hull_clouds(rng):
    """Point clouds at scales from 1e-12 to 1e12: plain draws, draws with copies that
    round together, collinear points, one or two distinct points, and 0/1 grids with signed
    zeros, of more than 16 rows too, where np.unique's quicksort chooses the copy it keeps."""
    for scale in 10.0 ** np.arange(-12, 13, 2):
        for m in (1, 2, 3, 5, 9, 24):
            pts = rng.standard_normal((m, 2)) * scale
            yield pts
            twins = pts + rng.uniform(-1.0, 1.0, pts.shape) * 1e-17 * scale
            yield np.concatenate((pts, twins))[rng.permutation(2 * m)]
            yield rng.standard_normal(2) * scale + rng.standard_normal(m)[:, None] * pts[0]
            yield np.repeat(pts[:1], m, axis=0)
            yield pts[rng.integers(0, min(m, 2), 3 * m)]
    for m in (3, 10, 17, 30, 64, 100):
        grid = rng.integers(0, 2, (m, 2)).astype(float)
        grid[(grid == 0.0) & (rng.random((m, 2)) < 0.5)] = -0.0
        yield grid


def test_hull_and_clip_bit_equal_to_np_unique_references(rng):
    """The hull and the slice clip deduplicate rounded vertices by a record sort, not by
    np.unique (which imports numpy.ma): both give the np.unique references' arrays bit
    for bit, signed zeros included, for the clip at levels through vertices and between."""
    axes = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0]])
    for pts in _hull_clouds(rng):
        want = convex_hull_unique(pts)
        got = sets_module._convex_hull_ccw(pts)
        assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), pts
        for f in np.concatenate((axes, rng.standard_normal((2, 2)))):
            vals = want @ f
            for level in (vals.max(), vals.min(), rng.uniform(vals.min(), vals.max()), 0.0):
                clip = sets_module._clip_polygon_halfplane(want, f, level)
                ref = clip_polygon_unique(want, f, level)
                assert (clip.shape, clip.tobytes()) == (ref.shape, ref.tobytes()), (pts, f)


@pytest.mark.xfail(strict=True, reason="the slice clip rounds its vertices to 12 absolute "
                   "decimals (ROADMAP item 3 mends it)")
def test_tiny_polygon_slice_keeps_its_diameter():
    """The slice of the triangle (0, 0), (1e-13, 0), (0, 1e-13) along f = (0, -1) at
    alpha = 5e-14 has diameter |(1e-13, -5e-14)| = 1.118e-13; rounded to 12 decimals its
    vertices collapse to the origin and the exact diameter reads 0.0."""
    P = Polygon2D([(0.0, 0.0), (1e-13, 0.0), (0.0, 1e-13)])
    probe = strongly_exposes_probe(P, [0.0, -1.0], [5e-14], n_samples=10)
    assert probe.slice_diams[0] == pytest.approx(math.hypot(1e-13, 5e-14), rel=1e-9, abs=0.0)


def test_batched_projection_rejects_bad_arrays():
    S = Ball(np.zeros(2), 1.0)
    for X in (np.zeros(2), np.zeros((3, 3)), np.array([[0.0, np.nan]])):
        with pytest.raises(ValueError):
            S.project_many(X)


def test_exposure_probe_on_thin_cones_reports_no_unchecked_inf():
    """The slices of the delta = 1e-6 thin cones are bounded: f is a positive
    combination of normals that span R^3.  Their support runs often end
    uncertified, and the Farkas test may then call a slice unbounded; the probe
    reports an infinite diameter only with a recession direction it checked, so
    here never, and the upper end of an uncertified bracket is inf."""
    probed = uncertified = 0
    for P, f in _thin_cone_draws(1e-6):
        try:
            probe = strongly_exposes_probe(P, f, [0.1], n_samples=10)
        except ValueError:  # no certified support point, or the frame test fails
            continue
        probed += 1
        assert probe.recession is None and probe.slice_diams[0] < np.inf
        uncertified += probe.slice_diams_upper[0] == np.inf
    assert probed > 200 and uncertified > 100


def _assert_slice_sample(S, f, alpha, n, seed):
    """slice_sample's (n, dim) points for seed: the same bytes when drawn again, those of
    the one-draw-at-a-time loop of tests/_oracles.py, each in S and within alpha of the
    support value, the support point first; returned."""
    got = slice_sample(S, f, alpha, n, seed)
    assert got.shape == (n, S.dim)
    assert got.tobytes() == slice_sample(S, f, alpha, n, seed).tobytes()
    assert np.array_equal(got, slice_reference(S, f, alpha, n, seed))
    assert np.array_equal(got[0], S.support_point(f))
    assert np.all(S.distance_many(got) <= 1e-9)
    assert np.all(got @ f >= S.support_value(f) - alpha - 1e-9)
    return got


def test_slice_sample_fallback_cycles_through_a_short_draw():
    """The slice x >= 5.5 of this box lies 2.7 draw scales out along f: the 1600
    draws of the budget hit it only a few times, so the support point and those
    hits are repeated.  A disc and a square as far out cycle the same way."""
    box = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                     np.array([6.0, -5.0, 1.0, 1.0]), witness=np.array([5.5, 0.0]))
    square = Polygon2D([(5.0, -1.0), (6.0, -1.0), (6.0, 1.0), (5.0, 1.0)])
    f, alpha, n, seed = np.array([0.01, 0.0]), 0.005, 8, 0
    for S in (box, Ball([5.5, 0.0], 0.5), square):
        pts = _assert_slice_sample(S, f, alpha, n, seed)
        assert 2 <= len(np.unique(pts, axis=0)) < n, S


@pytest.mark.parametrize("d", [2, 3, 5])
def test_ball_slice_distributed_as_one_point_loop(d):
    """A ball's slice is sampled by the rejection every kind takes, a round of draws
    at a time: its points are the one-draw loop's bit for bit, for thin caps, half
    balls and the whole ball (alpha >= 2r), with the support point first."""
    rng, n = np.random.default_rng(d), 40
    for i in range(4):
        B = Ball(rng.standard_normal(d) * 3.0, float(rng.uniform(0.2, 3.0)))
        f = rng.standard_normal(d) * float(rng.uniform(0.5, 2.0))
        depth = B.radius * float(np.linalg.norm(f))
        for j, alpha in enumerate((1e-2 * depth, 0.3 * depth, depth, 2.5 * depth)):
            _assert_slice_sample(B, f, alpha, n, 4 * i + j)


_SLICE_POLYGONS = [
    # (polygon, f, alpha, clipped vertex count)
    (Polygon2D([(0.5, -1.0)]), (0.3, 1.0), 0.1, 1),                      # a point
    (Polygon2D([(0, 1), (-1, 0), (1, 0)]), (0.0, 1.0), 1e-14, 1),        # the apex
    (Polygon2D([(-1, 0), (1, 0)]), (0.0, 1.0), 0.5, 2),                  # a segment
    (Polygon2D([(-1, 0), (2, 1)]), (1.0, 0.0), 1.0, 2),                  # half of one
    (Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)]), (0.0, 1.0), 1e-14, 2),  # top edge
    (Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)]), (0.0, 1.0), 0.5, 4),
    (Polygon2D([(1, 1), (-1, 1), (-1, -1), (1, -1)]), (1.0, 1.0), 0.7, 3),
    (Polygon2D([(np.cos(t), np.sin(t)) for t in np.linspace(0, 6, 7)]), (0.2, -1.0), 1.5, 7),
]


@pytest.mark.parametrize("P, f, alpha, m", _SLICE_POLYGONS)
def test_polygon_slice_distributed_as_one_point_loop(P, f, alpha, m):
    """A polygon's slice is sampled by the same rejection: its points are the one-draw
    loop's bit for bit, the support vertex first, for slices whose clipped polygon,
    which gives the exposure probe its exact diameter, has 1, 2 and more vertices."""
    f = np.array(f, dtype=float)
    _assert_slice_sample(P, f, alpha, 40, 0)
    clipped = sets_module._clip_polygon_halfplane(P.vertices, f, P.support_value(f) - alpha)
    assert len(clipped) == m


_ONE_DIM_BALL = """
import sys
import numpy as np
from altproj.cli import main
from altproj.sets import Ball, slice_sample

pts = slice_sample(Ball([0.0], 1.0), [1.0], 0.5, 5, 0)
assert pts.shape == (5, 1) and pts[0, 0] == 1.0, pts
assert np.all((pts >= 0.5) & (pts <= 1.0)), pts
pts = slice_sample(Ball([2.0], 1.0), [-3.0], 10.0, 50, 1)   # the whole segment
assert pts[0, 0] == 1.0 and np.all((pts >= 1.0) & (pts <= 3.0)), pts
sys.exit(main(["probe", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"]))
"""


def test_one_dimensional_ball_slice_finishes(tmp_path):
    """In one dimension the cap has no tangent direction; the slice is a
    segment, sampled directly, and the exposure probe on it finishes (both
    looped forever before).  A subprocess keeps a regression from hanging
    the suite."""
    cfg = tmp_path / "ball1d.json"
    cfg.write_text(json.dumps({
        "kind": "probe", "seed": 3,
        "params": {"probe": "exposure", "set": {"kind": "ball", "center": [0.0], "radius": 1.0},
                   "f": [1.0], "alphas": [0.2, 0.1], "n_samples": 50}}))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", _ONE_DIM_BALL, str(cfg), str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert len(report["result"]["slice_diams"]) == 2


@pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324])
def test_normals_of_extreme_size_are_scaled_exactly(scale):
    """A normal whose squares over- or underflow is scaled through its largest
    entry: the stored set is the one of the normal (1, 0)."""
    H = Halfspace([scale, 0.0], scale * 2.0)
    assert np.array_equal(H.a, [1.0, 0.0]) and H.b == (scale * 2.0) / scale == 2.0
    assert np.array_equal(H.project(np.array([5.0, 5.0])), [2.0, 5.0])
    assert np.array_equal(Hyperplane([0.0, -scale], 0.0).a, [0.0, -1.0])
    P = Polyhedron([[scale, 0.0], [1.0, 1.0]], [scale * 2.0, 4.0], witness=[0.0, 0.0])
    plain = np.array([[1.0, 1.0]]) / np.linalg.norm(np.array([[1.0, 1.0]]), axis=1)[:, None]
    assert np.array_equal(P.normals, np.vstack([[1.0, 0.0], plain]))
    assert P.b[0] == 2.0
    assert np.array_equal(P.project(np.array([5.0, 0.0])), [2.0, 0.0])


def test_extreme_normals_keep_the_zero_checks():
    with pytest.raises(ValueError, match="a must be nonzero"):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="zero constraint normal"):
        Polyhedron([[1e200, 0.0], [0.0, 0.0]], [1.0, 1.0], witness=[0.0, 0.0])
    # the offset scaled by a tiny normal leaves the float range
    with pytest.raises(ValueError, match="b must be finite"):
        Halfspace([1e-200, 0.0], 1e200)
    # normals in [1e-150, 1e150] keep the bits of the plain division
    for a in ([3e-150, 4e-150], [3e149, 4e149], [0.1, 0.7, -2.0]):
        a = np.array(a)
        assert np.array_equal(Halfspace(a, 1.0).a, a / float(np.linalg.norm(a)))
        assert Halfspace(a, 1.0).b == 1.0 / float(np.linalg.norm(a))


def test_huge_normals_build_without_a_warning():
    """The plain norm of a normal above about 1e154 overflows before the
    rescale; numpy's overflow warning for it is not shown."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = Halfspace([1e200, 1e200], 1e200)
        L = Hyperplane([1e200, -1e200], 0.0)
        P = Polyhedron([[1e200, 1e200], [-1.0, 0.0]], [1e200, 0.0], witness=[0.0, 0.0])
    assert np.array_equal(L.a, [H.a[0], -H.a[1]]) and H.a[0] == H.a[1] == P.normals[0, 0]
    assert H.b == P.b[0] == H.a[0]


def test_polyhedron_rows_are_scaled_as_halfspaces_are(rng):
    """One rescaling rule: each stored row of a polyhedron, and its offset, are
    bit-equal to the unit normal and offset of the halfspace of that row, at
    scales from 1e-300 to 1e300."""
    for _ in range(300):
        d = int(rng.integers(1, 7))
        scale = 10.0 ** rng.integers(-300, 301, 5)
        A = rng.standard_normal((5, d)) * scale[:, None]
        b = np.abs(rng.standard_normal(5)) * scale * 10.0 ** rng.integers(-3, 4, 5)
        P = Polyhedron(A, b, witness=np.zeros(d))
        for a_i, b_i, row, offset in zip(A, b, P.normals, P.b):
            H = Halfspace(a_i, b_i)
            assert H.a.tobytes() == row.tobytes() and H.b == offset, (a_i, b_i)


@pytest.mark.parametrize("build, message", [
    (lambda: Halfspace([1e-200, 0.0], 1e300), "b must be finite"),
    (lambda: Hyperplane([0.0, -1e-200], 1e300), "b must be finite"),
    (lambda: Polyhedron([[1e-200, 0.0], [0.0, 1.0]], [1e300, 1.0], witness=[0.0, 0.0]),
     "b must be finite"),
    (lambda: Halfspace([0.0, 0.0], 1.0), "a must be nonzero"),
    (lambda: Hyperplane([0.0], 0.0), "a must be nonzero"),
    (lambda: Polyhedron([[1e200, 0.0], [0.0, 0.0]], [1.0, 1.0], witness=[0.0, 0.0]),
     "zero constraint normal"),
], ids=["halfspace_offset", "hyperplane_offset", "polyhedron_offset", "halfspace_zero",
        "hyperplane_zero", "polyhedron_zero"])
def test_extreme_normals_fail_with_their_message_and_no_warning(build, message):
    """An offset that rescaling carries out of the float range, and a zero normal,
    raise the kind's usual message; numpy warns of no overflow first."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=message):
            build()


def test_graph_whose_one_plus_theta_squared_overflows_is_refused_when_built():
    """Above |theta_i| of about 1.34e154, 1 + theta_i^2 is inf and the closed form
    would return x = 0: such a graph is refused when built, naming theta, without
    a warning, whether built directly or from its descriptor."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for theta in ([1e200], [0.5, -1e155], [1e308]):
            with pytest.raises(ValueError, match="1 \\+ theta\\^2 overflows"):
                DiagonalAffineGraph(theta, np.zeros(len(theta)))
            with pytest.raises(ValueError, match="theta"):
                set_from_dict({"kind": "diagonal_affine_graph", "theta": theta,
                               "offset": [0.0] * len(theta)})
    # just below the bound the closed form is exact
    g = DiagonalAffineGraph([1e154], [0.0])
    np.testing.assert_allclose(g.project([0.0, 5.0]), [5e-154, 5.0], rtol=1e-15)


def _distance_cases(kind, d, scale, rng):
    """A set of ``kind`` in R^d at ``scale`` and points inside, outside and
    on its boundary."""
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    t = scale * rng.uniform(0.1, 2.0, 4)
    if kind is NonnegOrthant:
        y = scale * rng.uniform(0.1, 2.0, d)
        on = y.copy()
        on[rng.integers(d)] = 0.0
        out = y.copy()
        out[: (d + 1) // 2] *= -1.0
        return NonnegOrthant(d), [y, on, out, -y]
    if kind is Ball:
        B = Ball(scale * rng.standard_normal(d), scale * rng.uniform(0.5, 2.0))
        return B, [B.center, B.center + 0.5 * B.radius * u, B.center + B.radius * u,
                   B.center + (B.radius + t[0]) * u, B.center - (B.radius + t[1]) * u]
    S = kind(rng.standard_normal(d), scale * rng.standard_normal())
    base = scale * rng.standard_normal(d)
    on = base - (float(np.dot(S.a, base)) - S.b) * S.a
    return S, [on, on + t[0] * S.a, on - t[1] * S.a, on + t[2] * S.a + t[3] * u]


@pytest.mark.parametrize("kind", list(DISTANCE_CLOSED_FORMS), ids=lambda k: k.kind)
def test_distance_matches_the_scalar_closed_forms(kind):
    """``distance`` comes from ``distance_many``; for the kinds that had a
    scalar closed form it gives that form's bits."""
    rng = np.random.default_rng(2)
    for d in range(1, 7):
        for scale in (1e-8, 1.0, 1e8):
            for _ in range(20):
                S, points = _distance_cases(kind, d, scale, rng)
                for x in points:
                    assert S.distance(x).hex() == DISTANCE_CLOSED_FORMS[kind](S, x).hex(), (S, x)


# ---------------------------------------------------------------------------
# OrthoSubspace on a coordinate basis: a coordinate copy with the matmul's bits


_EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                         1e300, -1e300, 1.5, -2.75])


def _coordinate_bases(rng):
    """(d, basis) pairs of distinct unit rows e_i: contiguous, gapped and permuted
    selectors, with zeros stored as 0.0 or as -0.0."""
    for d in range(1, 17):
        for k in sorted({1, (d + 1) // 2, d}):
            starts = range(d - k + 1)
            gapped = [np.arange(0, 2 * k, 2)] if 2 * k - 1 <= d else []
            for cols in ([np.arange(s, s + k) for s in starts] + gapped
                         + [np.sort(rng.choice(d, k, replace=False)),
                            rng.choice(d, k, replace=False)]):
                for zero in (0.0, -0.0):
                    basis = np.full((k, d), zero)
                    basis[np.arange(k), cols] = 1.0
                    yield d, basis


def _points(d, rng):
    """Rows of edge values (signed zeros, subnormals, +-1e300), all-negative rows
    among them, and plain normal draws."""
    return np.vstack([rng.choice(_EDGE_VALUES, (12, d)), rng.standard_normal((4, d)),
                      -np.abs(rng.choice(_EDGE_VALUES, (4, d)))])


def _pair_step_of(basis):
    """What ``pair_step`` returns for the subspace of ``basis`` against a graph of
    half dimension len(basis), from the start 0 (its second factor +0.0)."""
    k = len(basis)
    G = DiagonalAffineGraph(np.full(k, 0.5), np.ones(k))
    return G.pair_step(OrthoSubspace(basis), np.zeros(2 * k))


def test_coordinate_basis_projection_bit_equal_to_matmul():
    """A basis of distinct unit rows e_i projects with the bits of basis.T @ (basis @ x)
    and of project_many's rows, zeros' signs too.  pair_step fuses only the first
    factor X (+) {0}, np.eye(d, 2d) by value, and declines gapped and permuted rows."""
    rng = np.random.default_rng(2014)
    cases, fused = 0, []
    for d, basis in _coordinate_bases(rng):
        S = OrthoSubspace(basis)
        first = d == 2 * len(basis) and (np.argmax(basis, 1) == np.arange(len(basis))).all()
        fused.append(first)
        assert (_pair_step_of(basis) is not None) == first, basis
        X = _points(d, rng)
        many = S.project_many(X)
        for x, row in zip(X, many):
            got = S.project(x)
            assert got.tobytes() == (S.basis.T @ (S.basis @ x)).tobytes(), (basis, x)
            assert got.tobytes() == row.tobytes(), (basis, x)
            cases += 1
    assert cases > 10000 and 10 < sum(fused) < len(fused) - 10


@pytest.mark.parametrize("basis", [
    -np.eye(3)[[1]],
    np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
    np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[0.0, 1.0, 0.0], [0.8, 0.0, -0.6]]),
    np.linalg.qr(np.random.default_rng(3).standard_normal((3, 2)))[0].T,
], ids=["minus_e", "e_and_minus_e", "rotated_and_e", "e_and_rotated", "random"])
def test_signed_or_rotated_rows_take_the_matmul_path(basis):
    """pair_step declines -e_i rows and rotated bases, in R^3 and cut or padded with
    zero columns to the shape of np.eye(k, 2k), and they project with the bits of the
    two matmuls."""
    S, k = OrthoSubspace(basis), len(basis)
    square = np.zeros((k, 2 * k))
    square[:, :min(3, 2 * k)] = basis[:, :2 * k]
    assert _pair_step_of(basis) is None and _pair_step_of(square) is None
    for x in _points(3, np.random.default_rng(4)):
        assert S.project(x).tobytes() == (S.basis.T @ (S.basis @ x)).tobytes()


# ---------------------------------------------------------------------------
# sets built from a validated set: translates and the scenario families' unchecked copies


@pytest.mark.parametrize("kind", PROJECTABLE_KINDS)
def test_translate_bit_equal_to_public_constructor(kind):
    """translate gives the type, exact fields, attributes and projections of the
    public constructor's set: nothing one kind derives leaks into another."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    for i in range(40):
        S = random_set(kind, rng)
        v = rng.standard_normal(S.dim) * 10.0 ** float(rng.integers(-3, 4))
        if i % 4 == 0:
            v[0] = (0.0, -0.0)[i % 8 // 4]
        T, public = S.translate(v), public_translate(S, v)
        assert exact_fields(T) == exact_fields(public)
        assert vars(T).keys() == vars(public).keys()
        x = 0.5 * v + 1.0
        assert T.project(x).tobytes() == public.project(x).tobytes()


_BALL = Ball(np.array([1.0, -2.0]), 1.5)
_BALL = Ball(np.array([1.0, -2.0]), 1.5)
_FLAT = AffineSubspace(np.array([0.5, 0.5, 0.0]), np.array([[1.0, 0.0, 0.0]]))
_HALF = Halfspace(np.array([3.0, 4.0]), 1.0)
_POLY = Polyhedron(np.array([[1.0, 1.0], [-2.0, 0.5]]), np.array([1.0, 2.0]),
                   witness=np.zeros(2))
_BIG = 1.5e308


def _step(S, **changes):
    """A scenario family's unchecked copy of S with ``changes``, through the check
    ``stable_scenario`` runs on its step-1 sets."""
    return _checked(_moved(S, **changes))


@pytest.mark.parametrize("public, fast", [
    (lambda: Ball([np.nan, 0.0], 1.5), lambda: _step(_BALL, center=[np.nan, 0.0])),
    (lambda: Ball([_BIG + _BIG, 0.0], 1.5),
     lambda: Ball([_BIG, 0.0], 1.5).translate([_BIG, 0.0])),
    (lambda: Ball([1.0, -2.0], np.nan), lambda: _step(_BALL, radius=np.nan)),
    (lambda: Ball([1.0, -2.0], np.inf), lambda: _step(_BALL, radius=np.inf)),
    (lambda: Ball([1.0, -2.0], 0.0), lambda: _step(_BALL, radius=0.0)),
    (lambda: Ball([1.0, -2.0], -1.0), lambda: _step(_BALL, radius=-1.0)),
    (lambda: Ball([np.nan, 0.0], -1.0),
     lambda: _step(_BALL, radius=-1.0, center=[np.nan, 0.0])),
    (lambda: AffineSubspace([np.inf, 0.0, 0.0], _FLAT.basis),
     lambda: _step(_FLAT, anchor=[np.inf, 0.0, 0.0])),
    (lambda: AffineSubspace([0.0, 0.0], _FLAT.basis), lambda: _step(_FLAT, anchor=[0.0, 0.0])),
    (lambda: AffineSubspace([_BIG + _BIG, 0.0, 0.0], _FLAT.basis),
     lambda: AffineSubspace([_BIG, 0.0, 0.0], _FLAT.basis).translate([_BIG, 0.0, 0.0])),
    (lambda: Halfspace([3.0, 4.0], np.nan), lambda: _step(_HALF, b=np.nan)),
    (lambda: Halfspace([3.0, 4.0], -np.inf), lambda: _step(_HALF, b=-np.inf)),
    (lambda: Polyhedron(_POLY.normals, [np.nan, 1.0], witness=[0.0, 0.0]),
     lambda: _step(_POLY, b=[np.nan, 1.0])),
    (lambda: Polyhedron(_POLY.normals, [np.inf, 1.0], witness=[0.0, 0.0]),
     lambda: _step(_POLY, b=[np.inf, 1.0])),
    (lambda: Polyhedron(_POLY.normals, [1.0, -0.5], witness=[0.0, 0.0]),
     lambda: _step(_POLY, b=[1.0, -0.5])),
    (lambda: Polyhedron(_POLY.normals, [1.0, 1.0, 1.0], witness=[0.0, 0.0]),
     lambda: _step(_POLY, b=[1.0, 1.0, 1.0])),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=[np.nan, 0.0]),
     lambda: _step(_POLY, witness=[np.nan, 0.0])),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=[0.0, 0.0, 0.0]),
     lambda: _step(_POLY, witness=[0.0, 0.0, 0.0])),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=[5.0, 5.0]),
     lambda: _step(_POLY, witness=[5.0, 5.0])),
    (lambda: Polyhedron(_POLY.normals, [-np.inf, 1.0], witness=[0, 0]),
     lambda: _step(_POLY, b=[-np.inf, 1.0])),
    (lambda: Ball(None, 1.5), lambda: _step(_BALL, center=None)),
    (lambda: AffineSubspace(None, _FLAT.basis), lambda: _step(_FLAT, anchor=None)),
    (lambda: Polyhedron(_POLY.normals, None, witness=[0.0, 0.0]),
     lambda: _step(_POLY, b=None)),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=None),
     lambda: _step(_POLY, witness=None)),
])
def test_replaced_field_fails_as_the_constructor_does(public, fast):
    """A bad field in a scenario family's unchecked copy is refused by the step-1 check
    with the constructor's exception type and message; so is a bad translate."""
    with np.errstate(over="ignore"), pytest.raises(ValueError) as want:
        public()
    with np.errstate(over="ignore"), pytest.raises(ValueError) as got:
        fast()
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


_NOT_1D = (ValueError, "point must be 1-D, got shape ()")
_NONE_RADIUS = (TypeError, "'>' not supported between instances of 'NoneType' and 'float'")
_NONE_FLOAT = (TypeError, "float() argument must be a string or a real number, not 'NoneType'")


@pytest.mark.parametrize("build, error", [
    (lambda: Ball(None, 1.5), _NOT_1D),
    (lambda: Ball([1.0, -2.0], None), _NONE_RADIUS),
    (lambda: Halfspace(None, 1.0), _NOT_1D),
    (lambda: Halfspace([3.0, 4.0], None), _NONE_FLOAT),
    (lambda: AffineSubspace(None, _FLAT.basis), _NOT_1D),
    (lambda: AffineSubspace(_FLAT.anchor, None), (ValueError, "basis must be finite")),
    (lambda: Polyhedron(None, _POLY.b, witness=[0.0, 0.0]),
     (ValueError, "normals must be finite")),
    (lambda: Polyhedron(_POLY.normals, None, witness=[0.0, 0.0]),
     (ValueError, "b must be finite")),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=None), _NOT_1D),
    (lambda: _step(_BALL, radius=None), _NONE_RADIUS),
    (lambda: _step(_HALF, b=None), _NONE_FLOAT),
], ids=["ball-center", "ball-radius", "halfspace-a", "halfspace-b", "affine-anchor",
        "affine-basis", "polyhedron-normals", "polyhedron-b", "polyhedron-witness",
        "replace-ball-radius", "replace-halfspace-b"])
def test_none_field_fails_with_its_own_message(build, error):
    """None in a field is a bad value, not a field left out: it raises the pinned
    exception type and message.  The ValueErrors of None in an unchecked copy's field
    are compared with the constructor's above; the TypeErrors are pinned here."""
    with pytest.raises(error[0]) as got:
        build()
    assert (type(got.value), str(got.value)) == error


def test_replaced_sets_are_read_only_and_leave_their_source_unchanged(rng):
    """A translate's arrays are read-only and the set it came from keeps its fields."""
    from dataclasses import fields
    for kind in PROJECTABLE_KINDS:
        S = random_set(kind, rng)
        before = exact_fields(S)
        T = S.translate(rng.standard_normal(S.dim))
        arrays = [getattr(T, f.name) for f in fields(T)
                  if isinstance(getattr(T, f.name), np.ndarray)]
        assert arrays and not any(arr.flags.writeable for arr in arrays)
        with pytest.raises(ValueError, match="read-only"):
            arrays[0][...] = 0.0
        assert exact_fields(S) == before
