import json
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

from altproj.geometry import ConeSpec
from altproj.sets import (AffineSubspace, Ball, DiagonalAffineGraph, Halfspace, Hyperplane,
                          NonnegOrthant, OrthoSubspace, Polygon2D, Polyhedron,
                          ProjectionCertificateError, SupportUnavailable,
                          _polyhedron_unbounded_in, set_from_dict, set_to_dict,
                          slice_sample)

from _oracles import (DISTANCE_CLOSED_FORMS, PROJECTABLE_KINDS, ball_slice_reference,
                      disc_slice_diameter,
                      exact_fields, graph_projection_first_coords_oracle,
                      polygon_slice_reference, polyhedron_project_dykstra,
                      polyhedron_projection_bruteforce, public_translate, random_set)


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


def test_support_value_polyhedron_matches_vertices(rng):
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


def test_batched_projection_rejects_bad_arrays():
    S = Ball(np.zeros(2), 1.0)
    for X in (np.zeros(2), np.zeros((3, 3)), np.array([[0.0, np.nan]])):
        with pytest.raises(ValueError):
            S.project_many(X)


def test_slice_sample_fallback_cycles_through_a_short_draw():
    # The slice x >= 5.5 of this box lies 2.7 draw scales out along f: the
    # 1600 draws of the budget hit it only 4 times, so those 4 are repeated.
    S = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
                   np.array([6.0, -5.0, 1.0, 1.0]), witness=np.array([5.5, 0.0]))
    f, alpha, n, seed = np.array([0.01, 0.0]), 0.005, 8, 0
    rng, sup = np.random.default_rng(seed), S.support_value(f)
    found = []
    for _ in range(200 * n):   # the one-at-a-time rejection loop
        x = S.project(rng.standard_normal(2) * (2.0 + abs(sup)))
        if float(np.dot(f, x)) >= sup - alpha - 1e-12:
            found.append(x)
    assert 2 <= len(found) < n
    pts = slice_sample(S, f, alpha, n, seed)
    assert np.array_equal(pts, np.array(found)[np.arange(n) % len(found)])


@pytest.mark.parametrize("d", range(2, 7))
def test_ball_slice_bit_equal_to_one_point_loop(d):
    """The batched cap sampler draws and returns what the one-point-at-a-time
    loop does, for thin caps, half balls and the whole ball (alpha >= 2r)."""
    rng = np.random.default_rng(d)
    for i in range(12):
        B = Ball(rng.standard_normal(d) * 3.0, float(rng.uniform(0.2, 3.0)))
        f = rng.standard_normal(d) * float(rng.uniform(0.5, 2.0))
        depth = B.radius * float(np.linalg.norm(f))
        for alpha in (1e-3 * depth, 0.3 * depth, depth, 2.0 * depth, 5.0 * depth):
            for n in (1, 2, 37, 300):
                got = slice_sample(B, f, alpha, n, 17 * i + n)
                want = ball_slice_reference(B, f, alpha, n, 17 * i + n)
                assert got.shape == (n, d)
                assert got.tobytes() == want.tobytes(), (i, alpha, n)


_SLICE_POLYGONS = [
    # (polygon, f, alpha, clipped vertex count)
    (Polygon2D([(0.5, -1.0)]), (0.3, 1.0), 0.1, 1),                      # a point
    (Polygon2D([(0, 1), (-1, 0), (1, 0)]), (0.0, 1.0), 1e-14, 1),        # the apex
    (Polygon2D([(-1, 0), (1, 0)]), (0.0, 1.0), 0.5, 2),                  # a segment
    (Polygon2D([(-1, 0), (2, 1)]), (1.0, 0.0), 1.0, 2),                  # half of one
    (Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)]), (0.0, 1.0), 1e-14, 2),  # top edge
    (Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)]), (0.0, 1.0), 0.5, 4),
    (Polygon2D([(1, 1), (-1, 1), (-1, -1), (1, -1)]), (1.0, 1.0), 0.7, 3),
    (Polygon2D([(np.cos(t), np.sin(t)) for t in np.linspace(0, 6, 7)]), (0.2, -1.0), 1.5, 6),
]


@pytest.mark.parametrize("P, f, alpha, m", _SLICE_POLYGONS)
def test_polygon_slice_bit_equal_to_one_point_loop(P, f, alpha, m):
    """The batched polygon sampler returns what the one-point-at-a-time loop
    does, for clipped slices of 1, 2 and more vertices and n_samples below,
    at and above the vertex count."""
    f = np.array(f, dtype=float)
    for n in sorted({1, 2, 3, m - 1, m, m + 1, 50, 400} - {0}):
        for seed in (0, 5):
            got = slice_sample(P, f, alpha, n, seed)
            want = polygon_slice_reference(P, f, alpha, n, seed)
            assert got.shape == (n, 2)
            assert got.tobytes() == want.tobytes(), (n, seed)
    assert len(polygon_slice_reference(P, f, alpha, m, 0)) == m


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


def test_coordinate_basis_projection_bit_equal_to_matmul():
    """A basis of distinct unit rows projects by copying coordinates, with the
    bits of basis.T @ (basis @ x) and of project_many's rows, zeros' signs too."""
    rng = np.random.default_rng(2014)
    cases = 0
    for d, basis in _coordinate_bases(rng):
        S = OrthoSubspace(basis)
        assert S._coords is not None
        X = _points(d, rng)
        many = S.project_many(X)
        for x, row in zip(X, many):
            got = S.project(x)
            assert got.tobytes() == (S.basis.T @ (S.basis @ x)).tobytes(), (basis, x)
            assert got.tobytes() == row.tobytes(), (basis, x)
            cases += 1
    assert cases > 10000


@pytest.mark.parametrize("basis", [
    -np.eye(3)[[1]],
    np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
    np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]]),
    np.array([[0.0, 1.0, 0.0], [0.8, 0.0, -0.6]]),
    np.linalg.qr(np.random.default_rng(3).standard_normal((3, 2)))[0].T,
], ids=["minus_e", "e_and_minus_e", "rotated_and_e", "e_and_rotated", "random"])
def test_signed_or_rotated_rows_take_the_matmul_path(basis):
    """Only rows e_i are copied: -e_i rows and rotated bases keep the two matmuls."""
    S = OrthoSubspace(basis)
    assert S._coords is None
    for x in _points(3, np.random.default_rng(4)):
        assert S.project(x).tobytes() == (S.basis.T @ (S.basis @ x)).tobytes()


# ---------------------------------------------------------------------------
# sets built from a validated set: translates and ConvexSet._replace


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


@pytest.mark.parametrize("public, fast", [
    (lambda: Ball([np.nan, 0.0], 1.5), lambda: _BALL._replace(center=[np.nan, 0.0])),
    (lambda: Ball([_BIG + _BIG, 0.0], 1.5),
     lambda: Ball([_BIG, 0.0], 1.5).translate([_BIG, 0.0])),
    (lambda: Ball([1.0, -2.0], np.nan), lambda: _BALL._replace(radius=np.nan)),
    (lambda: Ball([1.0, -2.0], np.inf), lambda: _BALL._replace(radius=np.inf)),
    (lambda: Ball([1.0, -2.0], 0.0), lambda: _BALL._replace(radius=0.0)),
    (lambda: Ball([1.0, -2.0], -1.0), lambda: _BALL._replace(radius=-1.0)),
    (lambda: Ball([np.nan, 0.0], -1.0),
     lambda: _BALL._replace(radius=-1.0, center=[np.nan, 0.0])),
    (lambda: AffineSubspace([np.inf, 0.0, 0.0], _FLAT.basis),
     lambda: _FLAT._replace(anchor=[np.inf, 0.0, 0.0])),
    (lambda: AffineSubspace([0.0, 0.0], _FLAT.basis), lambda: _FLAT._replace(anchor=[0.0, 0.0])),
    (lambda: AffineSubspace([_BIG + _BIG, 0.0, 0.0], _FLAT.basis),
     lambda: AffineSubspace([_BIG, 0.0, 0.0], _FLAT.basis).translate([_BIG, 0.0, 0.0])),
    (lambda: Halfspace([3.0, 4.0], np.nan), lambda: _HALF._replace(b=np.nan)),
    (lambda: Halfspace([3.0, 4.0], -np.inf), lambda: _HALF._replace(b=-np.inf)),
    (lambda: Polyhedron(_POLY.normals, [np.nan, 1.0], witness=[0.0, 0.0]),
     lambda: _POLY._replace(b=[np.nan, 1.0])),
    (lambda: Polyhedron(_POLY.normals, [np.inf, 1.0], witness=[0.0, 0.0]),
     lambda: _POLY._replace(b=[np.inf, 1.0])),
    (lambda: Polyhedron(_POLY.normals, [1.0, -0.5], witness=[0.0, 0.0]),
     lambda: _POLY._replace(b=[1.0, -0.5])),
    (lambda: Polyhedron(_POLY.normals, [1.0, 1.0, 1.0], witness=[0.0, 0.0]),
     lambda: _POLY._replace(b=[1.0, 1.0, 1.0])),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=[np.nan, 0.0]),
     lambda: _POLY._replace(witness=[np.nan, 0.0])),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=[0.0, 0.0, 0.0]),
     lambda: _POLY._replace(witness=[0.0, 0.0, 0.0])),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=[5.0, 5.0]),
     lambda: _POLY._replace(witness=[5.0, 5.0])),
    (lambda: Polyhedron(_POLY.normals, [-np.inf, 1.0], witness=[0, 0]),
     lambda: _POLY._replace(b=[-np.inf, 1.0])),
    (lambda: Ball(None, 1.5), lambda: _BALL._replace(center=None)),
    (lambda: AffineSubspace(None, _FLAT.basis), lambda: _FLAT._replace(anchor=None)),
    (lambda: Polyhedron(_POLY.normals, None, witness=[0.0, 0.0]),
     lambda: _POLY._replace(b=None)),
    (lambda: Polyhedron(_POLY.normals, _POLY.b, witness=None),
     lambda: _POLY._replace(witness=None)),
])
def test_replaced_field_fails_as_the_constructor_does(public, fast):
    """A bad replaced field raises the constructor's exception type and message."""
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
    (lambda: _BALL._replace(radius=None), _NONE_RADIUS),
    (lambda: _HALF._replace(b=None), _NONE_FLOAT),
], ids=["ball-center", "ball-radius", "halfspace-a", "halfspace-b", "affine-anchor",
        "affine-basis", "polyhedron-normals", "polyhedron-b", "polyhedron-witness",
        "replace-ball-radius", "replace-halfspace-b"])
def test_none_field_fails_with_its_own_message(build, error):
    """None in a field is a bad value, not a field left out: it raises the pinned
    exception type and message.  The ValueErrors of None in a replaced field are
    compared with the constructor's above; the TypeErrors are pinned here."""
    with pytest.raises(error[0]) as got:
        build()
    assert (type(got.value), str(got.value)) == error


def test_replace_refuses_fields_with_derived_attributes():
    """Only a kind's _replaceable fields can be replaced (not theta, which _denom uses)."""
    G = DiagonalAffineGraph(np.array([0.5]), np.array([1.0]))
    for S, name in ((G, "theta"), (G, "offset"), (_BALL, "anchor"), (_POLY, "normals"),
                    (NonnegOrthant(2), "d"), (_HALF, "a")):
        with pytest.raises(TypeError, match="can replace only"):
            S._replace(**{name: getattr(S, name, 1.0)})


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
