import math

import numpy as np
import pytest

from altproj.geometry import ConeSpec, cone_from_angle
from altproj.sets import (Ball, DiagonalAffineGraph, Halfspace,
                          OrthoSubspace, Polygon2D, SamplerFailure, slice_sample)
from altproj.variational import (AwEstimate, ExposureProbe, _diameter,
                                 aw_distance, check_cos_separation,
                                 check_fact_norms, epsilon_alpha,
                                 eventual_containment_probe,
                                 first_containment_index, omega_angle,
                                 sample_cone_point, separation_constants,
                                 strongly_exposes_probe, wset_contains)

from _oracles import (diameter_reference, disc_min_shift_exact, omega_bruteforce,
                      polygon_containing_ball)


# ---------------------------------------------------------------------------
# aw_distance


def test_aw_translated_halfspaces_exact():
    A = Halfspace(np.array([0.0, 1.0]), 0.0)
    C = Halfspace(np.array([0.0, 1.0]), 0.1)
    for N in (1, 2, 5):
        est = aw_distance(A, C, N)
        assert est.mode == "exact"
        assert est.h_N == pytest.approx(0.1, abs=1e-12)
        sampled = aw_distance(A, C, N, mode="sampled", n_samples=400, rng_seed=N)
        assert sampled.h_N <= est.h_N + 1e-9  # sampled estimates stay below exact


def test_aw_identical_sets_zero():
    A = Halfspace(np.array([1.0, 1.0]), 0.3)
    est = aw_distance(A, A, 3)
    assert est.h_N <= 1e-14
    B = Ball(np.zeros(2), 1.0)
    est = aw_distance(B, B, 2, n_samples=300, rng_seed=0)
    assert est.mode == "sampled"
    assert est.h_N <= 1e-9


def test_aw_estimate_invariant():
    with pytest.raises(ValueError):
        AwEstimate(N=1, e_A_to_C=0.1, e_C_to_A=0.2, h_N=0.15, n_samples=0, mode="exact")


def test_aw_graph_pair_bound_and_sampled():
    d = 4
    D = 0.25 ** np.arange(1, d + 1)
    W = DiagonalAffineGraph(D, np.zeros(d))
    Dn = D.copy()
    Dn[2:] *= 0.7
    bn = np.full(d, 0.01)
    Wn = DiagonalAffineGraph(Dn, bn)
    N = 3
    bound = aw_distance(W, Wn, N)
    expected = N * float(np.max(np.abs(D - Dn))) + float(np.linalg.norm(bn))
    assert bound.mode == "exact"
    assert bound.h_N == pytest.approx(expected, rel=1e-12)
    sampled = aw_distance(W, Wn, N, mode="sampled", n_samples=800, rng_seed=5)
    assert sampled.h_N <= bound.h_N + 1e-9


def test_aw_subspace_pairs_exact_vs_sampled():
    phi = 0.4
    U = OrthoSubspace(np.array([[1.0, 0.0]]))
    V = OrthoSubspace(np.array([[math.cos(phi), math.sin(phi)]]))
    for N in (1, 2, 4):
        est = aw_distance(U, V, N)
        assert est.mode == "exact"
        assert est.h_N == pytest.approx(N * math.sin(phi), rel=1e-12)
        sampled = aw_distance(U, V, N, mode="sampled", n_samples=1500, rng_seed=1)
        assert sampled.h_N <= est.h_N + 1e-9
        assert sampled.h_N >= 0.8 * est.h_N  # boundary bias finds the far points


def test_aw_affine_lines_exact():
    # line through (0, 1/k) and (k, 0) against the horizontal axis
    from altproj.constructions import tilted_line
    axis = OrthoSubspace(np.array([[1.0, 0.0]]))
    prev = math.inf
    for k in (1, 2, 4, 8):
        est = aw_distance(tilted_line(k), axis, 2)
        assert est.mode == "exact"
        assert est.h_N < prev
        prev = est.h_N
    assert prev < 0.35


def test_aw_affine_line_exact_agrees_with_dense_sampling(rng):
    from altproj.constructions import tilted_line
    axis = OrthoSubspace(np.array([[1.0, 0.0]]))
    L = tilted_line(3)
    N = 2
    est = aw_distance(L, axis, N)
    # dense parameter sweep of the line inside the N-ball
    anchor, direction = L.project(np.zeros(2)), L.basis[0]
    R = math.sqrt(N ** 2 - float(np.linalg.norm(anchor)) ** 2)
    ts = np.linspace(-R, R, 20001)
    pts = anchor[None, :] + ts[:, None] * direction[None, :]
    e1 = float(np.max(np.abs(pts[:, 1])))  # distance to the axis
    assert est.e_A_to_C == pytest.approx(e1, abs=1e-6)


def test_aw_sampling_failure_outside_ball():
    A = Halfspace(np.array([0.0, 1.0]), 0.0)
    C = Ball(np.array([50.0, 0.0]), 1.0)
    with pytest.raises(SamplerFailure):
        aw_distance(A, C, 2, n_samples=100, rng_seed=0)


def test_aw_convergent_family_h_n_vanishes():
    # translated halfspaces converge; h_N eventually below any eps for each N
    A = Halfspace(np.array([0.0, 1.0]), 0.0)
    for N in (1, 2, 4, 8):
        values = [aw_distance(Halfspace(np.array([0.0, 1.0]), 1.0 / n), A, N).h_N
                  for n in (1, 10, 100, 1000)]
        assert values == sorted(values, reverse=True)
        assert values[-1] <= 1e-3


def test_bounded_selections_approach_limit_set():
    # points picked from a convergent family have vanishing distance to the limit
    A = Halfspace(np.array([0.0, 1.0]), 0.0)
    dists = []
    for n in (1, 10, 100, 1000):
        An = Halfspace(np.array([0.0, 1.0]), 1.0 / n)
        a_n = np.array([0.7, 1.0 / n])  # on the boundary of A_n, bounded
        dists.append(A.distance(a_n))
    assert dists == sorted(dists, reverse=True)
    assert dists[-1] <= 1e-3


# ---------------------------------------------------------------------------
# epsilon_alpha and exposure


def test_epsilon_alpha_disc_matches_exact_table():
    disc = Ball(np.array([0.0, 1.0]), 1.0)
    f = np.array([0.0, 1.0])
    for alpha in (0.2, 0.1, 0.05, 0.025):
        est = epsilon_alpha(disc, f, f, alpha, n_boundary=2000, rng_seed=3)
        exact = disc_min_shift_exact(alpha)
        assert est <= exact + 1e-9          # sampled from below
        assert est >= exact - 5e-4          # dense enough to approach it


def test_epsilon_alpha_ratios_decrease_on_disc():
    disc = Ball(np.array([0.0, 1.0]), 1.0)
    f = np.array([0.0, 1.0])
    ratios = [epsilon_alpha(disc, f, f, a, n_boundary=1200, rng_seed=7) / a
              for a in (0.2, 0.1, 0.05, 0.025)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


def test_epsilon_alpha_monotone_in_alpha_same_seed():
    poly = polygon_containing_ball(np.random.default_rng(5)).translate(np.zeros(2))
    # orient: translate so that 0 is the f-argmin point
    f = np.array([0.0, 1.0])
    low = poly.vertices[np.argmin(poly.vertices @ f)]
    shifted = poly.translate(-low)
    alphas = [0.4, 0.3, 0.2, 0.1]
    eps = [epsilon_alpha(shifted, f, f, a, n_boundary=500, rng_seed=11) for a in alphas]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(eps, eps[1:]))


def test_epsilon_alpha_supporting_halfspace_ratio_stays_large():
    # flat supporting set: ratio grows with the sampled radius, never -> 0
    hs = Halfspace(np.array([0.0, -1.0]), 0.0)  # {x2 >= 0}
    f = np.array([0.0, 1.0])
    for alpha in (0.2, 0.05):
        est = epsilon_alpha(hs, f, f, alpha, n_boundary=600, rng_seed=1)
        assert est / alpha >= 100.0


def test_epsilon_alpha_terminates_where_doubles_are_coarser_than_the_tolerance():
    # shifts near 2e6, where adjacent doubles are 4.7e-10 apart: a bracket
    # can stop shrinking before it is 1e-10 wide
    R, alpha = 1e4, 0.99999
    disc = Ball(np.array([0.0, R]), R)
    f = np.array([0.0, 1.0])
    est = epsilon_alpha(disc, f, f, alpha, n_boundary=200, rng_seed=0, max_radius=R)
    assert 1e6 < est <= R * disc_min_shift_exact(alpha)


def test_epsilon_alpha_singleton_is_zero():
    origin = Polygon2D([(0.0, 0.0)])
    f = np.array([0.0, 1.0])
    assert epsilon_alpha(origin, f, f, 0.3, n_boundary=50, rng_seed=0) == 0.0


def test_epsilon_alpha_validates_orientation():
    disc = Ball(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        epsilon_alpha(disc, np.array([0.0, -1.0]), np.array([0.0, -1.0]), 0.1,
                      n_boundary=50, rng_seed=0)
    shifted = Ball(np.array([0.0, 2.0]), 1.0)  # 0 not in the set
    with pytest.raises(ValueError):
        epsilon_alpha(shifted, np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.1,
                      n_boundary=50, rng_seed=0)


def test_exposure_probe_disc_shrinks():
    disc = Ball(np.array([0.0, 1.0]), 1.0)
    probe = strongly_exposes_probe(disc, np.array([0.0, -1.0]),
                                   [0.2, 0.1, 0.05, 0.025],
                                   n_samples=500, rng_seed=2)
    for alpha, diam in zip(probe.alphas, probe.slice_diams):
        assert diam <= 2.0 * math.sqrt(2.0 * alpha) + 0.05
    assert all(r1 > r2 for r1, r2 in zip(probe.ratios, probe.ratios[1:]))


def test_exposure_probe_flat_edge_fails_to_expose():
    A = Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)])
    probe = strongly_exposes_probe(A, np.array([0.0, -1.0]),
                                   [0.2, 0.1, 0.05, 0.025],
                                   n_samples=400, rng_seed=4)
    assert all(d >= 2.0 for d in probe.slice_diams)
    assert all(r >= 0.4 for r in probe.ratios)


def test_exposure_probe_corner_slice_linear():
    square = Polygon2D([(1, 1), (-1, 1), (-1, -1), (1, -1)])
    f = np.array([1.0, 1.0]) / math.sqrt(2.0)
    probe = strongly_exposes_probe(square, f, [0.2, 0.1, 0.05],
                                   n_samples=400, rng_seed=6)
    for alpha, diam in zip(probe.alphas, probe.slice_diams):
        assert diam == pytest.approx(2.0 * alpha, rel=0.08)


@pytest.mark.parametrize("d", range(1, 17))
def test_diameter_bit_equal_to_all_pairs_reference(d):
    """The upper-triangle diameter gives the all-pairs maximum bit for bit:
    per-coordinate sums below d = 8, np.sum's reduction from 8 on."""
    rng = np.random.default_rng(100 + d)
    for n in (1, 2, 7, 63, 64, 65, 130, 201):
        for scale in (1e-6, 1.0, 1e6):
            pts = rng.standard_normal((n, d)) * scale
            if n > 2:
                pts[n // 2] = pts[0]     # a repeated point
                pts[-1] = pts[1]
            assert _diameter(pts).hex() == diameter_reference(pts).hex(), (n, scale)
    same = np.tile(rng.standard_normal(d), (70, 1))
    assert _diameter(same) == diameter_reference(same) == 0.0


def test_exposure_probe_invariant_validation():
    with pytest.raises(ValueError):
        ExposureProbe(alphas=(0.1, 0.2), eps_of_alpha=(0.0, 0.0),
                      slice_diams=(0.0, 0.0), ratios=(0.0, 0.0))
    with pytest.raises(ValueError):
        ExposureProbe(alphas=(0.2, 0.1), eps_of_alpha=(0.0, 0.1),
                      slice_diams=(0.0, 0.0), ratios=(0.0, 1.0))


# ---------------------------------------------------------------------------
# containment probes


def test_eventual_containment_translated_halfplanes():
    f = np.array([0.0, 1.0])
    cone = ConeSpec(f, alpha=0.3, shift=0.2, kind="V")  # V(f, 0.3) + 0.2*x0
    sets = [Halfspace(f, 1.0 / n) for n in (1, 2, 3, 10, 30, 100)]
    flags = eventual_containment_probe(sets, cone, n_samples=300, rng_seed=0)
    assert flags[-1] and flags[-2]       # 1/n < eps for n >= 10
    assert not flags[0]                  # 1/1 > eps: sticks out
    idx = first_containment_index(flags)
    assert idx is not None and flags[idx:] == [True] * (len(flags) - idx)


def test_eventual_containment_cone_nesting():
    f = np.array([0.0, 1.0])
    # triangle near the axis sits in a wide shifted cone
    tri = Polygon2D([(0.4, 1.0), (-0.4, 1.0), (0.0, 0.1)])
    cone = ConeSpec(f, alpha=0.5, shift=0.5, kind="C")
    flags = eventual_containment_probe([tri] * 3, cone, n_samples=200, rng_seed=1)
    assert all(flags)


def test_first_containment_index_none_when_last_fails():
    assert first_containment_index([True, False]) is None
    assert first_containment_index([False, True, True]) == 1
    assert first_containment_index([]) is None


# ---------------------------------------------------------------------------
# subspace angle machinery


def test_wset_examples():
    U = np.array([[1.0, 0.0]])
    assert wset_contains(np.array([5.0, 0.0]), U, 0.3)
    assert not wset_contains(np.array([0.0, 1.0]), U, 0.3)
    assert wset_contains(np.array([0.0, 0.25]), U, 0.3)  # core ball branch


def test_wset_boundary_identity():
    # cos(w, e1) = 1 - eps exactly sits on the boundary (inclusive)
    eps = 0.2
    t = math.acos(1.0 - eps)
    w = np.array([math.cos(t), math.sin(t)])
    U = np.array([[1.0, 0.0]])
    assert wset_contains(w, U, eps)
    w_out = np.array([math.cos(t + 1e-6), math.sin(t + 1e-6)])
    assert not wset_contains(w_out, U, eps)


def test_wset_norm_matched_identity(rng):
    # ||u* - w||^2 = 2||w||^2 (1 - cos(w, P_U w)) checked numerically
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    U = q.T
    for _ in range(50):
        w = rng.standard_normal(5) * rng.uniform(0.5, 3)
        pw = U.T @ (U @ w)
        if np.linalg.norm(pw) < 1e-12:
            continue
        nw = np.linalg.norm(w)
        ustar = nw * pw / np.linalg.norm(pw)
        lhs = float(np.dot(ustar - w, ustar - w))
        cos = float(np.dot(w, pw)) / (nw * np.linalg.norm(pw))
        assert lhs == pytest.approx(2 * nw ** 2 * (1 - cos), rel=1e-9, abs=1e-9)


def test_omega_two_lines():
    phi = 0.7
    U = np.array([[1.0, 0.0]])
    V = np.array([[math.cos(phi), math.sin(phi)]])
    rep = omega_angle(U, V)
    assert rep.omega == pytest.approx(abs(math.cos(phi)), abs=1e-12)


def test_omega_orthogonal_is_zero():
    rep = omega_angle(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0, 0.0]]))
    assert rep.omega == pytest.approx(0.0, abs=1e-12)


def test_omega_graph_subspaces_closed_form():
    for d in (3, 6, 8):
        U = np.zeros((d, 2 * d))
        U[:, :d] = np.eye(d)
        a_n = 0.25 ** np.arange(1, d + 1)
        V = np.zeros((d, 2 * d))
        for n in range(d):
            V[n, n] = 1.0
            V[n, d + n] = a_n[n]
            V[n] /= np.linalg.norm(V[n])
        rep = omega_angle(U, V)
        assert rep.omega == pytest.approx(1.0 / math.sqrt(1.0 + a_n[-1] ** 2), abs=1e-14)


def test_omega_matches_bruteforce(rng):
    for d, k in ((4, 2), (6, 2), (8, 3)):
        qu, _ = np.linalg.qr(rng.standard_normal((d, k)))
        qv, _ = np.linalg.qr(rng.standard_normal((d, k)))
        rep = omega_angle(qu.T, qv.T)
        brute = omega_bruteforce(qu.T, qv.T, n_samples=100_000,
                                 rng=np.random.default_rng(1))
        assert abs(rep.omega - brute) <= 1e-6


def test_omega_trivial_intersection_characterization(rng):
    # omega < 1 iff the subspaces only share the origin (finite dimension)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    U = q[:, :2].T
    V_overlap = q[:, 1:3].T  # shares q[:,1]
    assert omega_angle(U, V_overlap).omega == pytest.approx(1.0, abs=1e-12)
    V_clean = np.array([[0.0, 0.0, 0.0, 1.0, 0.0]])
    assert omega_angle(U, V_clean).omega < 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("which", ["U_basis", "V_basis"])
def test_omega_rejects_non_finite_basis(which, bad):
    """A non-finite basis entry is a ValueError naming the basis, not an SVD failure."""
    bases = {"U_basis": np.array([[1.0, 0.0]]), "V_basis": np.array([[0.0, 1.0]])}
    bases[which][0, 0] = bad
    with pytest.raises(ValueError, match=f"{which} has non-finite entries"):
        omega_angle(**bases)


def test_omega_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        omega_angle(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))


def test_separation_constants_feasible_and_monotone():
    eps_prev = math.inf
    M = 0.5
    for omega in (0.0, 0.5, 0.9, 0.99):
        eps, eta = separation_constants(M, omega)
        assert eta == pytest.approx((omega + 1) / 2, abs=1e-15)
        lhs = (M / (M - eps)) ** 2 * (omega + 15 * math.sqrt(eps) / M ** 2)
        assert lhs <= eta and 0 < eps < M
        assert eps < eps_prev
        eps_prev = eps


def test_separation_constants_error_near_one():
    with pytest.raises(ValueError):
        separation_constants(0.5, 0.99999)


# ---------------------------------------------------------------------------
# standalone fact checks


def test_fact_norms_unit_ball_radial():
    B = Ball(np.zeros(2), 1.0)
    x = np.array([2.0, 0.0])
    px = B.project(x)
    assert np.linalg.norm(x - px) <= 2.0 * (np.linalg.norm(x) - np.linalg.norm(px))
    assert check_fact_norms(B, 1.0, 2.0, n_trials=3000, rng_seed=0) <= 1e-9


def test_fact_norms_random_polygons(rng):
    for seed in range(3):
        poly = polygon_containing_ball(np.random.default_rng(seed))
        assert check_fact_norms(poly, 0.3, 5.0, n_trials=2000, rng_seed=seed) <= 1e-9


def test_fact_norms_precondition_violation():
    B = Ball(np.array([5.0, 0.0]), 1.0)  # does not contain the eps-ball
    with pytest.raises(ValueError):
        check_fact_norms(B, 0.5, 2.0, n_trials=10, rng_seed=0)


def test_cos_separation_monte_carlo():
    assert check_cos_separation(math.pi / 6, math.pi / 3,
                                n_trials=100_000, rng_seed=0) <= 1e-9


def test_cos_separation_boundary_equality():
    # common-plane boundary pair attains the bound
    theta1, theta2 = 0.4, 1.1
    x0 = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    x = math.cos(math.pi / 2 - theta2) * x0 + math.sin(math.pi / 2 - theta2) * w
    y = math.cos(math.pi / 2 - theta1) * x0 + math.sin(math.pi / 2 - theta1) * w
    got = float(x @ y) / (np.linalg.norm(x) * np.linalg.norm(y))
    assert got == pytest.approx(math.cos(theta2 - theta1), abs=1e-9)


def test_cos_separation_rejects_bad_angles():
    with pytest.raises(ValueError):
        check_cos_separation(1.0, 0.5, n_trials=10, rng_seed=0)


def test_sample_cone_point_respects_cones(rng):
    x0 = np.zeros(3)
    x0[0] = 1.0
    from altproj.geometry import cone_contains
    c = cone_from_angle(x0, 0.8, kind="C")
    v = cone_from_angle(x0, 0.3, kind="V")
    for _ in range(200):
        assert cone_contains(c, sample_cone_point(x0, 0.8, "C", rng), tol=1e-9)
        assert cone_contains(v, sample_cone_point(x0, 0.3, "V", rng), tol=1e-9)


# ---------------------------------------------------------------------------
# batched samplers against one-sample-at-a-time reference loops


def _excess_one_at_a_time(A, C, N, n_samples, rng):
    base = A.project(np.zeros(A.dim))
    pts = [base]
    scales = np.geomspace(0.25 * N, 2.0 * N, 8)
    tries = 0
    while len(pts) < n_samples and tries < 20 * n_samples:
        x = A.project(rng.standard_normal(A.dim) * scales[tries % len(scales)])
        tries += 1
        nx = float(np.linalg.norm(x))
        if nx <= N + 1e-12:
            pts.append(x)
        else:
            y = base + min(1.0, max(0.0, (N * 0.999) / nx)) * (x - base)
            if float(np.linalg.norm(y)) <= N + 1e-12:
                pts.append(y)
    return max(float(C.distance(x)) for x in pts)


def _epsilon_one_at_a_time(A, f, alpha, n_boundary, rng_seed, max_radius=1e3):
    rng = np.random.default_rng(rng_seed)
    scales = np.geomspace(0.5, max_radius, 16)
    best = 0.0
    for i in range(n_boundary):
        a = A.project(rng.standard_normal(f.size) * scales[i % len(scales)])
        fa = max(float(np.dot(f, a)), 0.0)

        def g(lam):
            return fa + lam - alpha * float(np.linalg.norm(a + lam * f))

        if g(0.0) >= 0.0:
            continue
        lo, hi = 0.0, (alpha * float(np.linalg.norm(a)) - fa) / (1.0 - alpha) + 1.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if g(mid) >= 0.0 else (mid, hi)
        best = max(best, hi)
    return best


def test_batched_samplers_equal_one_at_a_time_loops(rng):
    for _ in range(6):
        A = polygon_containing_ball(rng)
        C = polygon_containing_ball(rng)
        n, seed = int(rng.integers(2, 400)), int(rng.integers(1000))
        est = aw_distance(A, C, 2, n_samples=n, rng_seed=seed, mode="sampled")
        ref = np.random.default_rng(seed)
        assert est.e_A_to_C == _excess_one_at_a_time(A, C, 2, n, ref)
        assert est.e_C_to_A == _excess_one_at_a_time(C, A, 2, n, ref)
        f = np.array([0.0, 1.0])
        low = A.translate(-A.vertices[np.argmin(A.vertices @ f)])
        r = float(rng.uniform(0.5, 3.0))
        disc = Ball(np.array([0.0, r]), r)
        for S in (low, disc):
            alpha = float(rng.uniform(0.05, 0.9))
            assert (epsilon_alpha(S, f, f, alpha, n_boundary=n, rng_seed=seed)
                    == _epsilon_one_at_a_time(S, f, alpha, n, seed))


def test_zero_support_direction_is_rejected():
    B = Ball(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="support direction must be nonzero"):
        slice_sample(B, np.zeros(2), 0.1, 10, 0)
    with pytest.raises(ValueError, match="support direction must be nonzero"):
        strongly_exposes_probe(B, np.zeros(2), [0.2, 0.1])


@pytest.mark.parametrize("f, message", [
    ([0.0, 0.0], "support direction must be nonzero"),
    ([1e-200, 0.0], "support direction is nonzero but its norm underflows to 0"),
    ([1e-150, 0.0], None),
])
def test_support_direction_underflow_has_its_own_message(f, message):
    """||[1e-200, 0]|| squares to 0, so that f is rejected as too small, not as
    zero; [1e-150, 0] is sampled, its support point the right end of the disc."""
    B = Ball(np.array([0.0, 1.0]), 1.0)
    if message is None:
        pts = slice_sample(B, f, 0.1, 5, 0)
        assert pts.shape == (5, 2) and np.allclose(pts[0], [1.0, 1.0])
        assert len(strongly_exposes_probe(B, f, [0.2, 0.1], n_samples=20).slice_diams) == 2
        return
    with pytest.raises(ValueError, match=message):
        slice_sample(B, f, 0.1, 5, 0)
    with pytest.raises(ValueError, match=message):
        strongly_exposes_probe(B, f, [0.2, 0.1])
