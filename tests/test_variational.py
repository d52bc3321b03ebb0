import math
import time

import numpy as np
import pytest

import altproj.variational
from altproj.constructions import stable_scenario
from altproj.sets import (Ball, DiagonalAffineGraph, Halfspace, OrthoSubspace, Polygon2D,
                          Polyhedron, SamplerFailure, slice_sample)
from altproj.geometry import row_norms
from altproj.variational import (AwEstimate, ExposureProbe, _diameter, _polyhedron_slices,
                                 _shifts_into_cone, aw_distance, epsilon_alpha, exposure_frame,
                                 omega_angle, separation_constants, strongly_exposes_probe)

from _oracles import (diameter_reference, disc_min_shift_exact, disc_slice_diameter,
                      omega_bruteforce, polygon_containing_ball, sampled_aw_distance)
from _paper_checks import (ConeSpec, check_cos_separation, check_fact_norms, cone_contains,
                           cone_from_angle, eventual_containment_probe,
                           first_containment_index, sample_cone_point, wset_contains)


# ---------------------------------------------------------------------------
# aw_distance


def test_aw_translated_halfspaces_exact():
    A = Halfspace(np.array([0.0, 1.0]), 0.0)
    C = Halfspace(np.array([0.0, 1.0]), 0.1)
    for N in (1, 2, 5):
        est = aw_distance(A, C, N)
        assert est.mode == "exact"
        assert est.h_N == pytest.approx(0.1, abs=1e-12)
        sampled = sampled_aw_distance(A, C, N, n_samples=400, rng_seed=N)
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
    assert (bound.mode, bound.n_samples) == ("bound", 0)
    assert bound.h_N == pytest.approx(expected, rel=1e-12)
    sampled = sampled_aw_distance(W, Wn, N, n_samples=800, rng_seed=5)
    assert sampled.h_N <= bound.h_N + 1e-9


def test_aw_subspace_pairs_exact_vs_sampled():
    phi = 0.4
    U = OrthoSubspace(np.array([[1.0, 0.0]]))
    V = OrthoSubspace(np.array([[math.cos(phi), math.sin(phi)]]))
    for N in (1, 2, 4):
        est = aw_distance(U, V, N)
        assert est.mode == "exact"
        assert est.h_N == pytest.approx(N * math.sin(phi), rel=1e-12)
        sampled = sampled_aw_distance(U, V, N, n_samples=1500, rng_seed=1)
        assert sampled.h_N <= est.h_N + 1e-9
        assert sampled.h_N >= 0.8 * est.h_N  # boundary bias finds the far points


_E4 = np.eye(4)
_TRANSVERSAL = stable_scenario("transversal_planes")


@pytest.mark.parametrize("U, W, N, excesses", [
    # principal cosines 1 and 0.6: the farthest unit vector of either plane is 0.8 off the other
    (_E4[:2], np.vstack([_E4[0], 0.6 * _E4[1] + 0.8 * _E4[2]]), 3, (2.4, 2.4)),
    (_TRANSVERSAL.A.basis, _TRANSVERSAL.B.basis, 2, (2.0, 2.0)),  # trivial intersection
    (_E4[:2], _E4[:1], 2, (2.0, 0.0)),  # a plane and a line in it
], ids=["tilted_planes", "transversal_planes", "plane_and_its_line"])
def test_aw_subspaces_beyond_lines_exact_vs_sampled(U, W, N, excesses):
    """Two linear subspaces that are not both lines take the principal-angle closed
    form: each excess is N sin of the largest principal angle, or N when the first
    subspace has the larger dimension; the sampled estimate is a lower bound."""
    A, C = OrthoSubspace(U), OrthoSubspace(W)
    est = aw_distance(A, C, N)
    assert est.mode == "exact" and est.n_samples == 0
    assert (est.e_A_to_C, est.e_C_to_A) == pytest.approx(excesses, rel=1e-12, abs=1e-12)
    assert est.h_N == pytest.approx(max(excesses), rel=1e-12)
    sampled = sampled_aw_distance(A, C, N, n_samples=1500, rng_seed=1)
    assert sampled.e_A_to_C <= est.e_A_to_C + 1e-9 and sampled.e_C_to_A <= est.e_C_to_A + 1e-9
    assert sampled.h_N >= 0.99 * est.h_N


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
        est = epsilon_alpha(disc, f, alpha, n_boundary=2000, rng_seed=3)
        exact = disc_min_shift_exact(alpha)
        assert est <= exact + 1e-9          # sampled from below
        assert est >= exact - 5e-4          # dense enough to approach it


def test_epsilon_alpha_ratios_decrease_on_disc():
    disc = Ball(np.array([0.0, 1.0]), 1.0)
    f = np.array([0.0, 1.0])
    ratios = [epsilon_alpha(disc, f, a, n_boundary=1200, rng_seed=7) / a
              for a in (0.2, 0.1, 0.05, 0.025)]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


def test_epsilon_alpha_monotone_in_alpha_same_seed():
    poly = polygon_containing_ball(np.random.default_rng(5)).translate(np.zeros(2))
    # orient: translate so that 0 is the f-argmin point
    f = np.array([0.0, 1.0])
    low = poly.vertices[np.argmin(poly.vertices @ f)]
    shifted = poly.translate(-low)
    alphas = [0.4, 0.3, 0.2, 0.1]
    eps = [epsilon_alpha(shifted, f, a, n_boundary=500, rng_seed=11) for a in alphas]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(eps, eps[1:]))


def test_epsilon_alpha_supporting_halfspace_ratio_stays_large():
    # flat supporting set: ratio grows with the sampled radius, never -> 0
    hs = Halfspace(np.array([0.0, -1.0]), 0.0)  # {x2 >= 0}
    f = np.array([0.0, 1.0])
    for alpha in (0.2, 0.05):
        est = epsilon_alpha(hs, f, alpha, n_boundary=600, rng_seed=1)
        assert est / alpha >= 100.0


def test_epsilon_alpha_disc_stays_below_the_exact_shift_at_every_scale():
    """Discs of radius 1e-6 to 1e3 resting at 0: the sampled shift is below
    R(1/sqrt(1 - alpha^2) - 1) and near it, up to shifts of 2e5 at alpha near 1."""
    f = np.array([0.0, 1.0])
    for R in (1e-6, 1e-3, 1.0, 1e3):
        disc = Ball(np.array([0.0, R]), R)
        for alpha in (0.2, 0.9, 0.99999):
            est = epsilon_alpha(disc, f, alpha, n_boundary=200)
            assert 0.9 * R * disc_min_shift_exact(alpha) <= est <= R * disc_min_shift_exact(alpha)


@pytest.mark.parametrize("d", range(2, 7))
def test_epsilon_alpha_ball_stays_below_the_exact_shift(d):
    """A ball of radius r resting at 0 on the unit f needs the shift
    r(1/sqrt(1 - alpha^2) - 1) in every dimension: the plane through f and
    the worst point cuts the disc of that formula."""
    rng = np.random.default_rng(20 + d)
    f = rng.standard_normal(d)
    f /= np.linalg.norm(f)
    r = float(rng.uniform(0.5, 3.0))
    for alpha, share in ((0.2, 0.99), (0.05, 0.0)):  # a thin cap is seldom sampled
        est = epsilon_alpha(Ball(r * f, r), f, alpha, n_boundary=2000, rng_seed=d)
        exact = r * disc_min_shift_exact(alpha)
        assert share * exact <= est <= exact + 1e-12


def test_exposure_probe_box_corner_needs_no_shift():
    """The corner of [-1, 1]^4 along f = (1, .5, .5, .5) lies in the cone of every
    alpha below 0.5/||f|| = 0.378, so the true shift is 0; the closed form
    gives it to rounding."""
    box = Polyhedron(np.vstack([np.eye(4), -np.eye(4)]), np.ones(8), witness=np.zeros(4))
    for seed in range(3):
        probe = strongly_exposes_probe(box, [1.0, 0.5, 0.5, 0.5], [0.2, 0.1], n_samples=100,
                                       rng_seed=seed)
        assert all(0.0 <= e <= 1e-12 for e in probe.eps_of_alpha)


@pytest.mark.parametrize("d", range(1, 7))
def test_shifts_into_cone_reach_the_cone_boundary_and_no_less(d):
    """The closed-form shift lam* of a point a: for lam* > 0, a + lam*f is on the
    boundary of C(f, alpha) = {<f, x> >= alpha||x||} to rounding of ||a|| + lam*,
    and a + (lam* - delta)f is outside it, where delta is the step that the
    slope 1 - alpha^2 of <f, x> - alpha||x|| at the boundary needs to clear
    that rounding; for lam* = 0, a is in the cone to rounding."""
    rng = np.random.default_rng(d)
    f = rng.standard_normal(d)
    f /= np.linalg.norm(f)
    n = 3000
    a = rng.standard_normal((n, d)) * np.geomspace(1e-6, 1e3, n)[rng.permutation(n), None]
    a[::3] += rng.uniform(-1.0, 20.0, (len(a[::3]), 1)) * row_norms(a[::3])[:, None] * f
    a[1::50] = rng.uniform(-1e3, 1e3, (len(a[1::50]), 1)) * f  # on the axis
    alphas = (1e-3, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-6, 1.0 - 1e-9)
    lam = _shifts_into_cone(a, f, alphas)
    assert lam.shape == (n, len(alphas)) and np.isfinite(lam).all() and (lam >= 0.0).all()

    def defect(shift, alpha):
        x = a + shift[:, None] * f
        return np.vecdot(x, f) - alpha * row_norms(x)

    scale = row_norms(a)[:, None] + lam
    for j, alpha in enumerate(alphas):
        tol = 1e-14 * scale[:, j]
        moved, at_rest = lam[:, j] > 0.0, lam[:, j] == 0.0
        assert moved.sum() > n // 10 and at_rest.sum() > 20
        assert (np.abs(defect(lam[:, j], alpha)) <= tol)[moved].all()
        delta = 4.0 * tol / ((1.0 - alpha) * (1.0 + alpha))
        assert (defect(lam[:, j] - delta, alpha) < 0.0)[moved].all()
        assert (defect(lam[:, j], alpha) >= -tol)[at_rest].all()


def test_epsilon_alpha_singleton_is_zero():
    origin = Polygon2D([(0.0, 0.0)])
    f = np.array([0.0, 1.0])
    assert epsilon_alpha(origin, f, 0.3, n_boundary=50, rng_seed=0) == 0.0


def test_epsilon_alpha_validates_orientation():
    disc = Ball(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        epsilon_alpha(disc, np.array([0.0, -1.0]), 0.1, n_boundary=50, rng_seed=0)
    shifted = Ball(np.array([0.0, 2.0]), 1.0)  # 0 not in the set
    with pytest.raises(ValueError):
        epsilon_alpha(shifted, np.array([0.0, 1.0]), 0.1, n_boundary=50, rng_seed=0)


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


# The cap sampler's slice diameters and the sampled shifts of the exposure probe
# before its closed forms, for the first ball of each dimension below (seed 0).
_SAMPLED_BEFORE = {
    1: ((4.745405963622892, 4.719184907476208, 4.731706220576373, 1.1387494906329225),
        (0.0, 0.0, 0.0, 0.0)),
    2: ((1.3882723655904852, 0.9875050984886171, 0.5661191916819399, 0.25426754603874524),
        (0.6545459438141468, 0.12632524402489295, 0.013185541907651763, 0.0005216577514041431)),
    3: ((2.2730247182598284, 1.6099264648398723, 0.93514612961242, 0.42112874714160387),
        (0.6414273612197345, 0.1238475551608193, 0.012917818452964303, 0.0)),
    4: ((1.064483662528691, 0.7857980119820359, 0.4631143161188515, 0.21034963639409993),
        (0.18455907383361805, 0.034633412554181495, 0.0036608930640202224, 0.0)),
    5: ((1.748878328825904, 1.2454875234254046, 0.7138294372955966, 0.32120333906452986),
        (0.6008101068513115, 0.11588965485789954, 0.010397041390633823, 0.0)),
    6: ((3.119531081841392, 2.313005432367438, 1.350720451506938, 0.6345971446353323),
        (0.49972773349636374, 0.09463552125510538, 0.0, 0.0)),
}


@pytest.mark.parametrize("d", range(1, 7))
def test_exposure_probe_ball_closed_forms_bound_every_sample(d):
    """A ball's slice at depth h = alpha/||f|| is a cap of diameter 2 sqrt(h(2r - h)),
    2r from h = r on (a segment of length min(h, 2r) in one dimension), and its
    least shift is r(1/sqrt(1 - alpha^2) - 1) (0 in one dimension).  Each lies
    above the sampled values: those the cap sampler gave before, the diameter of
    slice_sample's points and epsilon_alpha's shift."""
    rng, alphas = np.random.default_rng(40 + d), (0.6, 0.3, 0.1, 0.02)
    for i in range(3):
        B = Ball(rng.standard_normal(d), float(rng.uniform(0.3, 3.0)))
        f = rng.standard_normal(d) * float(rng.uniform(0.3, 3.0))
        probe = strongly_exposes_probe(B, f, alphas, n_samples=300, rng_seed=i)
        assert (probe.diam_mode, probe.eps_mode, probe.recession) == ("exact", "exact", None)
        assert probe.slice_diams_upper == probe.slice_diams
        translated, unit = exposure_frame(B, f)
        r, nf = B.radius, float(np.linalg.norm(f))
        for j, (alpha, diam, eps) in enumerate(zip(alphas, probe.slice_diams,
                                                   probe.eps_of_alpha)):
            h = alpha / nf
            if d == 1:
                assert (diam, eps) == (min(h, 2.0 * r), 0.0)
            else:
                assert diam == pytest.approx(disc_slice_diameter(h, r), rel=1e-14)
                assert eps == pytest.approx(r * disc_min_shift_exact(alpha), rel=1e-12)
            if i == 0:
                assert diam >= _SAMPLED_BEFORE[d][0][j] and eps >= _SAMPLED_BEFORE[d][1][j]
            assert diam >= _diameter(slice_sample(B, f, alpha, 200, i)) - 1e-12 * r
            assert eps >= epsilon_alpha(translated, unit, alpha, n_boundary=300,
                                        rng_seed=i) - 1e-12 * r
        for k in (1.5, 1e3):  # at depth h = k r > r the slice holds a diameter
            g = f * (alphas[0] / (k * r * nf))
            diam = strongly_exposes_probe(B, g, alphas[:1], n_samples=20).slice_diams[0]
            assert diam == pytest.approx(min(k, 2.0) * r if d == 1 else 2.0 * r, rel=1e-12)


def test_exposure_probe_polygon_is_exact_at_its_vertices():
    """A polygon's slice diameter is the largest distance between the vertices of
    the clipped slice and its shift the largest over the translated vertices: on the
    triangle (0, 0), (-3, -1), (4, -1), the slice at depth alpha is 7 alpha wide and
    the corner (4, -1) needs the largest shift, above every sampled value."""
    P = Polygon2D([(0.0, 0.0), (-3.0, -1.0), (4.0, -1.0)])
    f, alphas = np.array([0.0, 1.0]), (0.5, 0.2, 0.05)
    probe = strongly_exposes_probe(P, f, alphas, n_samples=200, rng_seed=1)
    assert probe.eps_of_alpha[0] > 0.0
    for alpha, diam, eps in zip(alphas, probe.slice_diams, probe.eps_of_alpha):
        assert diam == pytest.approx(7.0 * alpha, rel=1e-12)
        assert eps == _shifts_into_cone(np.array([[4.0, -1.0]]), -f, (alpha,))[0, 0]
        assert diam >= _diameter(slice_sample(P, f, alpha, 200, 2)) - 1e-12
    translated, unit = exposure_frame(P, f)
    assert probe.eps_of_alpha[0] >= epsilon_alpha(translated, unit, alphas[0], 200, 1)


def test_exposure_probe_cone_bracket_holds_two_alpha():
    """The cone {y >= |x|} along f = (0, -1): its slices are triangles of diameter
    2*alpha; the certified bracket holds it, to the support runs' 1e-9."""
    cone = Polyhedron(np.array([[1.0, -1.0], [-1.0, -1.0]]), np.zeros(2),
                      witness=np.array([0.0, 1.0]))
    probe = strongly_exposes_probe(cone, [0.0, -1.0], [0.4, 0.2, 0.1, 0.05], n_samples=200)
    assert (probe.diam_mode, probe.eps_mode, probe.recession) == ("bounds", "sampled", None)
    for alpha, low, high in zip(probe.alphas, probe.slice_diams, probe.slice_diams_upper):
        assert low - 1e-9 <= 2.0 * alpha <= high + 1e-9 and high < math.inf


def test_polyhedron_slices_start_from_the_point_nearest_zero():
    """The frame test lets 0 miss the translated polyhedron by up to 1e-7; its
    slices start from the projection of 0, so a box that 0 misses by 1e-8 still
    gets a certified bracket of its slice [-1, 1] x [-0.5, -1e-8]."""
    T = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, -1e-8, 1.0, 1.0]),
                   witness=np.array([0.0, -0.5]))
    (low,), (high,), d = _polyhedron_slices(T, np.array([0.0, 1.0]), (0.5,))
    assert d is None and low - 1e-9 <= math.hypot(2.0, 0.5 - 1e-8) <= high + 1e-9 < math.inf


@pytest.mark.parametrize("d", [4, 6])
def test_exposure_probe_box_bracket_holds_alpha_root_two(d):
    """The corner of [-1, 1]^d along f = (1, ..., 1): the slice is the simplex
    spanned by the corner and its d neighbours at distance alpha along the edges,
    of diameter alpha*sqrt(2), which the bracket holds to 1e-9; its upper end is
    at most alpha*sqrt(d), the diagonal of the box of the corner's slice."""
    box = Polyhedron(np.vstack([np.eye(d), -np.eye(d)]), np.ones(2 * d), witness=np.zeros(d))
    probe = strongly_exposes_probe(box, np.ones(d), [0.4, 0.2, 0.1], n_samples=50)
    for alpha, low, high in zip(probe.alphas, probe.slice_diams, probe.slice_diams_upper):
        assert low - 1e-9 <= alpha * math.sqrt(2.0) <= high + 1e-9
        assert high <= alpha * math.sqrt(d) + 1e-9


def test_exposure_probe_six_dimensional_box_is_fast():
    """The 6-D box probe of 100 samples at alphas 0.2 and 0.1 once took 1.34 s, most
    of it rejecting Gaussian draws for its slice samples; its 25 certified support
    runs take a few hundredths of a second."""
    box = Polyhedron(np.vstack([np.eye(6), -np.eye(6)]), np.ones(12), witness=np.zeros(6))
    f = [1.0, 0.5, 0.5, 0.5, 0.5, 0.5]
    start = time.perf_counter()
    strongly_exposes_probe(box, f, [0.2, 0.1], n_samples=100)
    assert time.perf_counter() - start < 0.3


def test_exposure_probe_strip_is_unbounded_with_a_checked_direction():
    """The strip {0 <= y <= 1} along f = (0, 1) has a whole line as its face: every
    slice is unbounded and no shift puts it in a cone, so every number is inf, and
    the direction (1, 0) that shows it comes with the report."""
    strip = Polyhedron(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 0.0]),
                       witness=np.array([0.0, 0.5]))
    probe = strongly_exposes_probe(strip, [0.0, 1.0], [0.2, 0.1], n_samples=100)
    assert probe.slice_diams == probe.slice_diams_upper == probe.eps_of_alpha == \
        probe.ratios == (math.inf, math.inf)
    assert probe.recession in ((1.0, 0.0), (-1.0, 0.0))


def test_exposure_probe_invariant_validation():
    with pytest.raises(ValueError):
        ExposureProbe(alphas=(0.1, 0.2), eps_of_alpha=(0.0, 0.0),
                      slice_diams=(0.0, 0.0), ratios=(0.0, 0.0))
    with pytest.raises(ValueError):
        ExposureProbe(alphas=(0.2, 0.1), eps_of_alpha=(0.0, 0.1),
                      slice_diams=(0.0, 0.0), ratios=(0.0, 1.0))
    with pytest.raises(ValueError, match="low <= high"):
        ExposureProbe(alphas=(0.2,), eps_of_alpha=(0.0,), slice_diams=(1.0,), ratios=(0.0,),
                      diam_mode="bounds", slice_diams_upper=(0.5,))


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


@pytest.mark.parametrize("M", [1e-12, 1e-200, 1e-300])
def test_separation_constants_tiny_M_has_no_feasible_eps(M):
    """No eps in [1e-12, M) exists; M**2 underflowing to 0 is not a ZeroDivisionError."""
    with pytest.raises(ValueError, match="no feasible eps above 1e-12"):
        separation_constants(M, 0.5)


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


def _epsilon_one_at_a_time(A, f, alpha, n_boundary, rng_seed):
    """epsilon_alpha by bisection, one sample at a time: each shift is the upper
    end of a bracket narrower than 1e-10."""
    rng = np.random.default_rng(rng_seed)
    scales = np.geomspace(0.5, 1e3, 16)
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
    """The Attouch-Wets sampler equals its loop bit for bit; the closed-form
    epsilon_alpha lies in the loop's bisection bracket, to rounding."""
    for _ in range(6):
        A = polygon_containing_ball(rng)
        C = polygon_containing_ball(rng)
        n, seed = int(rng.integers(2, 400)), int(rng.integers(1000))
        est = aw_distance(A, C, 2, n_samples=n, rng_seed=seed)
        ref = np.random.default_rng(seed)
        assert est.e_A_to_C == _excess_one_at_a_time(A, C, 2, n, ref)
        assert est.e_C_to_A == _excess_one_at_a_time(C, A, 2, n, ref)
        f = np.array([0.0, 1.0])
        low = A.translate(-A.vertices[np.argmin(A.vertices @ f)])
        r = float(rng.uniform(0.5, 3.0))
        disc = Ball(np.array([0.0, r]), r)
        for S in (low, disc):
            alpha = float(rng.uniform(0.05, 0.9))
            ref = _epsilon_one_at_a_time(S, f, alpha, n, seed)
            est = epsilon_alpha(S, f, alpha, n_boundary=n, rng_seed=seed)
            assert ref - 1e-10 - 1e-12 <= est <= ref + 1e-12


def test_zero_support_direction_is_rejected():
    B = Ball(np.array([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="support direction must be nonzero"):
        slice_sample(B, np.zeros(2), 0.1, 10, 0)
    with pytest.raises(ValueError, match="support direction must be nonzero"):
        strongly_exposes_probe(B, np.zeros(2), [0.2, 0.1])


def _counted(monkeypatch, cls, name):
    """The list that every later call of ``cls.name`` appends its set to."""
    calls, method = [], getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda S, *a, **k: calls.append(S) or method(S, *a, **k))
    return calls


@pytest.mark.parametrize("alphas", [[0.2, 0.1], [0.4, 0.2, 0.1, 0.05]])
def test_exposure_probe_takes_support_and_boundary_sample_once(alphas, monkeypatch):
    """An exposure probe takes its support point once, however many alphas it has,
    and only a polyhedron draws a boundary sample: on a box one proximal support
    run for the point, 2d certified runs per slice and one boundary sample, whose
    eps values are those of epsilon_alpha at each alpha; a disc and a square draw
    nothing (no batch projection, no support value), their numbers being closed forms."""
    runs = _counted(monkeypatch, Polyhedron, "_support")
    samples = []
    sample = altproj.variational._boundary_sample
    monkeypatch.setattr(altproj.variational, "_boundary_sample",
                        lambda A, *a: samples.append(A) or sample(A, *a))
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4), witness=np.zeros(2))
    f = np.array([1.0, 0.5])
    probe = strongly_exposes_probe(box, f, alphas, n_samples=50)
    assert len(probe.slice_diams) == len(alphas) and len(runs) == 1 + 4 * len(alphas)
    assert probe.slice_diams[0] > 0.0 and box.support_value(f) == 1.5 and len(samples) == 1
    translated, unit = exposure_frame(box, f)
    assert probe.eps_of_alpha == tuple(epsilon_alpha(translated, unit, a, n_boundary=50)
                                       for a in alphas)
    samples.clear()
    counted = [_counted(monkeypatch, cls, name) for cls in (Ball, Polygon2D)
               for name in ("support_value", "project_many")]
    disc = Ball(np.array([0.0, 1.0]), 1.0)
    probe = strongly_exposes_probe(disc, [0.0, -1.0], alphas, n_samples=60, rng_seed=4)
    assert probe.eps_of_alpha == tuple(disc_min_shift_exact(a) for a in alphas)
    square = Polygon2D(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    probe = strongly_exposes_probe(square, [0.0, -1.0], alphas, n_samples=60, rng_seed=4)
    assert min(probe.slice_diams) > 1.0 and probe.eps_mode == "exact"
    assert samples == [] and all(calls == [] for calls in counted)


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
