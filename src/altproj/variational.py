"""Quantitative probes for set convergence, exposure, and angle conditions.

Everything here is a measurement, not a proof: localized-Hausdorff
excesses are estimated from boundary-biased samples (closed forms, or a
certified bound, are used where the set kinds admit them), exposure is
probed through slice diameters and least cone shifts, in closed form for
balls and polygons and as certified brackets and sampled shifts for
polyhedra, and the subspace-angle machinery reduces to
singular values of a cross-Gram matrix.  All probes take explicit RNG
seeds and report how they were computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_point, row_norms
from .sets import (AffineSubspace, Ball, DiagonalAffineGraph, Halfspace, OrthoSubspace,
                   Polygon2D, Polyhedron, ProjectionCertificateError, SamplerFailure,
                   SupportUnavailable, _check_orthonormal, _clip_polygon_halfplane,
                   _recession_direction, _support_direction)


@dataclass(frozen=True)
class AwEstimate:
    """Localized Hausdorff distance h_N between two sets.

    ``mode`` is "exact" when a closed form was available, "bound" for the
    certified upper bound of a graph pair, and "sampled" for estimates,
    which are lower bounds of the true h_N.
    """

    N: int
    e_A_to_C: float
    e_C_to_A: float
    h_N: float
    n_samples: int
    mode: str

    def __post_init__(self):
        if abs(self.h_N - max(self.e_A_to_C, self.e_C_to_A)) > 1e-12:
            raise ValueError("h_N must be the max of the two excesses")


@dataclass(frozen=True)
class ExposureProbe:
    """Slice-diameter and cone-shift table over a decreasing alpha grid.

    ``diam_mode`` is "exact" for closed forms (balls, polygons) or "bounds": the
    diameter lies in [slice_diams[i], slice_diams_upper[i]], whose upper end is inf
    where a support run could not be certified (polyhedra).  ``eps_mode`` is "exact"
    or "sampled", a lower bound from boundary samples; ``ratios`` share it.  Both
    are inf at every alpha when the slices are unbounded, and ``recession`` is then
    the checked direction in f^perp that shows it, else None.  ``slice_diams_upper``
    defaults to ``slice_diams``.
    """

    alphas: tuple
    eps_of_alpha: tuple
    slice_diams: tuple
    ratios: tuple
    diam_mode: str = "exact"
    eps_mode: str = "exact"
    slice_diams_upper: tuple = None
    recession: tuple = None

    def __post_init__(self):
        if self.slice_diams_upper is None:
            object.__setattr__(self, "slice_diams_upper", self.slice_diams)
        k = len(self.alphas)
        if not (len(self.eps_of_alpha) == len(self.slice_diams) == len(self.ratios)
                == len(self.slice_diams_upper) == k):
            raise ValueError("probe lists must be aligned")
        if any(self.alphas[i] <= self.alphas[i + 1] for i in range(k - 1)):
            raise ValueError("alphas must be strictly decreasing")
        # Shift requirements shrink with the cone: eps nondecreasing in alpha.
        if any(self.eps_of_alpha[i] + 1e-12 < self.eps_of_alpha[i + 1] for i in range(k - 1)):
            raise ValueError("eps(alpha) must be nondecreasing in alpha")
        if any(not lo <= hi for lo, hi in zip(self.slice_diams, self.slice_diams_upper)):
            raise ValueError("slice diameter brackets must have low <= high")


@dataclass(frozen=True)
class AngleReport:
    """Largest inner product between unit vectors of two subspaces."""

    omega: float
    principal_cosines: tuple

    def __post_init__(self):
        if abs(self.omega - max(self.principal_cosines)) > 1e-12:
            raise ValueError("omega must be the largest principal cosine")


# ---------------------------------------------------------------------------
# Attouch-Wets distance


def _is_line(S):
    return isinstance(S, (OrthoSubspace, AffineSubspace)) and S.basis.shape[0] == 1


def _line_anchor_dir(S):
    """The line's point closest to the origin, and its direction."""
    return S.project(np.zeros(S.dim)), S.basis[0]


def _excess_halfspace(H1: Halfspace, H2: Halfspace, N: int) -> float:
    if H1.b < -N:
        return 0.0  # H1 misses the N-ball entirely
    gamma = float(np.dot(H1.a, H2.a))
    # orthogonal component of the target normal, computed directly so that
    # parallel normals give exactly ~0 instead of sqrt-of-rounding noise
    sin_gamma = float(np.linalg.norm(H2.a - gamma * H1.a))
    if H1.b >= N or gamma * N <= H1.b:
        val = float(N)
    else:
        val = gamma * H1.b + sin_gamma * math.sqrt(max(0.0, N ** 2 - H1.b ** 2))
    return max(0.0, val - H2.b)


def _excess_subspace(U: OrthoSubspace, W: OrthoSubspace, N: int) -> float:
    M = W.basis @ U.basis.T
    svals = np.linalg.svd(M, compute_uv=False)
    k_u = U.basis.shape[0]
    s_min = float(svals[k_u - 1]) if k_u <= W.basis.shape[0] else 0.0
    s_min = min(1.0, max(0.0, s_min))
    return N * math.sqrt(max(0.0, 1.0 - s_min ** 2))


def _excess_line(L1, L2, N: int) -> float:
    p, u = _line_anchor_dir(L1)
    q, v = _line_anchor_dir(L2)
    np_ = float(np.linalg.norm(p))
    if np_ > N:
        return 0.0
    R = math.sqrt(max(0.0, N ** 2 - np_ ** 2))
    w = (p - q) - v * float(np.dot(v, p - q))
    mu = u - v * float(np.dot(v, u))
    return max(float(np.linalg.norm(w + R * mu)), float(np.linalg.norm(w - R * mu)))


def _sampled_excess(A, C, N, n_samples, rng, scales) -> float:
    """sup over sampled points of A in the N-ball of dist(., C), the draws scaled by scales in turn.

    Samples are drawn in batches of at most the number still missing, so
    the draws, the budget and the result are those of drawing one at a time.
    """
    base = A.project(np.zeros(A.dim))
    if float(np.linalg.norm(base)) > N + 1e-9:
        raise SamplerFailure("set does not meet the N-ball")
    pts, count, tries, budget = [base[None]], 1, 0, 20 * n_samples
    while count < n_samples and tries < budget:
        k = min(n_samples - count, budget - tries)
        s = scales[np.arange(tries, tries + k) % len(scales)]
        X = A.project_many(rng.standard_normal((k, A.dim)) * s[:, None])
        tries += k
        # pull samples outside the ball back along the segment to base (by a
        # factor below 0.999); the pulled point stays in A
        nx = row_norms(X)
        out = nx > N + 1e-12
        X[out] = base + ((N * 0.999) / nx[out])[:, None] * (X[out] - base)
        X = X[row_norms(X) <= N + 1e-12]
        pts.append(X)
        count += len(X)
    return float(C.distance_many(np.concatenate(pts)).max())


_AW_SAMPLES = 1500  # the aw probe's default n_samples, read by the CLI too


def aw_distance(A, C, N: int, n_samples: int = _AW_SAMPLES, rng_seed: int = 0) -> AwEstimate:
    """Localized Hausdorff distance h_N(A, C) = max of the two N-ball excesses.

    Closed forms handle halfspace pairs, linear-subspace pairs (principal
    angles), and affine-line pairs; diagonal-graph pairs report the
    certified bound N*||D - D'|| + ||offset - offset'|| with mode "bound".
    Everything else is estimated from boundary-biased samples and is a
    lower bound of the true value.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if isinstance(A, Halfspace) and isinstance(C, Halfspace):
        e1, e2 = _excess_halfspace(A, C, N), _excess_halfspace(C, A, N)
        return AwEstimate(N, e1, e2, max(e1, e2), 0, "exact")
    if _is_line(A) and _is_line(C) and A.dim == C.dim:
        e1, e2 = _excess_line(A, C, N), _excess_line(C, A, N)
        return AwEstimate(N, e1, e2, max(e1, e2), 0, "exact")
    if isinstance(A, OrthoSubspace) and isinstance(C, OrthoSubspace):
        e1, e2 = _excess_subspace(A, C, N), _excess_subspace(C, A, N)
        return AwEstimate(N, e1, e2, max(e1, e2), 0, "exact")
    if (isinstance(A, DiagonalAffineGraph) and isinstance(C, DiagonalAffineGraph)
            and A.half_dim == C.half_dim):
        bound = N * float(np.max(np.abs(A.theta - C.theta))) + \
            float(np.linalg.norm(A.offset - C.offset))
        return AwEstimate(N, bound, bound, bound, 0, "bound")
    rng = np.random.default_rng(rng_seed)
    scales = np.geomspace(0.25 * N, 2.0 * N, 8)
    e1 = _sampled_excess(A, C, N, n_samples, rng, scales)
    e2 = _sampled_excess(C, A, N, n_samples, rng, scales)
    return AwEstimate(N, e1, e2, max(e1, e2), n_samples, "sampled")


# ---------------------------------------------------------------------------
# Exposure probes


def _shifts_into_cone(a: np.ndarray, f: np.ndarray, alphas) -> np.ndarray:
    """Entry (i, j) is the least lam >= 0 with a[i] + lam*f in the cone
    C(f, alpha_j) = {x : <f, x> >= alpha_j*||x||}.

    With t = <f, a> + lam and p = ||a - <f, a> f||, the point is in the cone
    when t >= alpha*||(t, p)||, i.e. t >= alpha*p / sqrt(1 - alpha^2); so
    lam = max(0, alpha*p / sqrt(1 - alpha^2) - <f, a>).  1 - alpha^2 is
    taken as (1 - alpha)(1 + alpha), which keeps its digits as alpha nears 1.
    """
    fa = np.vecdot(a, f)
    p = row_norms(a - fa[:, None] * f)
    slopes = np.array([alpha / math.sqrt((1.0 - alpha) * (1.0 + alpha)) for alpha in alphas])
    return np.maximum(0.0, p[:, None] * slopes - fa[:, None])


def _check_alphas(alphas):
    if not all(0.0 < alpha < 1.0 for alpha in alphas):
        raise ValueError("alpha must lie in (0, 1)")


def _boundary_sample(A, f, n_boundary, rng_seed) -> np.ndarray:
    """n_boundary points of A in the probe's frame, which they test: 0 is in A
    (to 1e-7) and f attains its infimum over A at 0 (no point has <f, a> < -1e-7).

    The points project Gaussian draws at 16 scales from 0.5 to 1e3; P_A is
    nonexpansive and 0 is in A, so ||a|| <= ||draw|| + 2e-7."""
    if not A.membership(np.zeros(f.size), 1e-7):
        raise ValueError("0 must belong to the (pre-translated) set")
    rng = np.random.default_rng(rng_seed)
    scales = np.geomspace(0.5, 1e3, 16)
    s = scales[np.arange(n_boundary) % len(scales)]
    a = A.project_many(rng.standard_normal((n_boundary, f.size)) * s[:, None])
    if (np.vecdot(a, f) < -1e-7).any():
        raise ValueError("f does not attain its infimum over the set at 0")
    return a


def _largest_shifts(a, f, alphas) -> list:
    """The largest shift into C(f, alpha) over the points a, at each alpha."""
    return _shifts_into_cone(a, f, alphas).max(axis=0, initial=0.0).tolist()


def epsilon_alpha(A, f, alpha: float, n_boundary: int = 2000, rng_seed: int = 0) -> float:
    """Sampled minimal shift lam with A inside the shifted cone C(f, alpha) - lam*f.

    The set must already be translated and oriented so that 0 is in A and
    f attains its infimum over A at 0.  Returns the supremum of the
    per-sample minimal shifts over boundary-biased samples of A (a lower
    estimate of the true value, converging from below as n_boundary
    grows); ``strongly_exposes_probe`` takes them for a polyhedron only.
    The cone shifts along f itself: a unit x0 with f(x0) = 1 is f by
    Cauchy-Schwarz, so there is no separate shift direction to pass.
    """
    f = as_point(f)
    if abs(float(np.linalg.norm(f)) - 1.0) > 1e-9:
        raise ValueError("f must be a unit vector")
    _check_alphas((alpha,))
    return _largest_shifts(_boundary_sample(A, f, n_boundary, rng_seed), f, (alpha,))[0]


def _diameter(pts) -> float:
    """Largest distance between two of the points, from every ordered pair."""
    return math.sqrt(float(np.sum((pts[:, None, :] - pts) ** 2, axis=-1).max()))


def _ball_exposure(A: Ball, f, alphas):
    """Exact slice diameters and shifts of a ball.  The slice is a cap of depth
    h = alpha / ||f||, of diameter 2 sqrt(h(2r - h)) below h = r and 2r from there.
    Shifted by lam, the centre lies r + lam along the cone's axis, and C(f, alpha)
    holds the ball once r <= (r + lam) sqrt(1 - alpha^2).  In one dimension the
    slice is a segment of length min(h, 2r) and the cone a half-line that holds
    the ball already."""
    r, nf = A.radius, float(np.linalg.norm(f))
    hs = [alpha / nf for alpha in alphas]
    if A.dim == 1:
        return [min(h, 2.0 * r) for h in hs], [0.0] * len(alphas)
    return ([2.0 * math.sqrt(h * (2.0 * r - h)) if h < r else 2.0 * r for h in hs],
            [r * (1.0 / math.sqrt((1.0 - a) * (1.0 + a)) - 1.0) for a in alphas])


def _polyhedron_slices(T: Polyhedron, f, alphas):
    """(lows, highs, d) for the slices {y in T : <-f, y> <= alpha} of T, which has its
    support point at 0.  Certified support points along +-e_i give a slice's low, the
    largest distance between them, and its high, the diagonal of their box; a run that
    cannot be certified makes high inf.  A run that finds a slice unbounded gives a
    recession direction d in f^perp checked by ``sets._recession_direction``; as the
    slices share their recession cone, every low and high is then inf.  Else d is None."""
    lows, highs, E, w = [], [], np.eye(T.dim), T.project(np.zeros(T.dim))
    for alpha in alphas:
        try:  # 0 is in T only to 1e-7 (the frame test), its projection w to 1e-9
            S = Polyhedron(np.vstack((T.normals, -f)), np.append(T.b, alpha), w)
        except ValueError:  # w misses a slice thinner than its distance to 0
            return (0.0,) * len(alphas), (math.inf,) * len(alphas), None
        found = []
        for g in np.vstack((E, -E)):
            try:
                found.append(S.support_point(g))
            except (SupportUnavailable, ProjectionCertificateError):
                d = _recession_direction(S, g, f)
                if d is not None:
                    return (math.inf,) * len(alphas), (math.inf,) * len(alphas), d
        P = np.array(found).reshape(-1, T.dim)
        lows.append(_diameter(P) if len(P) else 0.0)
        highs.append(float(np.linalg.norm(np.ptp(P, axis=0))) if len(P) == 2 * T.dim
                     else math.inf)
    return tuple(lows), tuple(highs), None


_EXPOSURE_SAMPLES = 400  # the exposure probe's default n_samples, read by the CLI too


def exposure_frame(A, f):
    """(A - x*, -f / ||f||) for the support point x* of A along f: the set
    and unit functional ``epsilon_alpha`` takes, with the infimum at 0."""
    f = _support_direction(f, A.dim)
    return A.translate(-A.support_point(f)), -f / float(np.linalg.norm(f))


def strongly_exposes_probe(A, f, alphas, n_samples: int = _EXPOSURE_SAMPLES,
                           rng_seed: int = 0) -> ExposureProbe:
    """Slice diameters and shift ratios testing whether f strongly exposes A.

    Shrinking slice diameters together with ratios eps(alpha)/alpha
    falling toward 0 indicate strong exposure at the support point; a
    flat supporting face keeps the diameter bounded away from 0 and the
    ratios bounded away from 0.  Balls and polygons get closed forms and draw
    nothing; a polyhedron gets certified brackets and shifts sampled from
    ``n_samples`` points of its translated set, which test the frame as
    ``epsilon_alpha``'s do (see ``ExposureProbe``).
    """
    alphas = tuple(float(a) for a in alphas)
    translated, fprime = exposure_frame(A, f)  # SupportUnavailable where there is no x*
    f = _support_direction(f, A.dim)
    _check_alphas(alphas)
    highs = recession = None
    if isinstance(A, Ball):
        lows, eps = _ball_exposure(A, f, alphas)
    elif isinstance(A, Polygon2D):  # the shift is convex, so a vertex attains its maximum
        lows = [_diameter(_clip_polygon_halfplane(translated.vertices, f, -alpha))
                for alpha in alphas]
        eps = _largest_shifts(translated.vertices, fprime, alphas)
    else:
        a = _boundary_sample(translated, fprime, n_samples, rng_seed)
        lows, highs, recession = _polyhedron_slices(translated, f, alphas)
        eps = highs if recession else _largest_shifts(a, fprime, alphas)
    return ExposureProbe(alphas, tuple(eps), tuple(lows),
                         tuple(e / alpha for e, alpha in zip(eps, alphas)),
                         *(("exact",) * 2 if highs is None else ("bounds", "sampled")),
                         highs, recession)


# ---------------------------------------------------------------------------
# Subspace-angle machinery


def omega_angle(U_basis, V_basis) -> AngleReport:
    """Principal cosines between two subspaces; omega is the largest.

    omega < 1 characterizes trivial intersection in finite dimension (and
    closed sum); it is the cosine of the Friedrichs angle.
    """
    U = np.asarray(U_basis, dtype=float)
    V = np.asarray(V_basis, dtype=float)
    if U.ndim != 2 or V.ndim != 2 or U.shape[0] < 1 or V.shape[0] < 1:
        raise ValueError("bases must be nonempty (k, d) arrays")
    for name, basis in (("U_basis", U), ("V_basis", V)):
        if not np.isfinite(basis).all():
            raise ValueError(f"{name} has non-finite entries")
    _check_orthonormal(U)
    _check_orthonormal(V)
    G = U @ V.T
    svals = np.clip(np.linalg.svd(G, compute_uv=False), 0.0, 1.0)
    return AngleReport(omega=float(svals[0]), principal_cosines=tuple(float(s) for s in svals))


def separation_constants(M: float, omega: float) -> tuple[float, float]:
    """Admissible (eps, eta) for the product-angle bound at scale M.

    Returns eta = (omega + 1)/2 and the largest eps (by bisection) with
    (M/(M-eps))^2 * (omega + 15*sqrt(eps)/M^2) <= eta and eps < M.
    Raises when no eps above 1e-12 is feasible (omega too close to 1).
    """
    if not (0.0 < M < 1.0):
        raise ValueError("M must lie in (0, 1)")
    if not (0.0 <= omega < 1.0):
        raise ValueError("omega must lie in [0, 1)")
    eta = 0.5 * (omega + 1.0)

    def lhs(eps):
        return (M / (M - eps)) ** 2 * (omega + 15.0 * math.sqrt(eps) / M ** 2)

    lo = 1e-12
    if M <= lo or lhs(lo) > eta:  # eps < M; and M**2 could underflow to 0
        raise ValueError("no feasible eps above 1e-12 for this (M, omega)")
    hi = M * (1.0 - 1e-9)
    if lhs(hi) <= eta:
        lo = hi
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if lhs(mid) <= eta:
                lo = mid
            else:
                hi = mid
    assert lhs(lo) <= eta and 0.0 < lo < M
    return lo, eta
