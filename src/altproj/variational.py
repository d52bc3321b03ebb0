"""Quantitative probes for set convergence, exposure, and angle conditions.

Everything here is a measurement, not a proof: localized-Hausdorff
excesses are estimated from boundary-biased samples (exact closed forms
are used where the set kinds admit them), exposure is probed through
slice diameters and minimal cone-shift tables, and the subspace-angle
machinery reduces to singular values of a cross-Gram matrix.  All probes
take explicit RNG seeds and report how they were computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConeSpec, as_point, cone_contains, row_norms
from .sets import (AffineSubspace, DiagonalAffineGraph, Halfspace,
                   OrthoSubspace, SamplerFailure, _check_orthonormal, _support_direction,
                   slice_sample)


@dataclass(frozen=True)
class AwEstimate:
    """Localized Hausdorff distance h_N between two sets.

    ``mode`` is "exact" when a closed form (or a certified bound, for
    graph pairs) was available; "sampled" estimates are lower bounds of
    the true h_N and are reported as such.
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

    def as_dict(self):
        return {"N": self.N, "e_A_to_C": self.e_A_to_C, "e_C_to_A": self.e_C_to_A,
                "h_N": self.h_N, "n_samples": self.n_samples, "mode": self.mode}


@dataclass(frozen=True)
class ExposureProbe:
    """Slice-diameter and cone-shift table over a decreasing alpha grid."""

    alphas: tuple
    eps_of_alpha: tuple
    slice_diams: tuple
    ratios: tuple

    def __post_init__(self):
        k = len(self.alphas)
        if not (len(self.eps_of_alpha) == len(self.slice_diams) == len(self.ratios) == k):
            raise ValueError("probe lists must be aligned")
        if any(self.alphas[i] <= self.alphas[i + 1] for i in range(k - 1)):
            raise ValueError("alphas must be strictly decreasing")
        # Shift requirements shrink with the cone: eps nondecreasing in alpha.
        if any(self.eps_of_alpha[i] + 1e-12 < self.eps_of_alpha[i + 1] for i in range(k - 1)):
            raise ValueError("eps(alpha) must be nondecreasing in alpha")

    def as_dict(self):
        return {"alphas": list(self.alphas), "eps_of_alpha": list(self.eps_of_alpha),
                "slice_diams": list(self.slice_diams), "ratios": list(self.ratios)}


@dataclass(frozen=True)
class AngleReport:
    """Largest inner product between unit vectors of two subspaces."""

    omega: float
    principal_cosines: tuple

    def __post_init__(self):
        if abs(self.omega - max(self.principal_cosines)) > 1e-12:
            raise ValueError("omega must be the largest principal cosine")

    def as_dict(self):
        return {"omega": self.omega, "principal_cosines": list(self.principal_cosines)}


# ---------------------------------------------------------------------------
# Attouch-Wets distance


def _is_line(S):
    if isinstance(S, OrthoSubspace) and S.basis.shape[0] == 1:
        return True
    if isinstance(S, AffineSubspace) and S.basis.shape[0] == 1:
        return True
    return False


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


def _sampled_excess(A, C, N, n_samples, rng) -> float:
    """sup over sampled points of A in the N-ball of dist(., C).

    Samples are drawn in batches of at most the number still missing, so
    the draws, the budget and the result are those of drawing one at a time.
    """
    base = A.project(np.zeros(A.dim))
    if float(np.linalg.norm(base)) > N + 1e-9:
        raise SamplerFailure("set does not meet the N-ball")
    pts = [base[None]]
    count = 1
    scales = np.geomspace(0.25 * N, 2.0 * N, 8)
    tries = 0
    budget = 20 * n_samples
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


def aw_distance(A, C, N: int, n_samples: int = 2000, rng_seed: int = 0,
                mode: str = "auto") -> AwEstimate:
    """Localized Hausdorff distance h_N(A, C) = max of the two N-ball excesses.

    Closed forms handle halfspace pairs, linear-subspace pairs (principal
    angles), and affine-line pairs; diagonal-graph pairs use the certified
    bound N*||D - D'|| + ||offset - offset'||.  Everything else is
    estimated from boundary-biased samples and is a lower bound of the
    true value.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if mode not in ("auto", "sampled"):
        raise ValueError("mode must be 'auto' or 'sampled'")
    if mode == "auto":
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
            return AwEstimate(N, bound, bound, bound, 0, "exact")
    rng = np.random.default_rng(rng_seed)
    e1 = _sampled_excess(A, C, N, n_samples, rng)
    e2 = _sampled_excess(C, A, N, n_samples, rng)
    return AwEstimate(N, e1, e2, max(e1, e2), n_samples, "sampled")


# ---------------------------------------------------------------------------
# Exposure probes


def _min_shifts_into_cone(fa: np.ndarray, a: np.ndarray, x0: np.ndarray, alpha: float,
                          tol: float = 1e-10, cap: float = 1e12) -> np.ndarray:
    """Row i is the minimal lam >= 0 with fa[i] + lam >= alpha*||a[i] + lam*x0||.

    The defect lam -> fa + lam - alpha*||a + lam*x0|| is strictly
    increasing (alpha < 1), so bisection applies; every row is bisected at
    once, each on its own bracket until that bracket is narrower than
    ``tol`` or its midpoint rounds to one of its ends (above about 5e5 the
    spacing of doubles exceeds ``tol``).  A lam beyond ``cap`` reports
    infinity.
    """

    def g(lam, rows):
        return fa[rows] + lam - alpha * row_norms(a[rows] + lam[:, None] * x0)

    lam = np.zeros(len(fa))
    short = np.flatnonzero(~(g(lam, slice(None)) >= 0.0))
    hi = (alpha * row_norms(a[short]) - fa[short]) / (1.0 - alpha) + 1.0
    lam[short[hi > cap]] = math.inf
    rows, hi = short[hi <= cap], hi[hi <= cap]
    lo = np.zeros(len(rows))
    active = np.flatnonzero(hi - lo > tol)
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        stuck = (mid == lo[active]) | (mid == hi[active])
        up = g(mid, rows[active]) >= 0.0
        hi[active[up]] = mid[up]
        lo[active[~up]] = mid[~up]
        active = active[(hi[active] - lo[active] > tol) & ~stuck]
    lam[rows] = hi
    return lam


def epsilon_alpha(A, f, x0, alpha: float, n_boundary: int = 2000,
                  rng_seed: int = 0, max_radius: float = 1e3) -> float:
    """Sampled minimal shift lam with A inside the shifted cone C(f, alpha) - lam*x0.

    The set must already be translated and oriented so that 0 is in A and
    f attains its infimum over A at 0.  Returns the supremum of the
    per-sample minimal shifts over boundary-biased samples of A (a lower
    estimate of the true value, converging from below as n_boundary
    grows); unbounded sets against the cone report math.inf.
    """
    f = as_point(f)
    x0 = as_point(x0, dim=f.size)
    if abs(float(np.linalg.norm(f)) - 1.0) > 1e-9 or abs(float(np.linalg.norm(x0)) - 1.0) > 1e-9:
        raise ValueError("f and x0 must be unit vectors")
    if abs(float(np.dot(f, x0)) - 1.0) > 1e-9:
        raise ValueError("x0 must satisfy f(x0) = 1")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not A.membership(np.zeros(f.size), 1e-7):
        raise ValueError("0 must belong to the (pre-translated) set")
    rng = np.random.default_rng(rng_seed)
    scales = np.geomspace(0.5, max_radius, 16)
    s = scales[np.arange(n_boundary) % len(scales)]
    a = A.project_many(rng.standard_normal((n_boundary, f.size)) * s[:, None])
    fa = np.vecdot(a, f)
    lam = _min_shifts_into_cone(np.where(fa < 0.0, 0.0, fa), a, x0, alpha)
    # the first sample that breaks the orientation or needs an unbounded
    # shift decides, as it would in a sample-by-sample scan
    wrong, unbounded = fa < -1e-7, lam == math.inf
    if (wrong | unbounded).any():
        if wrong[int(np.argmax(wrong | unbounded))]:
            raise ValueError("f does not attain its infimum over the set at 0")
        return math.inf
    return float(lam.max(initial=0.0))


def _diameter(pts) -> float:
    """Largest distance between two of the points: the square root of the
    largest ``np.sum((p_i - p_j) ** 2)`` over all pairs, bit for bit.

    fl(a - b) = -fl(b - a), so the squared differences are symmetric and
    only the pairs j >= i are formed, 64 rows i at a time against the rows
    from i on; memory stays at 64 * len(pts) doubles per coordinate.  Below
    8 coordinates the squares are added one coordinate at a time, which is
    the order in which ``np.sum`` adds rows that short; from 8 on its
    order differs, so its own reduction is kept.
    """
    d = pts.shape[1]
    sq = 0.0
    for i in range(0, len(pts), 64):
        block, rest = pts[i:i + 64], pts[i:]
        if d < 8:
            acc = np.zeros((len(block), len(rest)))
            for k in range(d):
                diff = block[:, k, None] - rest[:, k]
                acc += diff * diff
        else:
            acc = np.sum((block[:, None, :] - rest) ** 2, axis=-1)
        sq = max(sq, float(acc.max()))
    return math.sqrt(sq)


def strongly_exposes_probe(A, f, alphas, n_samples: int = 400,
                           rng_seed: int = 0) -> ExposureProbe:
    """Slice diameters and shift ratios testing whether f strongly exposes A.

    Shrinking slice diameters together with ratios eps(alpha)/alpha
    falling toward 0 indicate strong exposure at the support point; a
    flat supporting face keeps the diameter bounded away from 0 and the
    ratios bounded away from 0.
    """
    f = _support_direction(f, A.dim)
    alphas = tuple(float(a) for a in alphas)
    A.support_value(f)  # raises if unbounded in direction f
    star = A.support_point(f)
    translated = A.translate(-star)
    fprime = -f / float(np.linalg.norm(f))
    diams = []
    eps_vals = []
    for i, alpha in enumerate(alphas):
        diams.append(_diameter(slice_sample(A, f, alpha, n_samples, rng_seed + i)))
        eps_vals.append(epsilon_alpha(translated, fprime, fprime, alpha,
                                      n_boundary=n_samples, rng_seed=rng_seed))
    ratios = tuple(e / a for e, a in zip(eps_vals, alphas))
    return ExposureProbe(alphas=alphas, eps_of_alpha=tuple(eps_vals),
                         slice_diams=tuple(diams), ratios=ratios)


def eventual_containment_probe(sets, cone: ConeSpec, n_samples: int = 400,
                               rng_seed: int = 0) -> list[bool]:
    """Per-set verdicts: all boundary-biased samples lie in the shifted cone."""
    rng = np.random.default_rng(rng_seed)
    flags = []
    for S in sets:
        pts = S.project_many(rng.standard_normal((n_samples, S.dim)) * 3.0)
        flags.append(bool(all(cone_contains(cone, p, tol=1e-9) for p in pts)))
    return flags


def first_containment_index(flags) -> int | None:
    """First index from which containment holds for the whole tested suffix."""
    idx = None
    for i, ok in enumerate(flags):
        if ok and idx is None:
            idx = i
        elif not ok:
            idx = None
    return idx


# ---------------------------------------------------------------------------
# Subspace-angle machinery


def wset_contains(w, U_basis, eps: float) -> bool:
    """Membership in the cone-with-core neighborhood of a subspace.

    True iff ||w|| <= eps, or the norm-matched closest subspace point
    u* = ||w|| * P_U(w)/||P_U(w)|| satisfies ||u* - w||^2 <= 2*eps*||w||^2
    (equivalently cos(w, P_U w) >= 1 - eps).  P_U(w) = 0 leaves only the
    core-ball branch.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    w = as_point(w)
    U = OrthoSubspace(U_basis) if not isinstance(U_basis, OrthoSubspace) else U_basis
    nw = float(np.linalg.norm(w))
    if nw <= eps:
        return True
    pw = U.project(w)
    npw = float(np.linalg.norm(pw))
    if npw == 0.0:
        return False
    ustar = nw * pw / npw
    return float(np.dot(ustar - w, ustar - w)) <= 2.0 * eps * nw ** 2


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
    if lhs(lo) > eta:
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


# ---------------------------------------------------------------------------
# Standalone geometric fact checks


def check_fact_norms(C, eps: float, K: float, n_trials: int = 10_000,
                     rng_seed: int = 0) -> float:
    """Max violation of ||x - Px|| <= (K/eps)*(||x|| - ||Px||) over K-ball trials.

    Requires eps*B inside C (verified by membership sampling); a
    nonpositive return (up to rounding) confirms the bound.
    """
    if eps <= 0 or K <= 0:
        raise ValueError("eps and K must be positive")
    rng = np.random.default_rng(rng_seed)
    d = C.dim
    for _ in range(256):
        u = rng.standard_normal(d)
        u /= float(np.linalg.norm(u))
        if not C.membership(eps * u, 1e-9):
            raise ValueError("eps-ball is not contained in the set")
    mu = K / eps
    worst = -math.inf
    for _ in range(n_trials):
        u = rng.standard_normal(d)
        u /= float(np.linalg.norm(u))
        r = K * rng.uniform() ** (1.0 / d) if rng.uniform() < 0.5 else K * rng.uniform()
        x = r * u
        px = C.project(x)
        lhs = float(np.linalg.norm(x - px))
        rhs = mu * (float(np.linalg.norm(x)) - float(np.linalg.norm(px)))
        worst = max(worst, lhs - rhs)
    return worst


def sample_cone_point(x0, theta: float, kind: str, rng, dim: int | None = None,
                      radius_range=(0.1, 10.0)) -> np.ndarray:
    """Random nonzero point of C(theta) or V(theta) with axis x0."""
    x0 = as_point(x0) if dim is None else as_point(x0, dim=dim)
    d = x0.size
    if kind == "C":
        psi = rng.uniform(0.0, np.pi / 2 - theta)
    elif kind == "V":
        psi = rng.uniform(np.pi / 2 - theta, np.pi)
    else:
        raise ValueError("kind must be 'C' or 'V'")
    w = rng.standard_normal(d)
    w -= float(np.dot(w, x0)) * x0
    nw = float(np.linalg.norm(w))
    while nw < 1e-12:
        w = rng.standard_normal(d)
        w -= float(np.dot(w, x0)) * x0
        nw = float(np.linalg.norm(w))
    w /= nw
    r = rng.uniform(*radius_range)
    return r * (math.cos(psi) * x0 + math.sin(psi) * w)


def check_cos_separation(theta1: float, theta2: float, n_trials: int = 100_000,
                         rng_seed: int = 0, dim: int = 5) -> float:
    """Max violation of cos(x, y) <= cos(theta2 - theta1) over cone samples.

    x ranges over the convex cone with half-angle complement theta2, y
    over the complementary cone at theta1 < theta2; the bound is tight on
    the common-plane boundary configuration.
    """
    if not (0.0 < theta1 < theta2 < np.pi / 2):
        raise ValueError("need 0 < theta1 < theta2 < pi/2")
    rng = np.random.default_rng(rng_seed)
    x0 = np.zeros(dim)
    x0[0] = 1.0
    bound = math.cos(theta2 - theta1)
    # vectorized: x = cos(psi_x)*x0 + sin(psi_x)*w_x, psi_x in [0, pi/2-theta2]
    psi_x = rng.uniform(0.0, np.pi / 2 - theta2, size=n_trials)
    psi_y = rng.uniform(np.pi / 2 - theta1, np.pi, size=n_trials)
    wx = rng.standard_normal((n_trials, dim))
    wy = rng.standard_normal((n_trials, dim))
    wx[:, 0] = 0.0
    wy[:, 0] = 0.0
    wx /= np.linalg.norm(wx, axis=1, keepdims=True)
    wy /= np.linalg.norm(wy, axis=1, keepdims=True)
    x = np.cos(psi_x)[:, None] * x0 + np.sin(psi_x)[:, None] * wx
    y = np.cos(psi_y)[:, None] * x0 + np.sin(psi_y)[:, None] * wy
    cosxy = np.sum(x * y, axis=1) / (np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))
    return float(np.max(cosxy) - bound)
