"""Independent oracles used to freeze expected values in the tests.

Everything here deliberately avoids the library's own computational
paths: golden-section line search instead of the projection closed form,
face enumeration and cyclic Dykstra instead of the active-set NNLS,
random-restart polishing instead of the SVD, and closed-form plane
geometry worked out by hand.  The slice-diameter and slice-sampler
references are the plain one-pair-block and one-point-at-a-time versions
that the library's batched kernels must reproduce bit for bit, and the
scalar distance closed forms are those that ``distance``, now row 0 of
``distance_many``, must reproduce bit for bit.
"""

import itertools
import math

import numpy as np

from altproj.sets import (AffineSubspace, Ball, DiagonalAffineGraph,
                          Halfspace, Hyperplane, NonnegOrthant, OrthoSubspace,
                          Polygon2D, Polyhedron, _clip_polygon_halfplane)


def golden_section_min(fun, lo, hi, tol=1e-12):
    """Minimize a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def graph_projection_first_coords_oracle(theta, offset, z):
    """Per-coordinate minimization of the squared graph distance.

    Golden-section search brackets the minimizer (flatness limits it to
    ~sqrt(eps)), then sign-bisection on the analytic derivative sharpens
    the location to ~1e-12; neither step uses the projection formula.
    """
    theta = np.asarray(theta, dtype=float)
    offset = np.asarray(offset, dtype=float)
    d = theta.size
    alpha, beta = z[:d], z[d:]
    out = np.empty(d)
    for n in range(d):
        def fn(x, n=n):
            return (x - alpha[n]) ** 2 + (offset[n] + theta[n] * x - beta[n]) ** 2

        def dfn(x, n=n):
            return 2.0 * (x - alpha[n]) + 2.0 * theta[n] * (offset[n] + theta[n] * x - beta[n])

        span = 1.0 + abs(alpha[n]) + abs(beta[n]) + abs(offset[n])
        rough = golden_section_min(fn, -10 * span, 10 * span, tol=1e-9)
        lo, hi = rough - 1e-5 * span, rough + 1e-5 * span
        assert dfn(lo) <= 0.0 <= dfn(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dfn(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        out[n] = 0.5 * (lo + hi)
    return out


def polyhedron_projection_bruteforce(P: Polyhedron, x, tol=1e-9):
    """Projection via face enumeration (KKT candidates), d <= 3 only."""
    A, b = P.normals, P.b
    d = A.shape[1]
    assert d <= 3
    x = np.asarray(x, dtype=float)
    best, best_d = None, np.inf
    m = A.shape[0]
    for r in range(0, d + 1):
        for idx in itertools.combinations(range(m), r):
            if r == 0:
                cand = x.copy()
            else:
                sub = A[list(idx)]
                if np.linalg.matrix_rank(sub) < r:
                    continue
                # projection onto the affine set {sub @ y = b[idx]}
                G = sub @ sub.T
                try:
                    lam = np.linalg.solve(G, sub @ x - b[list(idx)])
                except np.linalg.LinAlgError:
                    continue
                cand = x - sub.T @ lam
            if np.all(A @ cand <= b + tol):
                dist = float(np.linalg.norm(x - cand))
                if dist < best_d:
                    best, best_d = cand, dist
    assert best is not None
    return best


def polyhedron_project_dykstra(P: Polyhedron, x, tol=1e-10, max_iter=100_000):
    """Project onto an intersection of halfspaces by cyclic Dykstra.

    Iterates cycles of halfspace projections with correction terms and
    stops when the sum over the halfspaces of the squared changes of their
    corrections in one cycle drops below tol**2 (Birgin & Raydan, SIAM J.
    Sci. Comput. 26(4), 2005).  The iterate's own displacement is no
    stopping test: Dykstra admits long plateaus where the iterate freezes
    while the corrections rebalance.  Raises RuntimeError when the budget
    runs out.
    """
    x = np.asarray(x, dtype=float)
    A, b = P.normals, P.b
    m = A.shape[0]
    if bool(np.all(A @ x <= b)):
        return x.copy()
    y = x.copy()
    corrections = np.zeros((m, P.dim))
    for _ in range(max_iter):
        change = 0.0
        for i in range(m):
            z = y + corrections[i]
            excess = float(np.dot(A[i], z)) - b[i]
            y = z - max(0.0, excess) * A[i]
            new = z - y
            step = new - corrections[i]
            change += float(np.dot(step, step))
            corrections[i] = new
        if change < tol * tol:
            return y
    raise RuntimeError(f"Dykstra did not converge within {max_iter} cycles "
                       f"(last squared correction change {change:.3e})")


def omega_bruteforce(U, V, n_samples=200_000, rng=None, polish=True):
    """Max inner product of unit vectors of two subspaces by search.

    Random sampling over the coefficient spheres plus an optional
    derivative-free polish; independent of any SVD computation.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    ku, kv = U.shape[0], V.shape[0]
    cu = rng.standard_normal((n_samples, ku))
    cv = rng.standard_normal((n_samples, kv))
    cu /= np.linalg.norm(cu, axis=1, keepdims=True)
    cv /= np.linalg.norm(cv, axis=1, keepdims=True)
    vals = np.abs(np.sum((cu @ U) * (cv @ V), axis=1))
    best = float(np.max(vals))
    if not polish:
        return best
    i = int(np.argmax(vals))
    from scipy.optimize import minimize

    def neg(z):
        a, b = z[:ku], z[ku:]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na < 1e-12 or nb < 1e-12:
            return 0.0
        return -abs(float((a / na) @ U @ (V.T @ (b / nb))))

    z0 = np.concatenate([cu[i], cv[i]])
    res = minimize(neg, z0, method="Nelder-Mead",
                   options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
    return max(best, -float(res.fun))


DISTANCE_CLOSED_FORMS = {
    Halfspace: lambda S, x: max(0.0, float(np.dot(S.a, x)) - S.b),
    Hyperplane: lambda S, x: abs(float(np.dot(S.a, x)) - S.b),
    Ball: lambda S, x: max(0.0, float(np.linalg.norm(x - S.center)) - S.radius),
    NonnegOrthant: lambda S, x: float(np.linalg.norm(np.minimum(x, 0.0))),
}


def disc_slice_diameter(alpha, radius=1.0):
    """Diameter of the cap of a disc cut at depth alpha below the top."""
    a = min(alpha, 2.0 * radius)
    return 2.0 * math.sqrt(a * (2.0 * radius - a))


def diameter_reference(pts):
    """Largest pairwise distance from every ordered pair, 64 rows at a time,
    with the squared differences summed by ``np.sum``."""
    sq = max(float(np.max(np.sum((pts[i:i + 64, None, :] - pts) ** 2, axis=-1)))
             for i in range(0, len(pts), 64))
    return math.sqrt(sq)


def ball_slice_reference(B: Ball, f, alpha, n_samples, rng_seed):
    """The cap sampler of ``slice_sample`` one point at a time (d >= 2)."""
    rng = np.random.default_rng(rng_seed)
    f = np.asarray(f, dtype=float)
    level = B.support_value(f) - alpha
    fhat = f / float(np.linalg.norm(f))
    pts = [B.support_point(f)]
    cos_min = max(-1.0, (level - float(np.dot(f, B.center))) /
                  (B.radius * float(np.linalg.norm(f))))
    psi_max = float(np.arccos(np.clip(cos_min, -1.0, 1.0)))
    d = B.dim
    while len(pts) < n_samples:
        psi = rng.uniform(0.0, psi_max)
        w = rng.standard_normal(d)
        w -= float(np.dot(w, fhat)) * fhat
        nw = float(np.linalg.norm(w))
        if nw < 1e-14:
            continue
        w /= nw
        u = np.cos(psi) * fhat + np.sin(psi) * w
        r = B.radius * (1.0 if rng.uniform() < 0.7 else rng.uniform() ** (1.0 / d))
        x = B.center + r * u
        if float(np.dot(f, x)) >= level - 1e-12:
            pts.append(x)
    return np.array(pts[:n_samples])


def polygon_slice_reference(P: Polygon2D, f, alpha, n_samples, rng_seed):
    """The clipped-polygon sampler of ``slice_sample`` one point at a time."""
    rng = np.random.default_rng(rng_seed)
    f = np.asarray(f, dtype=float)
    clipped = _clip_polygon_halfplane(P.vertices, f, P.support_value(f) - alpha)
    pts = list(clipped)
    m = len(clipped)
    while len(pts) < n_samples:
        if m == 1:
            pts.append(clipped[0].copy())
            continue
        if rng.uniform() < 0.5 or m == 2:
            i = rng.integers(m)
            j = (i + 1) % m
            t = rng.uniform()
            pts.append((1 - t) * clipped[i] + t * clipped[j])
        else:
            w = rng.dirichlet(np.ones(m))
            pts.append(w @ clipped)
    return np.array(pts[:n_samples])


def disc_min_shift_exact(alpha):
    """Exact minimal cone shift for the unit disc resting at the origin.

    For the disc centered at (0, 1) with f = e2, the worst boundary point
    sits at height 1 - sqrt(1 - alpha^2) and the minimal shift works out
    to 1/sqrt(1 - alpha^2) - 1 (plane geometry, maximized over the
    boundary parametrization by hand).
    """
    return 1.0 / math.sqrt(1.0 - alpha * alpha) - 1.0


def random_set(kind, rng, dim=None):
    """Random well-conditioned instance of a given set kind."""
    if kind == "halfspace":
        d = dim or int(rng.integers(2, 6))
        return Halfspace(rng.standard_normal(d), float(rng.uniform(-2, 2)))
    if kind == "hyperplane":
        d = dim or int(rng.integers(2, 6))
        return Hyperplane(rng.standard_normal(d), float(rng.uniform(-2, 2)))
    if kind == "ball":
        d = dim or int(rng.integers(2, 6))
        return Ball(rng.standard_normal(d), float(rng.uniform(0.3, 3.0)))
    if kind == "polygon2d":
        m = int(rng.integers(3, 9))
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=m))
        radii = rng.uniform(0.5, 3.0, size=m)
        pts = np.c_[radii * np.cos(angles), radii * np.sin(angles)]
        pts += rng.uniform(-1, 1, size=2)
        return Polygon2D(pts)
    if kind == "ortho_subspace":
        d = dim or int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        return OrthoSubspace(q.T)
    if kind == "affine_subspace":
        d = dim or int(rng.integers(2, 7))
        k = int(rng.integers(1, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, k)))
        return AffineSubspace(rng.standard_normal(d),  q.T)
    if kind == "nonneg_orthant":
        return NonnegOrthant(dim or int(rng.integers(2, 6)))
    if kind == "polyhedron":
        d = dim or int(rng.integers(2, 4))
        m = int(rng.integers(d, d + 3))
        center = rng.standard_normal(d) * 0.5
        A = rng.standard_normal((m, d))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = A @ center + rng.uniform(0.3, 2.0, size=m)
        return Polyhedron(A, b, witness=center)
    if kind == "diagonal_affine_graph":
        d = dim or int(rng.integers(1, 5))
        return DiagonalAffineGraph(rng.uniform(-2, 2, size=d),
                                   rng.uniform(-1, 1, size=d))
    raise ValueError(kind)


PROJECTABLE_KINDS = ("halfspace", "hyperplane", "ball", "polygon2d",
                     "ortho_subspace", "affine_subspace", "nonneg_orthant",
                     "polyhedron", "diagonal_affine_graph")


def exact_fields(S):
    """(type, to_dict) of a set with every float as ``float.hex``, so that
    two sets compare equal only when their fields agree bit for bit."""
    def hexed(v):
        if isinstance(v, list):
            return [hexed(x) for x in v]
        return float.hex(v) if isinstance(v, float) else v
    return type(S), {key: hexed(val) for key, val in S.to_dict().items()}


def public_translate(S, v):
    """S + v built by the public constructors alone."""
    if isinstance(S, (Halfspace, Hyperplane)):
        return type(S)(S.a, S.b + float(np.dot(S.a, v)))
    if isinstance(S, Ball):
        return Ball(S.center + v, S.radius)
    if isinstance(S, Polygon2D):
        return Polygon2D(S.vertices + v)
    if isinstance(S, OrthoSubspace):
        return AffineSubspace(v, S.basis)
    if isinstance(S, AffineSubspace):
        return AffineSubspace(S.anchor + v, S.basis)
    if isinstance(S, NonnegOrthant):
        return Polyhedron(-np.eye(S.d), -v, witness=np.maximum(v, 0.0) + 1.0)
    if isinstance(S, Polyhedron):
        return Polyhedron(S.normals, S.b + S.normals @ v, witness=S.witness + v)
    d = S.half_dim
    return DiagonalAffineGraph(S.theta, S.offset + v[d:] - S.theta * v[:d])


def interior_point(S, rng):
    """A point of S, for seeding inner samples."""
    return S.project(rng.standard_normal(S.dim))


def polygon_containing_ball(rng, inner_radius=0.3, n_vertices=12):
    """Random convex polygon guaranteed to contain inner_radius * unit ball.

    Vertices on a jittered angular grid with radii >= 0.4 and angular
    gaps <= 54 degrees keep every edge at distance >= 0.4*cos(27deg) >
    0.3 from the origin.
    """
    base = np.linspace(0.0, 2 * np.pi, n_vertices, endpoint=False)
    angles = base + rng.uniform(-0.2, 0.2, size=n_vertices)
    radii = rng.uniform(0.4, 2.5, size=n_vertices)
    return Polygon2D(np.c_[radii * np.cos(angles), radii * np.sin(angles)])
