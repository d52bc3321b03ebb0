"""Independent oracles used to freeze expected values in the tests.

Everything here deliberately avoids the library's own computational
paths: golden-section line search instead of the projection closed form,
face enumeration and cyclic Dykstra instead of the active-set NNLS, linprog
and exact rational vertices instead of the proximal support steps,
random-restart polishing instead of the SVD, and closed-form plane
geometry worked out by hand.  The slice-diameter reference is the plain
one-pair-block version that the library's batched kernel must reproduce
bit for bit, as the per-edge polygon loops are for ``Polygon2D``'s one
edge kernel and the ``np.unique`` hull and clip for the library's own, and the scalar distance closed forms are those that
``distance``, now row 0 of ``distance_many``, must reproduce bit for bit.
The slice-sampler references draw one point at a time; the library's
samplers, which draw a round of points at a time, must match their
distribution.  ``sampled_aw_distance`` is
``aw_distance``'s sampled estimate, taken also where a closed form exists,
for tests that check the one against the other.
"""

import itertools
import math

import numpy as np

from altproj.sets import (AffineSubspace, Ball, DiagonalAffineGraph,
                          Halfspace, Hyperplane, NonnegOrthant, OrthoSubspace,
                          Polygon2D, Polyhedron, SupportUnavailable)
from altproj.variational import AwEstimate, _sampled_excess


def sampled_aw_distance(A, C, N, n_samples, rng_seed) -> AwEstimate:
    """The estimate ``aw_distance`` gives for a pair without a closed form,
    from the same draws, for any pair."""
    rng = np.random.default_rng(rng_seed)
    scales = np.geomspace(0.25 * N, 2.0 * N, 8)
    e1 = _sampled_excess(A, C, N, n_samples, rng, scales)
    e2 = _sampled_excess(C, A, N, n_samples, rng, scales)
    return AwEstimate(N, e1, e2, max(e1, e2), n_samples, "sampled")


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


def _solve_exact(M, v):
    """x with M x = v in exact rational arithmetic (Gauss-Jordan), None if M is singular."""
    n = len(v)
    R = [list(row) + [v[i]] for i, row in enumerate(M)]
    for c in range(n):
        p = next((r for r in range(c, n) if R[r][c] != 0), None)
        if p is None:
            return None
        R[c], R[p] = R[p], R[c]
        for r in range(n):
            if r != c and R[r][c] != 0:
                k = R[r][c] / R[c][c]
                R[r] = [a - k * e for a, e in zip(R[r], R[c])]
    return [R[i][n] / R[i][i] for i in range(n)]


def lp_support(P: Polyhedron, f):
    """(value, x*) for sup <f, .> over P by linprog, or None where linprog finds no
    optimum (an unbounded direction).

    HiGHS solves the program with b and the witness scaled to O(1), and its
    point, scaled back, names the d rows tightest there.  When those rows meet
    in a vertex that exact rational arithmetic certifies optimal (feasible, with
    multipliers >= 0), that vertex, rounded once, is the answer: on nearly
    parallel normals HiGHS's own point can be off by about 1e-6 relative.
    Otherwise HiGHS's point is returned.
    """
    from fractions import Fraction
    from scipy.optimize import linprog
    A, b, f = P.normals, P.b, np.asarray(f, dtype=float)
    scale = max(float(np.max(np.abs(b))), float(np.max(np.abs(P.witness)))) or 1.0
    res = linprog(-f, A_ub=A, b_ub=b / scale, bounds=[(None, None)] * P.dim, method="highs")
    if res.status != 0:
        return None
    x = res.x * scale
    rows = np.argsort(b - A @ x)[:P.dim]
    exact = [[Fraction(float(v)) for v in A[i]] for i in rows]
    vertex = _solve_exact(exact, [Fraction(float(b[i])) for i in rows])
    mu = _solve_exact([list(col) for col in zip(*exact)], [Fraction(float(v)) for v in f])
    if vertex is not None and mu is not None and min(mu) >= 0 and all(
            sum(Fraction(float(a)) * v for a, v in zip(row, vertex)) <= Fraction(float(bi))
            for row, bi in zip(A, b)):
        x = np.array([float(v) for v in vertex])
        return float(sum(Fraction(float(fi)) * v for fi, v in zip(f, vertex))), x
    return float(f @ x), x


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
    """Diameter of the cap of a disc cut at depth alpha below the top: its chord,
    until the cap holds a whole diameter at depth alpha = radius."""
    if alpha >= radius:
        return 2.0 * radius
    return 2.0 * math.sqrt(alpha * (2.0 * radius - alpha))


def diameter_reference(pts):
    """Largest pairwise distance from every ordered pair, 64 rows at a time,
    with the squared differences summed by ``np.sum``."""
    sq = max(float(np.max(np.sum((pts[i:i + 64, None, :] - pts) ** 2, axis=-1)))
             for i in range(0, len(pts), 64))
    return math.sqrt(sq)


def slice_reference(S, f, alpha, n_samples, rng_seed):
    """``slice_sample`` one draw at a time: the support point first where S has one,
    then every projected Gaussian draw that lands in the slice, up to 200 draws a
    point; when the budget runs out first, the points found are repeated in turn."""
    rng = np.random.default_rng(rng_seed)
    f = np.asarray(f, dtype=float)
    sup = S.support_value(f)
    try:
        found = [S.support_point(f)]
    except SupportUnavailable:
        found = []
    for _ in range(200 * n_samples):
        if len(found) == n_samples:
            break
        x = S.project(rng.standard_normal(S.dim) * (2.0 + abs(sup)))
        if float(np.dot(f, x)) >= sup - alpha - 1e-12:
            found.append(x)
    return np.array(found)[np.arange(n_samples) % len(found)]


def polygon_project_loop(P: Polygon2D, x):
    """``Polygon2D.project`` edge by edge: the point itself when the outward
    tests put it inside, else the first nearest clamped edge foot."""
    x = np.asarray(x, dtype=float)
    v = P.vertices
    m = len(v)
    if m == 1:
        return v[0].copy()
    if m >= 3:
        # the outward normal of a CCW edge e is (e_y, -e_x)
        edges = [(v[i], v[(i + 1) % m] - v[i]) for i in range(m)]
        if not any((x[0] - p[0]) * e[1] - (x[1] - p[1]) * e[0] > 0.0 for p, e in edges):
            return x.copy()
    best, best_d = None, np.inf
    seg_count = m if m >= 3 else 1
    for i in range(seg_count):
        p, q = v[i], v[(i + 1) % m]
        e = q - p
        t = float(np.dot(x - p, e) / np.dot(e, e))
        t = min(1.0, max(0.0, t))
        cand = p + t * e
        d = float(np.linalg.norm(x - cand))
        if d < best_d:
            best, best_d = cand, d
    return best


def convex_hull_unique(points):
    """The CCW hull as ``Polygon2D`` built it through ``np.unique(axis=0)``: Andrew's
    monotone chain over numpy rows, which ``sets._convex_hull_ccw`` must match bit for bit."""
    pts = np.unique(np.round(points, 15), axis=0)
    if len(pts) < 3:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower, upper = [], []
    for chain, run in ((lower, pts), (upper, pts[::-1])):
        for p in run:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return np.array(lower[:-1] + upper[:-1])


def clip_polygon_unique(vertices, f, level):
    """Sutherland-Hodgman clip of a CCW polygon against {<f, x> >= level}, its vertices
    deduplicated by ``np.unique(axis=0)``, which ``sets._clip_polygon_halfplane`` must
    match bit for bit."""
    m = len(vertices)
    if m == 1:
        return vertices.copy() if float(np.dot(f, vertices[0])) >= level - 1e-12 else np.empty((0, 2))
    ring = list(vertices) if m >= 3 else [vertices[0], vertices[1]]
    out = []
    for i in range(len(ring) if m >= 3 else 1):
        p, q = ring[i], ring[(i + 1) % len(ring)]
        fp = float(np.dot(f, p)) - level
        fq = float(np.dot(f, q)) - level
        if fp >= -1e-12:
            out.append(p)
        if (fp > 1e-12 and fq < -1e-12) or (fp < -1e-12 and fq > 1e-12):
            out.append(p + fp / (fp - fq) * (q - p))
    if m == 2 and float(np.dot(f, ring[1])) - level >= -1e-12:
        out.append(ring[1])
    return np.unique(np.round(np.array(out), 12), axis=0) if out else np.empty((0, 2))


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
