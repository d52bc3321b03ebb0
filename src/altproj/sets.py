"""Convex set kinds, each answering the same methods through an exact projection.

A set kind is one :class:`ConvexSet` subclass listed in ``SET_KINDS``: its
projection, closed-form overrides where they are cheaper, and a ``kind``
tag.  All nine kinds are projectable.  Projections are exact closed forms
everywhere except ``Polyhedron``, whose projection solves the
least-distance program by active-set NNLS (Lawson & Hanson, *Solving Least
Squares Problems*, ch. 23) and checks a KKT certificate on every call.  In
any dimension, a polyhedron's support point comes from proximal steps on
that projection, certified by its multipliers; the same NNLS decides, by
Farkas' lemma, in which directions it is unbounded.  ``project_many`` and
``distance_many`` take (k, d) batches, bit-equal row by row to ``project``
and to ``distance``, which is row 0 of ``distance_many``.  Only the sampled
probes batch, so only ``Ball`` and ``Polygon2D`` keep a batch projection
kernel (see ``ConvexSet.project_many``); membership is ``distance <= tol``
for every kind.  A kind checks its fields in its constructor alone, which
stores them in normal form (a unit normal, normalised rows); the scenario
families copy their step sets unchecked, as ``constructions.stable_scenario``
checks step 1, which covers every step.  The runtime needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
# LAPACK's gesv behind np.linalg.solve for a 1-D right-hand side, without its wrapper
from numpy.linalg._umath_linalg import solve1 as _solve1

from .geometry import _count_nonzero, as_point, as_points, row_norms


class ProjectionCertificateError(RuntimeError):
    """A polyhedron projection failed its KKT certificate, or its NNLS solver
    could not finish; the message names the failed condition."""


class SupportUnavailable(ValueError):
    """No exact support value for this kind/direction; use sampled probes."""


class SamplerFailure(RuntimeError):
    """Rejection sampler exhausted its budget."""


def _row_scales(A):
    """(s, n) for the rows of the normals A (m, d): A_i / s_i / n_i is the unit normal and
    b_i / s_i / n_i the offset scaled to match.  A ``row_norms`` norm (bit-equal to the 1-D
    norm) that is 0, infinite or outside [1e-150, 1e150] may have lost its squares to under-
    or overflow; then s_i is the largest |A_ij| and n_i the norm of A_i / s_i.  A row in range
    has s_i = 1, which keeps the bits of the plain division; a zero row has s_i = 0."""
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        n = row_norms(A)
    s = np.ones(len(n))
    odd = (n < 1e-150) | (n > 1e150)
    if odd.any():
        s[odd] = np.max(np.abs(A[odd]), axis=1, initial=0.0)
        nonzero = odd & (s > 0.0)
        n[nonzero] = row_norms(A[nonzero] / s[nonzero, None])
    return s, n


def _freeze(arr, name: str) -> np.ndarray:
    """Read-only float copy of an array field; non-finite entries raise."""
    arr = np.array(arr, dtype=float)
    if _count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on small arrays
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _frozen_point(x, dim=None) -> np.ndarray:
    """``as_point(x, dim)`` as a read-only copy, checked and copied once."""
    p = as_point(np.array(x, dtype=float), dim)
    p.setflags(write=False)
    return p


def _finite(x, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    return x


def _numeric(value) -> bool:
    """A number or a nested list of numbers; not a string or a bool, which
    numpy's float conversion would silently accept.  Exact type tests keep
    this cheap on the long lists of a polyhedron descriptor."""
    stack = [value]
    while stack:
        v = stack.pop()
        t = type(v)
        if t is list or t is tuple:
            stack.extend(v)
        elif not (t is float or t is int or isinstance(v, (np.integer, np.floating))
                  or t is np.ndarray and v.dtype.kind in "iuf"):
            return False
    return True


def _take(doc: dict, names, kind: str) -> list:
    """The values of ``names`` in a set descriptor.  Unknown, missing and
    non-numeric fields raise."""
    unknown, missing = sorted(set(doc) - set(names) - {"kind"}), set(names) - set(doc)
    if unknown or missing:
        raise ValueError(f"set kind {kind!r}: unknown field(s) {unknown}, "
                         f"missing field(s) {sorted(missing)}")
    for name in names:
        if not _numeric(doc[name]):
            raise ValueError(f"set kind {kind!r}: field {name!r} must be a number or an "
                             f"array of numbers, got {doc[name]!r:.60}")
    return [doc[name] for name in names]


def _positive_part(v) -> np.ndarray:
    """``max(0.0, v)`` elementwise, with the scalar built-in's choice of zero."""
    return np.where(v > 0.0, v, 0.0)


class ConvexSet:
    """Base of every set kind: a frozen dataclass with a class-level ``kind``
    tag, a ``dim`` and a ``project``.  The dataclass fields are the JSON
    encoding; distance and membership follow from the projection."""

    kind = None

    def distance(self, x) -> float:
        return float(self.distance_many(as_point(x, dim=self.dim)[None])[0])

    def project_many(self, X) -> np.ndarray:
        """Row i is ``project(X[i])``, for a (k, dim) array X.  The engine
        projects one point a step; only the sampled probes batch.  The probe
        sweep batches ``Polygon2D`` (about 38k aw rows a pass); on ``Ball`` the aw,
        slice and ``epsilon_alpha`` samplers do (the tests' ball samples take about
        4 s more without its kernel).  Those two override this loop with whole-array
        arithmetic that gives the same bits: row dot products by ``np.vecdot``, which
        sums in the order of the 1-D ``np.dot``, and row norms by ``row_norms``.
        The config checks' few thousand subspace and orthant rows take a few ms here."""
        X = as_points(X, self.dim)
        out = np.empty_like(X)
        for i, x in enumerate(X):
            out[i] = self.project(x)
        return out

    def distance_many(self, X) -> np.ndarray:
        """Row i is ``distance(X[i])``, for a (k, dim) array X."""
        X = as_points(X, self.dim)
        return row_norms(X - self.project_many(X))

    def membership(self, x, tol: float = 0.0) -> bool:
        """True iff dist(x, S) <= tol."""
        return self.distance(x) <= tol

    def support_value(self, f) -> float:
        """sup <f, .>, attained at ``support_point(f)`` unless a closed form overrides it."""
        return float(np.dot(f, self.support_point(f)))

    def support_point(self, f) -> np.ndarray:
        raise SupportUnavailable(f"no support point for {type(self).__name__}")

    def to_dict(self) -> dict:
        """{"kind": tag, field: value}; floats survive a JSON round trip exactly."""
        doc = {"kind": self.kind}
        for fld in fields(self):
            val = getattr(self, fld.name)
            doc[fld.name] = val.tolist() if isinstance(val, np.ndarray) else val
        return doc

    @classmethod
    def from_dict(cls, doc: dict):
        return cls(*_take(doc, [fld.name for fld in fields(cls)], cls.kind))


@dataclass(frozen=True, eq=False)
class _UnitNormal(ConvexSet):
    """Halfspace and hyperplane data: a normal a != 0 and offset b, stored
    scaled to a unit normal."""

    a: np.ndarray
    b: float
    _one_sided = True  # a support value along +a only, as for a halfspace

    def __post_init__(self):
        a = as_point(self.a)
        # Python floats: an offset divided out of range is inf without a numpy warning
        s, n = (float(v[0]) for v in _row_scales(a[None]))
        if not s:
            raise ValueError("a must be nonzero")
        self.__dict__.update(a=_freeze(a / s / n, "a"), b=_finite(float(self.b) / s / n, "b"))

    @property
    def dim(self):
        return self.a.size

    def support_value(self, f):
        fa = float(np.dot(f, self.a))
        if np.linalg.norm(f - fa * self.a) <= 1e-12 * np.linalg.norm(f) and (
                fa > 0 or not self._one_sided):
            return fa * self.b
        raise SupportUnavailable(f"{self.kind} is unbounded in this direction")

    def translate(self, v):
        v = as_point(v, dim=self.dim)
        return type(self)(self.a, self.b + float(np.dot(self.a, v)))


class Halfspace(_UnitNormal):
    """{x : <a, x> <= b}."""

    kind = "halfspace"

    def project(self, x):
        x = as_point(x, dim=self.dim)
        excess = float(np.dot(self.a, x)) - self.b
        if excess <= 0.0:
            return x.copy()
        return x - excess * self.a

    def distance_many(self, X):
        return _positive_part(np.vecdot(as_points(X, self.dim), self.a) - self.b)


class Hyperplane(_UnitNormal):
    """{x : <a, x> = b}."""

    kind = "hyperplane"
    _one_sided = False

    def project(self, x):
        x = as_point(x, dim=self.dim)
        return x - (float(np.dot(self.a, x)) - self.b) * self.a

    def distance_many(self, X):
        return np.abs(np.vecdot(as_points(X, self.dim), self.a) - self.b)


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    kind = "ball"
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _frozen_point(self.center))
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "radius", _finite(self.radius, "radius"))

    @property
    def dim(self):
        return self.center.size

    def project(self, x):
        x = as_point(x, dim=self.dim)
        d = x - self.center
        n = math.sqrt(d.dot(d))  # float(np.linalg.norm(d)) bit for bit
        if n <= self.radius:
            return x.copy()
        return self.center + (self.radius / n) * d

    def project_many(self, X):
        X = as_points(X, self.dim)
        D = X - self.center
        n = row_norms(D)
        out = X.copy()
        far = n > self.radius
        out[far] = self.center + (self.radius / n[far])[:, None] * D[far]
        return out

    def distance_many(self, X):
        with np.errstate(over="ignore"):  # an overflowed norm is inf: the point is not a member
            return _positive_part(row_norms(as_points(X, self.dim) - self.center) - self.radius)

    def support_value(self, f):
        return float(np.dot(f, self.center)) + self.radius * float(np.linalg.norm(f))

    def support_point(self, f):
        return self.center + self.radius * f / float(np.linalg.norm(f))

    def translate(self, v):
        return Ball(self.center + as_point(v, dim=self.dim), self.radius)


_XY = np.dtype([("x", np.float64), ("y", np.float64)])


def _unique_rows(pts: np.ndarray) -> np.ndarray:
    """``np.unique(pts, axis=0)`` of a fresh (m, 2) float array, sorted in place.  The rows
    sort as (x, y) records by np.unique's own quicksort, so that of rows equal up to the sign
    of a zero the same one is kept; np.unique itself would import numpy.ma (15 ms, 1.5 MB)."""
    pts.view(_XY).sort(axis=0)
    return pts[np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))]


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain over Python floats; returns CCW hull vertices, collinear dropped."""
    pts = _unique_rows(np.round(points, 15))
    if len(pts) < 3:
        return pts

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    chains = []
    for run in (pts.tolist(), pts[::-1].tolist()):
        chain = []
        for p in run:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains += chain[:-1]
    return np.array(chains)


@dataclass(frozen=True, eq=False)
class Polygon2D(ConvexSet):
    """Convex polygon in the plane, vertices stored in CCW order.

    The constructor takes an arbitrary vertex list, deduplicates it and
    keeps the CCW convex hull, so degenerate inputs (repeated or interior
    vertices) are tolerated.  Degenerate hulls (segments, points) are kept
    and projected onto correctly.
    """

    kind = "polygon2d"
    vertices: np.ndarray

    def __post_init__(self):
        v = _freeze(self.vertices, "vertices")
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 1:
            raise ValueError("vertices must be an (m, 2) array with m >= 1")
        v = _freeze(_convex_hull_ccw(v), "vertices")
        # not fields: for each edge (one for a segment, none for a point) its start p as a
        # complex number, e = q - p as an (m, 1, 2) array and as columns, and e.e
        P = v if len(v) >= 3 else v[:len(v) - 1]
        E = np.concatenate((v[1:], v[:1]))[:len(P)] - P
        self.__dict__.update(vertices=v, _starts=P.view(complex), _edges=E[:, None, :],
                             _ex=E[:, :1], _ey=E[:, 1:], _edge_sq=np.vecdot(E, E)[:, None])

    @property
    def dim(self):
        return 2

    def _nearest(self, X):
        """``project`` of each row of a (k, 2) array: the first nearest clamped edge foot, or
        the point itself when no edge test puts it outside the polygon.  The outward normal of
        a CCW edge e is (e_y, -e_x).  Arrays are (edge, point), so that loops run over the
        points; a difference of 2-D points is one complex subtraction, with the same bits."""
        m, k = len(self._starts), len(X)
        if not m:
            return np.broadcast_to(self.vertices[0], X.shape).copy()
        Xc = np.ascontiguousarray(X).view(complex)[:, 0]
        D = (Xc - self._starts).view(float).reshape(m, k, 2)
        t = _positive_part(np.vecdot(D, self._edges) / self._edge_sq)
        np.fmin(t, 1.0, out=t)
        cand = np.empty((m, k, 2))
        np.multiply(t, self._ex, out=cand[..., 0])
        np.multiply(t, self._ey, out=cand[..., 1])
        cand.view(complex)[..., 0] += self._starts
        outside = (D[..., 0] * self._ey - D[..., 1] * self._ex > 0.0).any(axis=0)
        np.subtract(Xc, cand.view(complex)[..., 0], out=D.view(complex)[..., 0])
        out = cand.reshape(m * k, 2)[row_norms(D).argmin(axis=0) * k + np.arange(k)]
        return np.where(outside[:, None], out, X) if m >= 3 else out

    def project(self, x):
        return self._nearest(as_point(x, dim=2)[None])[0]

    def project_many(self, X):
        return self._nearest(as_points(X, 2))

    def support_value(self, f):
        return float(np.max(self.vertices @ as_point(f, dim=2)))

    def support_point(self, f):
        vals = self.vertices @ as_point(f, dim=2)
        return self.vertices[int(np.argmax(vals))].copy()

    def translate(self, v):
        return Polygon2D(self.vertices + as_point(v, dim=2))


def _check_orthonormal(basis: np.ndarray):
    with np.errstate(over="ignore", invalid="ignore"):  # a huge entry gives inf or NaN
        if not np.max(np.abs(basis @ basis.T - np.eye(len(basis)))) <= 1e-10:
            raise ValueError("basis is not orthonormal within 1e-10")


@dataclass(frozen=True, eq=False)
class OrthoSubspace(ConvexSet):
    """Linear subspace spanned by orthonormal basis rows (k x d)."""

    kind = "ortho_subspace"
    basis: np.ndarray

    def __post_init__(self):
        b = _freeze(self.basis, "basis")
        if b.ndim != 2 or b.shape[0] < 1:
            raise ValueError("basis must be a nonempty (k, d) array")
        _check_orthonormal(b)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, x):
        x = as_point(x, dim=self.dim)
        return self.basis.T @ (self.basis @ x)

    def support_value(self, f):
        if float(np.linalg.norm(self.basis @ f)) <= 1e-12 * np.linalg.norm(f):
            return 0.0
        raise SupportUnavailable("subspace is unbounded in this direction")

    def translate(self, v):
        return AffineSubspace(as_point(v, dim=self.dim), self.basis)


@dataclass(frozen=True, eq=False)
class AffineSubspace(ConvexSet):
    """anchor + span(basis) with orthonormal basis rows."""

    kind = "affine_subspace"
    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        a, b = _frozen_point(self.anchor), _freeze(self.basis, "basis")
        if b.ndim != 2 or b.shape[1] != a.size:
            raise ValueError("basis shape incompatible with anchor")
        _check_orthonormal(b)
        self.__dict__.update(anchor=a, basis=b)

    @property
    def dim(self):
        return self.anchor.size

    def project(self, x):
        x = as_point(x, dim=self.dim)
        y = x - self.anchor
        return self.anchor + self.basis.T @ (self.basis @ y)

    def support_value(self, f):
        if float(np.linalg.norm(self.basis @ f)) <= 1e-12 * np.linalg.norm(f):
            return float(np.dot(f, self.anchor))
        raise SupportUnavailable("affine flat is unbounded in this direction")

    def translate(self, v):
        return AffineSubspace(self.anchor + as_point(v, dim=self.dim), self.basis)


@dataclass(frozen=True, eq=False)
class NonnegOrthant(ConvexSet):
    kind = "nonneg_orthant"
    d: int

    def __post_init__(self):
        if isinstance(self.d, bool) or not isinstance(self.d, (int, np.integer)) or self.d < 1:
            raise ValueError(f"nonneg_orthant field 'd' must be an integer >= 1, got {self.d!r}")
        object.__setattr__(self, "d", int(self.d))

    @property
    def dim(self):
        return self.d

    def project(self, x):
        return np.maximum(as_point(x, dim=self.d), 0.0)

    def distance_many(self, X):
        return row_norms(np.minimum(as_points(X, self.d), 0.0))

    def support_value(self, f):
        if np.all(f <= 0.0):
            return 0.0
        raise SupportUnavailable("orthant is unbounded in this direction")

    def translate(self, v):
        v = as_point(v, dim=self.d)
        return Polyhedron(-np.eye(self.d), -v, witness=np.maximum(v, 0.0) + 1.0)


@dataclass(frozen=True, eq=False)
class Polyhedron(ConvexSet):
    """{x : <a_i, x> <= b_i for all i}, nonempty by a feasible ``witness`` checked at
    construction.  The rows a_i of ``normals`` need not be unit; they are stored scaled
    to unit length, and ``b`` with them."""

    kind = "polyhedron"
    normals: np.ndarray
    b: np.ndarray
    witness: np.ndarray

    def __post_init__(self):
        A, b = _freeze(self.normals, "normals"), _freeze(self.b, "b")
        if A.ndim != 2 or b.shape != A.shape[:1] or not b.size:
            raise ValueError("normals must be (m, d), b must be (m,)")
        s, norms = _row_scales(A)
        if not s.all():
            raise ValueError("zero constraint normal")
        with np.errstate(over="ignore"):  # an offset scaled out of range is refused here
            A, b = _freeze(A / s[:, None] / norms[:, None], "normals"), _freeze(b / s / norms, "b")
        w = _frozen_point(self.witness, A.shape[1])
        if (A @ w > b + 1e-9).any():  # b is finite before the witness is tested
            raise ValueError("witness point is not feasible")
        self.__dict__.update(normals=A, b=b, witness=w)

    @property
    def dim(self):
        return self.normals.shape[1]

    def project(self, x):
        return self._project(x)[0]

    def _project(self, x):
        """(y, lambda): the nearest point and its KKT multipliers (None for a feasible x),
        from the least-distance program in z = y - x: min ||z|| subject to A z <= r,
        r = b - A x (Lawson & Hanson, ch. 23).  Scaled by the largest violation s, so
        that it is O(1), the program is the NNLS min ||E u - f|| over u >= 0 with
        E = [-A^T; g^T], g = -r / s and f = e_{d+1}.  Its residual res = E u - f gives
        y = x - s res[:d] / res[d] = x - A^T lambda with the multipliers
        lambda = s u / -res[d], where -res[d] = 1 - g.u.  The KKT certificate is
        checked on every call (see ``_certify``).
        """
        x = as_point(x, dim=self.dim)
        A, b = self.normals, self.b
        r = b - A @ x
        s = -float(_min(r))
        if s <= 0.0:
            return x.copy(), None
        g = r / -s
        f = np.zeros(self.dim + 1)
        f[-1] = 1.0
        u = _nnls(np.concatenate((-A.T, g[None])), f)
        t = 1.0 - float(g @ u)   # -res[d]; 1 / t = 1 + ||z / s||^2 in exact arithmetic
        if not t > 0.0:
            raise ProjectionCertificateError(
                f"least-distance program reports infeasible constraints (1 - g.u = {t:.3e})")
        lam = (s / t) * u
        y = x - A.T @ lam
        _certify(x, y, lam, A, b)
        return y, lam

    def support_point(self, f):
        return self._support(f)[0]

    def _support(self, f):
        """(y, mu): a maximiser y of <f, .> and multipliers mu >= 0 that certify it.

        Proximal steps x <- P(x + t f) from the witness, t growing 1.5x a step from the
        data's scale over ||f||, reach a maximiser in finitely many steps (Rockafellar,
        SIAM J. Control Optim. 14, 1976).  Once mu = lambda / t has ||A^T mu - f|| <=
        1e-9 ||f||, the point, rounded at the scale of x + t f, is moved onto its active
        constraints and projected, at its own scale, to y, returned if |b.mu - <f, y>| +
        ||A^T mu - f|| ||y|| <= 1e-9 ||f|| max(1, ||y||): by weak duality that bounds
        sup - <f, y>.  After _SUPPORT_STEPS steps Farkas tells unbounded from uncertified."""
        f = as_point(f, dim=self.dim)
        A, b, x = self.normals, self.b, self.witness
        nf = float(np.linalg.norm(f))
        t = (max(float(np.max(np.abs(x))), float(np.max(np.abs(b)))) or 1.0) / (nf or 1.0)
        tol = 1e-9 * nf  # f = 0 is certified at the witness by mu = 0
        for _ in range(_SUPPORT_STEPS):
            x, lam = self._project(x + t * f)
            mu = lam / t if lam is not None else np.zeros(len(b))  # then A^T mu - f = -f
            res = float(np.linalg.norm(A.T @ mu - f))
            if res <= tol:
                act = mu > 0.0
                y = self._project(x - np.linalg.pinv(A[act]) @ (A[act] @ x - b[act]))[0]
                ny = float(np.linalg.norm(y))
                if abs(float(b @ mu - f @ y)) + res * ny <= tol * max(1.0, ny):
                    return y, mu
            t *= 1.5
        if _polyhedron_unbounded_in(self, f):
            raise SupportUnavailable("polyhedron is unbounded in this direction")
        raise SupportUnavailable(f"no certified polyhedron support in {_SUPPORT_STEPS} steps")

    def translate(self, v):
        v = as_point(v, dim=self.dim)
        return Polyhedron(self.normals, self.b + self.normals @ v, witness=self.witness + v)


@dataclass(frozen=True, eq=False)
class DiagonalAffineGraph(ConvexSet):
    """The set {(x, offset + D x)} in R^{2d} with D = diag(theta).

    Operates on packed product points: the first d coordinates are x, the
    last d are the second factor.  Projection is the per-coordinate closed
    form x_n = (alpha_n + theta_n*(beta_n - offset_n)) / (1 + theta_n^2)
    for input (alpha, beta).  A theta whose 1 + theta_n^2 overflows (an entry
    above about 1.34e154) is refused when the graph is built.
    """

    kind = "diagonal_affine_graph"
    theta: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen_point(self.theta))
        object.__setattr__(self, "offset", _frozen_point(self.offset, self.theta.size))
        with np.errstate(over="ignore"):  # an overflowed 1 + theta^2 is refused below
            den = 1.0 + self.theta ** 2
        if not np.isfinite(den).all():  # the closed form would return x = 0
            raise ValueError("1 + theta^2 overflows: an entry of theta exceeds about 1.34e154")
        object.__setattr__(self, "_denom", den)  # not a field

    @property
    def half_dim(self):
        return self.theta.size

    @property
    def dim(self):
        return 2 * self.theta.size

    def project(self, z):
        z = as_point(z, dim=self.dim)
        d = self.half_dim
        out = np.empty(2 * d)
        out[:d] = x = (z[:d] + self.theta * (z[d:] - self.offset)) / self._denom
        out[d:] = self.offset + self.theta * x
        return out

    def pair_step(self, A, prev):
        """The k-step runner for the pair (A, self) when A is X (+) {0}, an ``OrthoSubspace``
        of basis ``np.eye(d, 2d)``, and prev's second factor is +0.0 bit for bit, else None.
        ``project`` is then x = (p[:d] + c) / _denom, c = theta * (0.0 - offset), and
        ``A.project`` (x + 0.0, 0).  ``run(p, k)`` takes k such steps from p in place on a
        new array and returns it and k, adding +0.0 once at the end: equal inputs give
        numerically equal x + c and (x + c) / _denom, so a +0.0 per step could only change
        the sign of a zero.  As 1 + theta^2 >= 1, |x_j| <= (|x_0| + j|c|)(1 + u)^(2j), so
        b = |x_0| + k|c| with b.b <= 1e299 gives every x_j x.x <= 1e300, which keeps b_n
        finite (see README); else, an overflowed or NaN b too, run takes no step and
        returns (p, 0), for the caller to project twice."""
        d = self.half_dim
        if (type(A) is not OrthoSubspace or prev.shape != (2 * d,) or prev.dtype != np.float64
                or prev[d:].view(np.uint64).any() or not np.array_equal(A.basis, np.eye(d, 2 * d))):
            return None
        c, den, add, divide = self.theta * (0.0 - self.offset), self._denom, np.add, np.divide

        def run(p, k):
            with np.errstate(over="ignore"):  # an overflowed or NaN b is refused
                b = abs(p[:d]) + k * abs(c)
                if not b.dot(b) <= 1e299:  # the factor 10 covers the rounding for k < 1e15
                    return p, 0
            a = np.concatenate((p[:d], np.zeros(d)))
            x = a[:d]
            for _ in range(k):
                divide(add(x, c, x), den, x)
            add(x, 0.0, x)  # A.project's +0.0 for a -0.0
            return a, k
        return run

    def support_value(self, f):
        d = self.half_dim
        f = as_point(f, dim=2 * d)
        if float(np.linalg.norm(f[:d] + self.theta * f[d:])) <= 1e-12 * np.linalg.norm(f):
            return float(np.dot(f[d:], self.offset))
        raise SupportUnavailable("graph flat is unbounded in this direction")

    def translate(self, v):
        v = as_point(v, dim=self.dim)
        d = self.half_dim
        # {(x, off + Dx)} + (u, w) = {(x', off + w - Du + Dx')}
        return DiagonalAffineGraph(self.theta, self.offset + v[d:] - self.theta * v[:d])


SET_KINDS = (Halfspace, Hyperplane, Ball, Polygon2D, OrthoSubspace,
             AffineSubspace, NonnegOrthant, Polyhedron, DiagonalAffineGraph)
_KIND_BY_TAG = {cls.kind: cls for cls in SET_KINDS}

_EPS = float(np.finfo(float).eps)
_min = np.minimum.reduce  # what ndarray.min reduces with, without its Python wrapper


def _nnls(E, f):
    """min ||E u - f|| over u >= 0 by Lawson & Hanson's active-set method.

    Columns enter the passive set while the gradient E^T (f - E u) has a
    positive entry.  A column whose least squares solve is singular or
    gives it no positive weight is passed over until u next changes (Lawson
    & Hanson's guard against nearly dependent columns).  A solve that would
    leave the orthant is cut back to its boundary, and the columns it zeroes
    leave again.  The gradient is compared column by column, scaled by the
    column norms: columns far from active may be orders of magnitude
    longer than the ones that matter, and a tolerance scaled by the
    longest column would stop before the violated constraints enter.  The
    caller scales the program so that f and the solution are O(1).
    """
    Q, q = E.T @ E, E.T @ f
    m = q.size
    tol = 10.0 * m * _EPS
    norms = np.sqrt(Q.diagonal())
    u = np.zeros(m)
    passive, skipped = [], []
    w = q / norms
    for _ in range(4 * m + 4):
        w[passive + skipped] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol:
            return u
        trial = passive + [j]
        sol = _passive_solve(E, f, Q, q, trial)
        if sol is None or sol[-1] <= tol:
            skipped.append(j)
            continue
        passive, skipped = trial, []
        while _min(sol) <= 0.0:
            cur = u[passive]
            neg = sol <= 0.0
            cur += float(_min(cur[neg] / (cur[neg] - sol[neg]))) * (sol - cur)
            u[passive] = np.where(cur <= tol, 0.0, cur)
            passive = [k for k, c in zip(passive, cur) if c > tol]
            sol = _passive_solve(E, f, Q, q, passive)
            if sol is None:
                raise ProjectionCertificateError("NNLS passive set became singular")
        u[passive] = sol
        w = (q - Q @ u) / norms
    raise ProjectionCertificateError(f"NNLS did not finish within {4 * m + 4} iterations")


def _singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _passive_solve(E, f, Q, q, cols):
    """argmin ||E[:, cols] v - f||, None if singular.  Normal equations while
    there are fewer columns than rows; a square system is solved directly,
    since its normal equations would square a condition number that grows
    with the distance of the projected point (E nears rank d then).  The
    solve is ``np.linalg.solve``'s own LAPACK call under its own error state,
    so its bits, without its argument checks."""
    if len(cols) == 1:
        return q[cols] / Q[cols[0], cols[0]]
    M, v = (E[:, cols], f) if len(cols) == f.size else (Q[cols][:, cols], q[cols])
    try:
        with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
                         under="ignore"):
            return _solve1(M, v, signature="dd->d")
    except np.linalg.LinAlgError:
        return None


_KKT_TOL = 1e-9
_SUPPORT_STEPS = 100  # proximal steps before Polyhedron.support_point gives up


def _certify(x, y, lam, A, b):
    """Raise unless (y, lam) satisfies the KKT conditions of projecting x
    onto {A y <= b} at tolerance _KKT_TOL * max(1, ||x||)."""
    tol = _KKT_TOL * max(1.0, math.sqrt(float(x @ x)))
    slack = b - A @ y
    stat = y - x + A.T @ lam
    checks = (
        ("primal feasibility", -float(_min(slack))),
        ("dual feasibility", -float(_min(lam))),
        ("complementary slackness", float(lam @ np.abs(slack)) / max(1.0, float(lam.sum()))),
        ("stationarity", math.sqrt(float(stat @ stat))),
    )
    for name, value in checks:
        if not value <= tol:
            raise ProjectionCertificateError(
                f"polyhedron projection failed its KKT certificate: {name} "
                f"residual {value:.3e} > {tol:.3e}")


def _polyhedron_unbounded_in(S: Polyhedron, f: np.ndarray) -> bool:
    """Whether sup_S <f, .> = +inf.  S is nonempty, so by Farkas' lemma the
    supremum is finite iff f lies in the cone of the unit normals, that is,
    iff min over lambda >= 0 of ||A^T lambda - f / ||f|||| is at most 1e-9
    (Boyd & Vandenberghe, *Convex Optimization*, sec. 5.8).  An NNLS that
    does not finish raises, as in ``project``."""
    n = float(np.linalg.norm(f))
    if n == 0.0:
        return False
    fhat = f / n
    lam = _nnls(S.normals.T, fhat)
    return float(np.linalg.norm(S.normals.T @ lam - fhat)) > 1e-9


def _recession_direction(S: Polyhedron, g, f):
    """A unit d with <a, d> <= 0 for every normal a of S and <f, d> = 0, both to the
    rounding 8 dim eps of a dot product of unit vectors, and <g, d> > 0 for the unit g:
    a direction in f^perp along which S is unbounded, or None.  d is the Farkas
    residual of g against the normals (see ``_polyhedron_unbounded_in``), refused when
    below 1e-9 or when it fails the check, as a long thin polyhedron's can."""
    try:
        d = g - S.normals.T @ _nnls(S.normals.T, g)
    except ProjectionCertificateError:  # an NNLS that does not finish proves nothing
        return None
    n, tol = float(np.linalg.norm(d)), 8.0 * S.dim * _EPS
    d = d / (n or 1.0)
    if (n > 1e-9 and (S.normals @ d).max() <= tol and abs(f @ d) <= tol * np.linalg.norm(f)
            and g @ d > 0.0):
        return tuple(d.tolist())
    return None


def _support_direction(f, dim: int) -> np.ndarray:
    """f as a point of R^dim to take a support point, slice or exposure in.
    Those divide by ||f||, so f must be nonzero and its norm must neither
    underflow to 0, as it does when all its entries are below about 1e-162,
    nor overflow, as it does when one is above about 1.34e154."""
    f = as_point(f, dim=dim)
    if not f.any():
        raise ValueError("support direction must be nonzero")
    with np.errstate(over="ignore"):  # an overflowed norm is reported below
        n = float(np.linalg.norm(f))
    if n == 0.0 or n == math.inf:
        what, way = ("underflows to 0", "up") if n == 0.0 else ("overflows", "down")
        raise ValueError(f"support direction is nonzero but its norm {what} (largest entry "
                         f"{float(np.max(np.abs(f))):.3g}); scale it {way}")
    return f


def slice_sample(S, f, alpha: float, n_samples: int, rng_seed: int) -> np.ndarray:
    """Sample points of S lying within alpha of sup <f, .> over S, by rejection over
    projected Gaussians, of every kind alike.

    The support point comes first where S has one.  The draws are kept when
    they lie in the slice, in rounds of as many draws as points are still
    missing, up to 200 draws a point; when the budget runs out first, the
    points found are repeated in turn.  A seed fixes the result.
    """
    f = _support_direction(f, S.dim)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sup = S.support_value(f)
    try:
        found = [S.support_point(f)[None]]
    except SupportUnavailable:
        found = []
    rng = np.random.default_rng(rng_seed)
    count, tries, budget = len(found), 0, 200 * n_samples
    while count < n_samples and tries < budget:
        k = min(n_samples - count, budget - tries)
        X = S.project_many(rng.standard_normal((k, S.dim)) * (2.0 + abs(sup)))
        tries += k
        found.append(X[np.vecdot(X, f) >= sup - alpha - 1e-12])
        count += len(found[-1])
    if not count:
        raise SamplerFailure(f"no slice samples found within budget {budget}")
    return np.concatenate(found)[np.arange(n_samples) % count]


def _clip_polygon_halfplane(vertices: np.ndarray, f: np.ndarray, level: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a CCW polygon against {<f, x> >= level}."""
    out = []
    m = len(vertices)
    if m == 1:
        return vertices.copy() if float(np.dot(f, vertices[0])) >= level - 1e-12 else np.empty((0, 2))
    for i in range(m if m >= 3 else 1):
        p, q = vertices[i], vertices[(i + 1) % m]
        fp = float(np.dot(f, p)) - level
        fq = float(np.dot(f, q)) - level
        if fp >= -1e-12:
            out.append(p)
        if (fp > 1e-12 and fq < -1e-12) or (fp < -1e-12 and fq > 1e-12):
            t = fp / (fp - fq)
            out.append(p + t * (q - p))
    if m == 2 and float(np.dot(f, vertices[1])) - level >= -1e-12:
        out.append(vertices[1])
    if not out:
        return np.empty((0, 2))
    return _unique_rows(np.round(np.array(out), 12))


# ---------------------------------------------------------------------------
# JSON encoding: {"kind": ..., numeric fields as arrays}.


def set_to_dict(S) -> dict:
    return S.to_dict()


def set_from_dict(d: dict):
    """Rebuild a set from its encoding; unknown tags and fields raise ValueError."""
    if d.get("kind") not in _KIND_BY_TAG:
        raise ValueError(f"unknown set kind tag {d.get('kind')!r}")
    return _KIND_BY_TAG[d["kind"]].from_dict(d)
