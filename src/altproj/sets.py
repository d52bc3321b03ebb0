"""Convex set kinds, each answering the same methods through an exact projection.

A set kind is one :class:`ConvexSet` subclass listed in ``SET_KINDS``: its
projection, closed-form overrides where they are cheaper, and a ``kind``
tag.  All nine kinds are projectable.  Projections are exact closed forms
everywhere except ``Polyhedron``, whose projection solves the
least-distance program by active-set NNLS (Lawson & Hanson, *Solving Least
Squares Problems*, ch. 23) and checks a KKT certificate on every call; the
same NNLS decides, by Farkas' lemma, in which directions a polyhedron is
unbounded.  ``project_many`` and ``distance_many`` take (k, d) batches,
bit-equal row by row to ``project`` and to ``distance``, which is
defined from it; the sampled probes use them.  A kind with fields to
check checks them in one ``_store``: the constructor turns its input
into stored form (a unit normal, normalised rows) and passes it there,
and ``ConvexSet._replace``, used by the per-step families, passes only
the fields that move.  The runtime needs numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .geometry import as_point, as_points, row_norms


class ProjectionCertificateError(RuntimeError):
    """A polyhedron projection failed its KKT certificate, or its NNLS solver
    could not finish; the message names the failed condition."""


class SupportUnavailable(ValueError):
    """No exact support value for this kind/direction; use sampled probes."""


class SamplerFailure(RuntimeError):
    """Rejection sampler exhausted its budget."""


def _normal_in_range(a, b, name="a"):
    """(a, b, n): a normal, its offset and the plain norm n of the normal.

    A plain norm that is 0, infinite or outside [1e-150, 1e150] may have
    lost its squares to underflow or overflow; then a and b are divided by
    the largest |a_i| and n is taken again.  A normal in range comes back
    as given, so a / n and b / n keep the bits of the plain division.
    """
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        n = float(np.linalg.norm(a))
    if n < 1e-150 or n > 1e150:
        s = float(np.max(np.abs(a)))
        if s == 0.0:
            raise ValueError(f"{name} must be nonzero")
        a, b = a / s, float(b) / s
        n = float(np.linalg.norm(a))
    return a, b, n


def _row_scales(A):
    """(s, n) for the rows of the normals A (m, d), as ``_normal_in_range``
    treats one normal: A_i / s_i / n_i is the unit normal and b_i / s_i / n_i
    the offset scaled to match.  A row whose plain norm is in range has
    s_i = 1, which keeps the bits; a zero row has s_i = 0.  (Row norms sum
    in another order than the 1-D norm, so each keeps its own.)"""
    with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
        n = np.linalg.norm(A, axis=1)
    s = np.ones(len(n))
    odd = (n < 1e-150) | (n > 1e150)
    if odd.any():
        s[odd] = np.max(np.abs(A[odd]), axis=1, initial=0.0)
        nonzero = odd & (s > 0.0)
        n[nonzero] = np.linalg.norm(A[nonzero] / s[nonzero, None], axis=1)
    return s, n


def _freeze(arr, name: str) -> np.ndarray:
    """Read-only float copy of an array field; non-finite entries raise."""
    arr = np.array(arr, dtype=float)
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # cheaper than .all() on small arrays
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


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
    _replaceable = frozenset()  # fields _replace may change: no attribute derives from them

    def distance(self, x) -> float:
        return float(self.distance_many(as_point(x, dim=self.dim)[None])[0])

    def project_many(self, X) -> np.ndarray:
        """Row i is ``project(X[i])``, for a (k, dim) array X.  The kinds with
        a closed form override this loop with whole-array arithmetic that
        gives the same bits: row dot products by ``np.vecdot``, which sums
        in the order of the 1-D ``np.dot``, and row norms by ``row_norms``."""
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
        raise SupportUnavailable(f"no exact support value for {type(self).__name__}; "
                                 "use sampled probes")

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

    def _replace(self, cls=None, **changes):
        """This validated set, or a ``cls`` built from its fields alone, with new, as-stored
        values of ``_replaceable`` fields, checked by the kind's ``_store``; the rest is shared."""
        new = object.__new__(cls or type(self))
        if not new._replaceable.issuperset(changes):
            raise TypeError(f"{type(new).__name__} can replace only {sorted(new._replaceable)}")
        new.__dict__.update({fld.name: getattr(self, fld.name) for fld in fields(self)} if cls
                            else self.__dict__)
        new._store(**changes)
        return new


@dataclass(frozen=True, eq=False)
class _UnitNormal(ConvexSet):
    """Halfspace and hyperplane data: a normal a != 0 and offset b, stored
    scaled to a unit normal."""

    a: np.ndarray
    b: float
    _replaceable = frozenset({"b"})
    _one_sided = True  # a support value along +a only, as for a halfspace

    def __post_init__(self):
        a, b, n = _normal_in_range(as_point(self.a), self.b)
        self._store(a=a / n, b=float(b) / n)

    def _store(self, **fields):
        """Check and set fields given in stored form: a unit normal, a scaled offset."""
        if "a" in fields:
            fields["a"] = _freeze(fields["a"], "a")
        if "b" in fields:
            fields["b"] = _finite(fields["b"], "b")
        self.__dict__.update(fields)

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

    def project_many(self, X):
        X = as_points(X, self.dim)
        excess = np.vecdot(X, self.a) - self.b
        out = X.copy()
        out_side = excess > 0.0
        out[out_side] -= excess[out_side, None] * self.a
        return out

    def distance_many(self, X):
        return _positive_part(np.vecdot(as_points(X, self.dim), self.a) - self.b)


class Hyperplane(_UnitNormal):
    """{x : <a, x> = b}."""

    kind = "hyperplane"
    _one_sided = False

    def project(self, x):
        x = as_point(x, dim=self.dim)
        return x - (float(np.dot(self.a, x)) - self.b) * self.a

    def project_many(self, X):
        X = as_points(X, self.dim)
        return X - (np.vecdot(X, self.a) - self.b)[:, None] * self.a

    def distance_many(self, X):
        return np.abs(np.vecdot(as_points(X, self.dim), self.a) - self.b)


@dataclass(frozen=True, eq=False)
class Ball(ConvexSet):
    kind = "ball"
    center: np.ndarray
    radius: float
    _replaceable = frozenset({"center", "radius"})

    def __post_init__(self):
        self._store(center=self.center, radius=self.radius)

    def _store(self, **fields):
        """Check and set the given fields, as the constructor takes them."""
        if "center" in fields:
            fields["center"] = _freeze(as_point(fields["center"]), "center")
        if "radius" in fields:
            if not fields["radius"] > 0.0:
                raise ValueError("radius must be positive")
            fields["radius"] = _finite(fields["radius"], "radius")
        self.__dict__.update(fields)

    @property
    def dim(self):
        return self.center.size

    def project(self, x):
        x = as_point(x, dim=self.dim)
        d = x - self.center
        n = float(np.linalg.norm(d))
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
        return _positive_part(row_norms(as_points(X, self.dim) - self.center) - self.radius)

    def support_value(self, f):
        return float(np.dot(f, self.center)) + self.radius * float(np.linalg.norm(f))

    def support_point(self, f):
        return self.center + self.radius * f / float(np.linalg.norm(f))

    def translate(self, v):
        return self._replace(center=self.center + as_point(v, dim=self.dim))


def _convex_hull_ccw(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns CCW hull vertices, collinear dropped."""
    pts = np.unique(np.round(points, 15), axis=0)
    if len(pts) < 3:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


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
        object.__setattr__(self, "vertices", _freeze(_convex_hull_ccw(v), "vertices"))

    @property
    def dim(self):
        return 2

    def contains(self, x, tol=0.0):
        x = as_point(x, dim=2)
        v = self.vertices
        m = len(v)
        if m == 1:
            return float(np.linalg.norm(x - v[0])) <= tol
        if m == 2:
            return self.distance(x) <= tol
        for i in range(m):
            p, q = v[i], v[(i + 1) % m]
            edge = q - p
            # Outward normal is (edge_y, -edge_x) for CCW orientation.
            if (x[0] - p[0]) * edge[1] - (x[1] - p[1]) * edge[0] > tol * np.linalg.norm(edge):
                return False
        return True

    def project(self, x):
        x = as_point(x, dim=2)
        v = self.vertices
        m = len(v)
        if m == 1:
            return v[0].copy()
        if m >= 3 and self.contains(x):
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

    def project_many(self, X):
        """``project`` on every row: each row's nearest edge candidate, the
        first of equal ones as in the loop, or the row itself when every
        edge test puts it inside."""
        X = as_points(X, 2)
        v = self.vertices
        m = len(v)
        if m == 1:
            return np.repeat(v, len(X), axis=0)
        P = v if m >= 3 else v[:1]                    # edge starts p
        E = np.roll(v, -1, axis=0)[:len(P)] - P       # edges q - p
        t = np.vecdot(X[:, None, :] - P, E) / np.vecdot(E, E)
        t = _positive_part(t)
        t = np.where(t < 1.0, t, 1.0)
        cand = P + t[:, :, None] * E
        gap = X[:, None, :] - cand
        out = cand[np.arange(len(X)), row_norms(gap).argmin(axis=1)]
        if m >= 3:
            outward = ((X[:, None, 0] - P[:, 0]) * E[:, 1]
                       - (X[:, None, 1] - P[:, 1]) * E[:, 0])
            inside = ~(outward > 0.0).any(axis=1)
            out[inside] = X[inside]
        return out

    def membership(self, x, tol=0.0):
        return self.contains(x, tol) or self.distance(x) <= tol

    def support_value(self, f):
        return float(np.max(self.vertices @ as_point(f, dim=2)))

    def support_point(self, f):
        vals = self.vertices @ as_point(f, dim=2)
        return self.vertices[int(np.argmax(vals))].copy()

    def translate(self, v):
        return Polygon2D(self.vertices + as_point(v, dim=2))


def _check_orthonormal(basis: np.ndarray, tol=1e-10):
    gram = basis @ basis.T
    if np.max(np.abs(gram - np.eye(len(basis)))) > tol:
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
        # not a field: the i of rows that all are unit vectors e_i, contiguous, else None
        rows, cols = np.nonzero(b)
        unit = rows.size == b.shape[0] and (b[rows, cols] == 1.0).all()
        object.__setattr__(self, "_coords", cols.copy() if unit else None)

    @property
    def dim(self):
        return self.basis.shape[1]

    def project(self, x):
        x = as_point(x, dim=self.dim)
        if self._coords is None:
            return self.basis.T @ (self.basis @ x)
        out = np.zeros(x.size)
        out[self._coords] = x[self._coords] + 0.0  # + 0.0: the matmul's +0.0 for a -0.0
        return out

    def project_many(self, X):
        # stacked matrix-vector products: the same BLAS call per row as project
        X = as_points(X, self.dim)
        return (self.basis.T @ (self.basis @ X[:, :, None]))[:, :, 0]

    def support_value(self, f):
        if float(np.linalg.norm(self.basis @ f)) <= 1e-12 * np.linalg.norm(f):
            return 0.0
        raise SupportUnavailable("subspace is unbounded in this direction")

    def translate(self, v):
        return self._replace(AffineSubspace, anchor=as_point(v, dim=self.dim))


@dataclass(frozen=True, eq=False)
class AffineSubspace(ConvexSet):
    """anchor + span(basis) with orthonormal basis rows."""

    kind = "affine_subspace"
    anchor: np.ndarray
    basis: np.ndarray
    _replaceable = frozenset({"anchor"})

    def __post_init__(self):
        self._store(anchor=self.anchor, basis=self.basis)

    def _store(self, **fields):
        """Check and set the given fields, as the constructor takes them, against
        the stored basis when none is given."""
        a = as_point(fields["anchor"]) if "anchor" in fields else self.anchor
        b = _freeze(fields["basis"], "basis") if "basis" in fields else self.basis
        if b.ndim != 2 or b.shape[1] != a.size:
            raise ValueError("basis shape incompatible with anchor")
        if "basis" in fields:
            _check_orthonormal(b)
        self.__dict__.update(anchor=_freeze(a, "anchor"), basis=b)

    @property
    def dim(self):
        return self.anchor.size

    def project(self, x):
        x = as_point(x, dim=self.dim)
        y = x - self.anchor
        return self.anchor + self.basis.T @ (self.basis @ y)

    def project_many(self, X):
        Y = as_points(X, self.dim) - self.anchor
        return self.anchor + (self.basis.T @ (self.basis @ Y[:, :, None]))[:, :, 0]

    def support_value(self, f):
        if float(np.linalg.norm(self.basis @ f)) <= 1e-12 * np.linalg.norm(f):
            return float(np.dot(f, self.anchor))
        raise SupportUnavailable("affine flat is unbounded in this direction")

    def translate(self, v):
        return self._replace(anchor=self.anchor + as_point(v, dim=self.dim))


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

    def project_many(self, X):
        return np.maximum(as_points(X, self.d), 0.0)

    def distance_many(self, X):
        return row_norms(np.minimum(as_points(X, self.d), 0.0))

    def support_value(self, f):
        if np.all(f <= 0.0):
            return 0.0
        raise SupportUnavailable("orthant is unbounded in this direction")

    def translate(self, v):
        v = as_point(v, dim=self.d)
        return _orthant_polyhedron(self.d)._replace(b=-v, witness=np.maximum(v, 0.0) + 1.0)


@dataclass(frozen=True, eq=False)
class Polyhedron(ConvexSet):
    """{x : <a_i, x> <= b_i for all i}; the constructor demands a witness.

    Rows of ``normals`` are the a_i (not necessarily unit), paired with
    offsets ``b``.  Nonemptiness is certified by the feasible witness
    point, checked at construction.
    """

    kind = "polyhedron"
    normals: np.ndarray
    b: np.ndarray
    witness: np.ndarray
    _replaceable = frozenset({"b", "witness"})

    def __post_init__(self):
        A = _freeze(self.normals, "normals")
        b = _freeze(self.b, "b")
        if A.ndim == 2 and b.shape == A.shape[:1]:  # otherwise _store reports the shapes
            s, norms = _row_scales(A)
            if not s.all():
                raise ValueError("zero constraint normal")
            A, b = _freeze(A / s[:, None] / norms[:, None], "normals"), b / s / norms
        self._store(normals=A, b=b, witness=self.witness)

    def _store(self, **fields):
        """Check and set fields given in stored form (unit rows, scaled offsets),
        against the stored ones not given; b must be finite before the witness
        is tested."""
        A = fields.get("normals", self.normals)
        b = _freeze(fields.get("b", self.b), "b")
        if A.ndim != 2 or b.shape != A.shape[:1] or not b.size:
            raise ValueError("normals must be (m, d), b must be (m,)")
        w = as_point(fields.get("witness", self.witness), dim=A.shape[1])
        if (A @ w > b + 1e-9).any():
            raise ValueError("witness point is not feasible")
        self.__dict__.update(normals=A, b=b, witness=_freeze(w, "witness"))

    @property
    def dim(self):
        return self.normals.shape[1]

    def contains(self, x, tol=0.0):
        x = as_point(x, dim=self.dim)
        return bool(np.all(self.normals @ x <= self.b + tol))

    def project(self, x):
        """The nearest point, from the least-distance program in z = y - x:
        min ||z|| subject to A z <= r, r = b - A x (Lawson & Hanson, ch. 23).

        Scaled by the largest violation s, so that it is O(1), the program
        is the NNLS min ||E u - f|| over u >= 0 with E = [-A^T; g^T],
        g = -r / s and f = e_{d+1}.  Its residual res = E u - f gives
        y = x - s res[:d] / res[d] = x - A^T lambda with the multipliers
        lambda = s u / -res[d], where -res[d] = 1 - g.u.  The KKT
        certificate is checked on every call (see ``_certify``).
        """
        x = as_point(x, dim=self.dim)
        A, b = self.normals, self.b
        r = b - A @ x
        s = -float(r.min())
        if s <= 0.0:
            return x.copy()
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
        return y

    def membership(self, x, tol=0.0):
        return self.contains(x, tol) or self.distance(x) <= tol

    def support_value(self, f):
        if _polyhedron_unbounded_in(self, f):
            raise SupportUnavailable("polyhedron is unbounded in this direction")
        verts = polyhedron_vertices(self)
        if len(verts) == 0:
            raise SupportUnavailable("polyhedron has no vertices; use sampled probes")
        return float(np.max(verts @ f))

    def support_point(self, f):
        self.support_value(f)  # raises if unbounded
        verts = polyhedron_vertices(self)
        return verts[int(np.argmax(verts @ f))]

    def translate(self, v):
        v = as_point(v, dim=self.dim)
        return Polyhedron(self.normals, self.b + self.normals @ v, witness=self.witness + v)


@dataclass(frozen=True, eq=False)
class DiagonalAffineGraph(ConvexSet):
    """The set {(x, offset + D x)} in R^{2d} with D = diag(theta).

    Operates on packed product points: the first d coordinates are x, the
    last d are the second factor.  Projection is the per-coordinate closed
    form x_n = (alpha_n + theta_n*(beta_n - offset_n)) / (1 + theta_n^2)
    for input (alpha, beta).
    """

    kind = "diagonal_affine_graph"
    theta: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        t = as_point(self.theta)
        o = as_point(self.offset, dim=t.size)
        object.__setattr__(self, "theta", _freeze(t, "theta"))
        object.__setattr__(self, "offset", _freeze(o, "offset"))
        # not a field: the denominator 1 + theta^2 of both kernels
        object.__setattr__(self, "_denom", 1.0 + self.theta ** 2)

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

    def project_many(self, Z):
        Z = as_points(Z, self.dim)
        d = self.half_dim
        out = np.empty(Z.shape)
        out[:, :d] = x = (Z[:, :d] + self.theta * (Z[:, d:] - self.offset)) / self._denom
        out[:, d:] = self.offset + self.theta * x
        return out

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


@functools.lru_cache(maxsize=8)
def _orthant_polyhedron(d: int) -> Polyhedron:
    """The orthant of R^d as a polyhedron, whose -I its translates share."""
    return Polyhedron(-np.eye(d), np.zeros(d), witness=np.zeros(d))


SET_KINDS = (Halfspace, Hyperplane, Ball, Polygon2D, OrthoSubspace,
             AffineSubspace, NonnegOrthant, Polyhedron, DiagonalAffineGraph)
_KIND_BY_TAG = {cls.kind: cls for cls in SET_KINDS}

_EPS = float(np.finfo(float).eps)


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
        while sol.min() <= 0.0:
            cur = u[passive]
            neg = sol <= 0.0
            cur += float((cur[neg] / (cur[neg] - sol[neg])).min()) * (sol - cur)
            u[passive] = np.where(cur <= tol, 0.0, cur)
            passive = [k for k, c in zip(passive, cur) if c > tol]
            sol = _passive_solve(E, f, Q, q, passive)
            if sol is None:
                raise ProjectionCertificateError("NNLS passive set became singular")
        u[passive] = sol
        w = (q - Q @ u) / norms
    raise ProjectionCertificateError(f"NNLS did not finish within {4 * m + 4} iterations")


def _passive_solve(E, f, Q, q, cols):
    """argmin ||E[:, cols] v - f||, None if singular.  Normal equations while
    there are fewer columns than rows; a square system is solved directly,
    since its normal equations would square a condition number that grows
    with the distance of the projected point (E nears rank d then)."""
    if len(cols) == 1:
        return q[cols] / Q[cols[0], cols[0]]
    try:
        if len(cols) == f.size:
            return np.linalg.solve(E[:, cols], f)
        return np.linalg.solve(Q[cols][:, cols], q[cols])
    except np.linalg.LinAlgError:
        return None


_KKT_TOL = 1e-9


def _certify(x, y, lam, A, b):
    """Raise unless (y, lam) satisfies the KKT conditions of projecting x
    onto {A y <= b} at tolerance _KKT_TOL * max(1, ||x||)."""
    tol = _KKT_TOL * max(1.0, math.sqrt(float(x @ x)))
    slack = b - A @ y
    stat = y - x + A.T @ lam
    checks = (
        ("primal feasibility", -float(slack.min())),
        ("dual feasibility", -float(lam.min())),
        ("complementary slackness", float(lam @ np.abs(slack)) / max(1.0, float(lam.sum()))),
        ("stationarity", math.sqrt(float(stat @ stat))),
    )
    for name, value in checks:
        if not value <= tol:
            raise ProjectionCertificateError(
                f"polyhedron projection failed its KKT certificate: {name} "
                f"residual {value:.3e} > {tol:.3e}")


def polyhedron_vertices(S: Polyhedron, tol: float = 1e-9) -> np.ndarray:
    """Enumerate vertices of a polyhedron in dimension <= 3."""
    d = S.dim
    if d > 3:
        raise SupportUnavailable("vertex enumeration only supported for d <= 3")
    A, b = S.normals, S.b
    m = A.shape[0]
    verts = []
    from itertools import combinations
    for idx in combinations(range(m), d):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ v <= b + tol):
            verts.append(v)
    if not verts:
        return np.empty((0, d))
    return np.unique(np.round(np.array(verts), 12), axis=0)


def _polyhedron_unbounded_in(S: Polyhedron, f: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether sup_S <f, .> = +inf.  S is nonempty, so by Farkas' lemma the
    supremum is finite iff f lies in the cone of the unit normals, that is,
    iff min over lambda >= 0 of ||A^T lambda - f / ||f|||| is at most ``tol``
    (Boyd & Vandenberghe, *Convex Optimization*, sec. 5.8).  An NNLS that
    does not finish raises, as in ``project``."""
    n = float(np.linalg.norm(f))
    if n == 0.0:
        return False
    fhat = f / n
    lam = _nnls(S.normals.T, fhat)
    return float(np.linalg.norm(S.normals.T @ lam - fhat)) > tol


def _support_direction(f, dim: int) -> np.ndarray:
    """f as a point of R^dim to take a support point, slice or exposure in.
    Those divide by ||f||, so f must be nonzero and its norm must not
    underflow to 0, as it does when all its entries are below about 1e-162."""
    f = as_point(f, dim=dim)
    if not f.any():
        raise ValueError("support direction must be nonzero")
    if float(np.linalg.norm(f)) == 0.0:
        raise ValueError(f"support direction is nonzero but its norm underflows to 0 "
                         f"(largest entry {float(np.max(np.abs(f))):.3g}); scale it up")
    return f


def slice_sample(S, f, alpha: float, n_samples: int, rng_seed: int) -> np.ndarray:
    """Sample points of S lying within alpha of sup <f, .> over S.

    The supporting face is always represented: the first returned point
    attains the supremum where a support point is available.  Ball and
    polygon slices are sampled directly (cap parametrization, halfplane
    clip); other kinds fall back to rejection over projected Gaussians
    with a finite budget.  Every branch draws the random numbers of a
    one-at-a-time loop, in its order, and computes the points from them as
    whole arrays with the same rounding, so the result does not depend on
    the batching.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    f = _support_direction(f, S.dim)
    sup = S.support_value(f)
    level = sup - alpha  # keep x with <f, x> >= level

    if isinstance(S, Ball):
        return _ball_slice(S, f, level, n_samples, rng)
    if isinstance(S, Polygon2D):
        return _polygon_slice(S, f, level, n_samples, rng)

    # generic rejection over boundary-biased samples, drawn in batches of at
    # most the number still missing: the draws of a one-at-a-time loop
    found, count, tries = [], 0, 0
    budget = 200 * n_samples
    while count < n_samples and tries < budget:
        k = min(n_samples - count, budget - tries)
        X = S.project_many(rng.standard_normal((k, S.dim)) * (2.0 + abs(sup)))
        tries += k
        found.append(X[np.vecdot(X, f) >= level - 1e-12])
        count += len(found[-1])
    if not count:
        raise SamplerFailure(f"no slice samples found within budget {budget}")
    # when the budget ran out first, the points found are repeated in turn
    return np.concatenate(found)[np.arange(n_samples) % count]


def _ball_slice(S: Ball, f, level: float, n_samples: int, rng) -> np.ndarray:
    """The support point, then points c + r u of the cap {<f, x> >= level}.

    Each attempt draws the polar angle psi, a Gaussian whose part tangent
    to f gives the direction (redrawn, after a new psi, if that part is
    below 1e-14), and the radius: r with probability 0.7, else r times a
    uniform to the power 1/d.  Attempts run in rounds of at most the number
    of points still missing, so no round draws past the point where a
    one-at-a-time loop stops.  The draws and the rejection are scalar; the
    points and the level test are whole-array arithmetic with the same
    rounding.  In one dimension the slice is a segment, sampled uniformly.
    """
    c, radius, d = S.center, S.radius, S.dim
    nf = float(np.linalg.norm(f))
    fhat = f / nf
    # cos of the polar angle at which the sphere leaves the slice
    cos_min = max(-1.0, (level - float(np.dot(f, c))) / (radius * nf))
    found, count = [S.support_point(f)[None]], 1
    if d == 1:
        # every Gaussian is parallel to f there, so the cap has no tangent part
        t = rng.uniform(min(cos_min, 1.0) * radius, radius, n_samples - 1)
        return np.concatenate(found + [c + t[:, None] * fhat])
    psi_max = float(np.arccos(np.clip(cos_min, -1.0, 1.0)))
    while count < n_samples:
        psi, W, nw, scale = [], [], [], []
        for _ in range(n_samples - count):
            p = psi_max * rng.random()  # rng.uniform(0.0, psi_max), the same draw
            w = rng.standard_normal(d)
            w -= float(np.dot(w, fhat)) * fhat
            n = float(np.linalg.norm(w))
            if n < 1e-14:
                continue
            psi.append(p)
            W.append(w)
            nw.append(n)
            scale.append(radius * (1.0 if rng.random() < 0.7 else rng.random() ** (1.0 / d)))
        if not psi:
            continue
        psi, W = np.array(psi)[:, None], np.array(W) / np.array(nw)[:, None]
        X = c + np.array(scale)[:, None] * (np.cos(psi) * fhat + np.sin(psi) * W)
        X = X[np.vecdot(X, f) >= level - 1e-12]
        found.append(X)
        count += len(X)
    return np.concatenate(found)


def _polygon_slice(S: Polygon2D, f, level: float, n_samples: int, rng) -> np.ndarray:
    """The vertices of the clipped slice, then points on it: with
    probability 1/2 (always for a segment) on an edge, at a uniform t from
    a uniform vertex to the next, else a Dirichlet(1, ..., 1) combination of
    all vertices.  A single vertex is repeated.  The draws are scalar, the
    points whole-array arithmetic with the same rounding."""
    clipped = _clip_polygon_halfplane(S.vertices, f, level)
    m = len(clipped)
    if m == 0:
        raise SamplerFailure("slice clipped to empty set")
    if m == 1:
        return np.repeat(clipped, n_samples, axis=0)
    if n_samples <= m:
        return clipped[:n_samples]
    on_edge, I, T, W = [], [], [], []
    ones = np.ones(m)
    for _ in range(n_samples - m):
        edge = rng.random() < 0.5 or m == 2
        on_edge.append(edge)
        if edge:
            I.append(rng.integers(m))
            T.append(rng.random())
        else:
            W.append(rng.dirichlet(ones))
    out = np.empty((n_samples - m, 2))
    on_edge = np.array(on_edge)
    if I:
        I, T = np.array(I), np.array(T)[:, None]
        out[on_edge] = (1 - T) * clipped[I] + T * clipped[(I + 1) % m]
    if W:
        out[~on_edge] = (np.array(W)[:, None, :] @ clipped)[:, 0]
    return np.concatenate((clipped, out))


def _clip_polygon_halfplane(vertices: np.ndarray, f: np.ndarray, level: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a CCW polygon against {<f, x> >= level}."""
    out = []
    m = len(vertices)
    if m == 1:
        return vertices.copy() if float(np.dot(f, vertices[0])) >= level - 1e-12 else np.empty((0, 2))
    ring = list(vertices) if m >= 3 else [vertices[0], vertices[1]]
    n_ring = len(ring)
    for i in range(n_ring if m >= 3 else 1):
        p = ring[i]
        q = ring[(i + 1) % n_ring]
        fp = float(np.dot(f, p)) - level
        fq = float(np.dot(f, q)) - level
        if fp >= -1e-12:
            out.append(p)
        if (fp > 1e-12 and fq < -1e-12) or (fp < -1e-12 and fq > 1e-12):
            t = fp / (fp - fq)
            out.append(p + t * (q - p))
    if m == 2 and float(np.dot(f, ring[1])) - level >= -1e-12:
        out.append(ring[1])
    if not out:
        return np.empty((0, 2))
    return np.unique(np.round(np.array(out), 12), axis=0)


# ---------------------------------------------------------------------------
# JSON encoding: {"kind": ..., numeric fields as arrays}.


def set_to_dict(S) -> dict:
    return S.to_dict()


def set_from_dict(d: dict):
    """Rebuild a set from its encoding; unknown tags and fields raise ValueError."""
    if d.get("kind") not in _KIND_BY_TAG:
        raise ValueError(f"unknown set kind tag {d.get('kind')!r}")
    return _KIND_BY_TAG[d["kind"]].from_dict(d)
