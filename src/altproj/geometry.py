"""Point validation, row norms, and conical regions in R^d.

Points are plain 1-D float64 numpy arrays.  All operations treat the
ambient dimension as fixed: mixing dimensions is an error, not a
broadcast.  The two cone families used throughout the package are

    C(f, alpha) = {x : <f, x> >= alpha * ||x||}      (convex)
    V(f, alpha) = {x : <f, x> <= alpha * ||x||}      (its closed complement-shaped cone)

for a unit functional f (represented by its Riesz vector) and
alpha in (0, 1).  Shifted copies C - lambda*x0 and V + lambda*x0, with
x0 the Riesz vector itself, are expressed through :class:`ConeSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# np.count_nonzero's C function: its wrapper's dispatch costs more than a short count
from numpy._core._multiarray_umath import count_nonzero as _count_nonzero


class DimensionMismatch(ValueError):
    """Raised when two points of different ambient dimension meet."""


_FLOAT64 = np.dtype(np.float64)


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Validate and convert ``x`` to a finite 1-D float64 array.

    A finite 1-D float64 ``np.ndarray`` is returned as is, without the
    cost of ``np.asarray`` (which would not copy it either).

    Parameters
    ----------
    x : array-like
        Coordinates of the point.
    dim : int, optional
        Required dimension; mismatch raises :class:`DimensionMismatch`.
    """
    p = x if type(x) is np.ndarray and x.dtype == _FLOAT64 else np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    n = p.size
    if n == 0:
        raise ValueError("point must have at least one coordinate")
    if _count_nonzero(np.isfinite(p)) != n:  # cheaper than .all() on short rows
        raise ValueError("point has non-finite coordinates")
    if dim is not None and n != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {n}")
    return p


def as_points(X, dim: int) -> np.ndarray:
    """Validate and convert ``X`` to a finite (k, dim) float64 array of k points."""
    P = np.asarray(X, dtype=float)
    if P.ndim != 2:
        raise ValueError(f"points must be a 2-D (k, d) array, got shape {P.shape}")
    if not np.isfinite(P).all():
        raise ValueError("points have non-finite coordinates")
    if P.shape[1] != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {P.shape[1]}")
    return P


def row_norms(X) -> np.ndarray:
    """Norms of the rows of a (k, d) array, each bit-equal to ``np.linalg.norm``
    of the row: ``np.vecdot`` sums in the order of the 1-D ``np.dot`` under
    ``np.linalg.norm``, where ``np.linalg.norm(X, axis=1)`` does not."""
    return np.sqrt(np.vecdot(X, X))


@dataclass(frozen=True)
class ConeSpec:
    """A shifted cone C(f, alpha) - shift*x0 or V(f, alpha) + shift*x0.

    ``riesz`` is the unit vector representing the functional f; it is
    also the unit vector x0 with f(x0) = 1 along which the cone shifts.
    The shift sign convention is fixed: C-cones shift along -riesz,
    V-cones along +riesz.
    """

    riesz: np.ndarray
    alpha: float
    shift: float = 0.0
    kind: str = "C"

    def __post_init__(self):
        r = as_point(self.riesz)
        nr = np.linalg.norm(r)
        if nr == 0.0:
            raise ValueError("riesz vector must be nonzero")
        r = r / nr
        object.__setattr__(self, "riesz", r)
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie strictly in (0, 1), got {self.alpha}")
        if not 0.0 <= self.shift < np.inf:
            raise ValueError("shift must be finite and >= 0")
        if self.kind not in ("C", "V"):
            raise ValueError(f"kind must be 'C' or 'V', got {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.riesz.size


def cone_contains(spec: ConeSpec, x, tol: float = 0.0) -> bool:
    """Membership test for a shifted cone.

    For kind "C" with shift lam this checks x + lam*x0 in C(f, alpha),
    i.e. f(x + lam*x0) >= alpha*||x + lam*x0|| - tol.  For kind "V" it
    checks x - lam*x0 in V(f, alpha) with the analogous +tol slack.
    """
    x = as_point(x, dim=spec.dim)
    if spec.kind == "C":
        y = x + spec.shift * spec.riesz
        return float(np.dot(spec.riesz, y)) >= spec.alpha * float(np.linalg.norm(y)) - tol
    y = x - spec.shift * spec.riesz
    return float(np.dot(spec.riesz, y)) <= spec.alpha * float(np.linalg.norm(y)) + tol


def cone_from_angle(x0, theta: float, shift: float = 0.0, kind: str = "C") -> ConeSpec:
    """Cone spec from an opening parameter theta in (0, pi/2).

    C(theta) = {x : cos(x, x0) >= sin(theta)} equals C(f, sin(theta)),
    and similarly for V; this helper just applies alpha = sin(theta).
    """
    if not (0.0 < theta < np.pi / 2):
        raise ValueError("theta must lie in (0, pi/2)")
    return ConeSpec(riesz=as_point(x0), alpha=float(np.sin(theta)), shift=shift, kind=kind)
