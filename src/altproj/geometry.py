"""Point validation and row norms in R^d.

Points are plain 1-D float64 numpy arrays.  All operations treat the
ambient dimension as fixed: mixing dimensions is an error, not a
broadcast.
"""

from __future__ import annotations

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
