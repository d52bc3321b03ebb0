import math
import warnings

import numpy as np
import pytest

from altproj.geometry import (ConeSpec, DimensionMismatch, as_point, cone_contains,
                              cone_from_angle)


def test_as_point_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_point([1.0, np.nan])
    with pytest.raises(ValueError):
        as_point([np.inf, 0.0])


def _as_point_reference(x, dim=None):
    """as_point without its fast path: every input through ``np.asarray``."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    if p.size == 0:
        raise ValueError("point must have at least one coordinate")
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def _read_only(values):
    arr = np.array(values)
    arr.setflags(write=False)
    return arr


_AS_POINT_INPUTS = {
    "float64": (np.array([1.0, -2.0, 3.5]), None),
    "strided_view": (np.arange(10.0)[::3], None),
    "read_only": (_read_only([0.5, 0.25]), 2),
    "big_endian": (np.array([1.0, 2.0], dtype=">f8"), None),
    "float32": (np.array([0.1, 0.2], dtype=np.float32), None),
    "int": (np.array([1, 2, 3]), 3),
    "list": ([1.0, 2.0], None),
    "zero_d": (np.array(1.0), None),
    "two_d": (np.ones((2, 2)), None),
    "empty": (np.array([]), None),
    "nan": (np.array([1.0, np.nan]), None),
    "inf": (np.array([np.inf, 0.0]), None),
    "minus_inf": (np.array([0.0, -np.inf]), 2),
    "wrong_dim": (np.array([1.0, 2.0]), 3),
    "nan_and_wrong_dim": (np.array([np.nan, 2.0]), 3),
}


@pytest.mark.parametrize("name", sorted(_AS_POINT_INPUTS))
def test_as_point_fast_path_matches_reference(name):
    """The float64 fast path returns the same object, or raises the same
    exception type and message, as conversion through np.asarray."""
    x, dim = _AS_POINT_INPUTS[name]
    try:
        expected = _as_point_reference(x, dim)
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            as_point(x, dim)
        assert str(err.value) == str(exc)
        return
    got = as_point(x, dim)
    assert (got is x) == (expected is x)
    assert got.dtype == expected.dtype == np.float64
    np.testing.assert_array_equal(got, expected)


def test_as_point_large_finite_coordinates_warn_nothing():
    """The finiteness test must not square the coordinates (1e300**2 overflows)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = np.array([1e300, -1e300])
        assert as_point(x) is x


def test_cone_spec_normalizes_and_validates():
    spec = ConeSpec(np.array([0.0, 2.0]), alpha=0.5)
    assert np.linalg.norm(spec.riesz) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ConeSpec(np.array([0.0, 0.0]), alpha=0.5)
    with pytest.raises(ValueError):
        ConeSpec(np.array([1.0, 0.0]), alpha=1.0)
    with pytest.raises(ValueError):
        ConeSpec(np.array([1.0, 0.0]), alpha=0.5, shift=-0.1)


def test_cone_contains_axis_examples():
    e2 = np.array([0.0, 1.0])
    c = ConeSpec(e2, alpha=0.5, kind="C")
    v = ConeSpec(e2, alpha=0.5, kind="V")
    assert cone_contains(c, [0.0, 1.0])
    assert not cone_contains(c, [1.0, 0.0])
    assert cone_contains(v, [1.0, 0.0])


def test_cone_contains_origin_both_kinds():
    e1 = np.array([1.0, 0.0, 0.0])
    for kind in ("C", "V"):
        spec = ConeSpec(e1, alpha=0.7, kind=kind)
        assert cone_contains(spec, np.zeros(3))


def test_cone_shift_conventions():
    # C-cone shifted by lam contains points whose pushed copy enters the cone
    e2 = np.array([0.0, 1.0])
    c = ConeSpec(e2, alpha=0.9, shift=1.0, kind="C")
    assert cone_contains(c, [0.0, -0.5])      # -0.5 + 1.0 = 0.5 on the axis
    assert not cone_contains(c, [0.0, -1.5])  # still below the apex
    # V-cone shifted along +x0: pulled-back copy must satisfy the V inequality
    v = ConeSpec(e2, alpha=0.1, shift=1.0, kind="V")
    assert cone_contains(v, [0.0, 1.0])       # 1.0 - 1.0 = 0 lies in V
    assert not cone_contains(v, [0.0, 2.5])


def test_cone_from_angle_matches_sine():
    e1 = np.array([1.0, 0.0])
    theta = 0.3
    spec = cone_from_angle(e1, theta)
    assert spec.alpha == pytest.approx(math.sin(theta), abs=1e-15)
    # boundary direction at angle pi/2 - theta from the axis sits in the cone
    x = np.array([math.sin(theta), math.cos(theta)])
    assert cone_contains(spec, x, tol=1e-12)


def test_cos_separation_property_on_cone_samples(rng):
    # sampled version of the two-cone cosine bound, asserted here at the
    # geometry level and again as a dedicated check in the probe module
    theta1, theta2 = 0.3, 0.9
    x0 = np.zeros(4)
    x0[0] = 1.0
    c2 = cone_from_angle(x0, theta2, kind="C")
    v1 = cone_from_angle(x0, theta1, kind="V")
    bound = math.cos(theta2 - theta1)
    worst = -np.inf
    for _ in range(10_000):
        psi_x = rng.uniform(0.0, np.pi / 2 - theta2)
        psi_y = rng.uniform(np.pi / 2 - theta1, np.pi)
        wx, wy = rng.standard_normal(4), rng.standard_normal(4)
        for w in (wx, wy):
            w[0] = 0.0
        wx /= np.linalg.norm(wx)
        wy /= np.linalg.norm(wy)
        x = math.cos(psi_x) * x0 + math.sin(psi_x) * wx
        y = math.cos(psi_y) * x0 + math.sin(psi_y) * wy
        assert cone_contains(c2, x, tol=1e-12)
        assert cone_contains(v1, y, tol=1e-12)
        worst = max(worst, float(np.dot(x, y)) / float(np.linalg.norm(x) * np.linalg.norm(y)))
    assert worst <= bound + 1e-9
