"""The acceptance gate's checks of the paper's lemmas and closed forms.

Nothing in the package calls these; the gate and the unit tests do.  Three
groups:

* conical regions in R^d: the two cone families

      C(f, alpha) = {x : <f, x> >= alpha * ||x||}      (convex)
      V(f, alpha) = {x : <f, x> <= alpha * ||x||}      (its closed complement-shaped cone)

  for a unit functional f (represented by its Riesz vector) and alpha in
  (0, 1), with shifted copies C - lambda*x0 and V + lambda*x0, x0 the
  Riesz vector itself, expressed through :class:`ConeSpec`; the eventual
  containment of a set sequence in such a cone;
* standalone geometric fact checks: the norm-gap bound, the cone-cosine
  separation and the cone-with-core neighborhood of a subspace;
* the growth construction's closed forms against the engine: the closed-form
  coordinates, random checkpoints, the relative gap with an underflow floor,
  a windowed engine replay, and the limit graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from altproj.constructions import Ell2Construction, _block_alphas, _first_factor
from altproj.geometry import as_point
from altproj.sets import DiagonalAffineGraph, OrthoSubspace


# ---------------------------------------------------------------------------
# Conical regions


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
# Standalone geometric fact checks


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


# ---------------------------------------------------------------------------
# Growth construction: closed forms against the engine


def ell2_limit_graph(c: Ell2Construction) -> DiagonalAffineGraph:
    """The unperturbed graph {(x, Dx)} the block graphs converge to."""
    return DiagonalAffineGraph(c.weights, np.zeros(c.d))


def ell2_closed_alphas(c: Ell2Construction, h: int, t: int) -> np.ndarray:
    """Closed-form first-factor coordinates after t steps of block h."""
    blk = c.blocks[h - 1]
    if not (0 <= t <= blk.N):
        raise ValueError(f"step {t} outside block {h} of length {blk.N}")
    return _block_alphas(blk.start_alphas, c.weights, blk.M, h, t)


def ell2_checkpoints(c: Ell2Construction, n_checkpoints: int, rng_seed: int = 0) -> list:
    """Random (h, t) checkpoints, t in 1..N_h, skewed toward small t."""
    rng = np.random.default_rng(rng_seed)
    pts = []
    for _ in range(n_checkpoints):
        h = int(rng.integers(1, c.H + 1))
        N = c.blocks[h - 1].N
        t = int(rng.integers(1, N + 1)) if rng.uniform() < 0.5 else \
            int(min(N, max(1, round(N ** rng.uniform()))))
        pts.append((h, t))
    return pts


def ell2_relative_gap(got: np.ndarray, expected: np.ndarray,
                      floor: float = 1e-100) -> float:
    """Per-coordinate relative gap with an underflow floor.

    Settled coordinates decay below float64's subnormal range where
    relative comparison is meaningless; values under ``floor`` (already
    ~1e100 times below the iterate scale) are compared absolutely against
    the floor instead.
    """
    return float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), floor)))


def ell2_verify_engine(c: Ell2Construction, checkpoints, window: int = 64) -> float:
    """Max relative gap between engine iterates and the closed forms.

    Each checkpoint (h, t) warm-starts the engine from the closed-form
    state ``window`` steps earlier inside the same block and compares the
    engine's first-factor coordinates at t against the closed form.  This
    spot-checks the engine recursion against the tables without paying
    for a full run (a full run is compared through ``ell2_run``'s
    ``record_indices``).
    """
    d = c.d
    first_factor = _first_factor(d)
    worst = 0.0
    for h, t in checkpoints:
        blk = c.blocks[h - 1]
        t0 = max(0, t - window)
        state = np.concatenate((ell2_closed_alphas(c, h, t0), np.zeros(d)))
        graph = DiagonalAffineGraph(blk.theta, blk.b)
        for _ in range(t - t0):
            state = first_factor.project(graph.project(state))
        worst = max(worst, ell2_relative_gap(state[:d], ell2_closed_alphas(c, h, t)))
    return worst
