"""Generators for the package's experiment instances.

Four families live here:

* a planar pair of touching square bodies whose wobbling-vertex
  perturbations steer the iterates alternately toward the two ends of the
  shared segment (a certified non-convergence run);
* a planar line family tilting toward the horizontal axis whose block
  schedule drags the iterate out to infinity (certified unboundedness for
  perturbed subspaces with nontrivial intersection);
* a product-space graph construction with per-block parameters (M_h, N_h,
  theta^h, b^h) and closed-form iterate tables, realizing unbounded
  perturbed runs for two subspaces with trivial intersection whose sum is
  "barely" closed at the configured truncation;
* positive stability scenarios (exposed tangency, interior overlap,
  transversal planes, inequality constraints over the nonnegative
  orthant) with shrinking perturbation families.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .engine import Adaptive, Blocks, PerStep, RunConfig, Trace, run_perturbed
from .geometry import as_point
from .sets import (AffineSubspace, Ball, DiagonalAffineGraph, Halfspace,
                   NonnegOrthant, OrthoSubspace, Polygon2D, Polyhedron, _row_scales)


class InfeasibleParams(ValueError):
    """Scenario parameters violate the scenario's defining conditions."""


class InfeasibleStep(InfeasibleParams):
    """A stability scenario's step-1 sets fail their constructors' checks (their message)."""


class BlockBudgetExceeded(RuntimeError):
    """A block-length search passed its hard budget."""

    def __init__(self, message, h, needed):
        super().__init__(message)
        self.h = h
        self.needed = needed


# ---------------------------------------------------------------------------
# Touching squares with wobbling vertices


def unstable_body(h: int, sign: int = 1) -> Polygon2D:
    """C_h (sign 1) or D_h (sign -1) of the oscillation family, or its limit A or B for h = 0.
    A is the unit-height square on [-1, 1] above the x-axis, B its mirror image below; C_h
    and D_h lift one bottom/top vertex by 1/ceil(h/2), on the left for odd h and on the
    right for even h, so consecutive pairs touch alternately at (1, 0) and (-1, 0)."""
    lift = 1.0 / ((h + 1) // 2) if h else 0
    left, right = (lift, 0) if h % 2 == 1 else (0, lift)
    return Polygon2D([(1, sign), (-1, sign), (1, sign * right), (-1, sign * left)])


def example_unstable_bodies(h: int):
    """The limit bodies and the h-th perturbed pair of the oscillation
    family: (A, B, C_h, D_h), as :func:`unstable_body` builds them."""
    if h < 1:
        raise ValueError("index must be >= 1")
    return unstable_body(0), unstable_body(0, -1), unstable_body(h), unstable_body(h, -1)


def run_example_unstable(n_blocks: int, max_block_len: int = 10_000,
                         start=(0.0, 0.0), record_stride: int = 1) -> Trace:
    """Run the oscillation schedule from ``start`` through n_blocks blocks.

    Block k runs on (C_k, D_k) until the iterate is within 1/2 of (1, 0)
    for odd k, of (-1, 0) for even k, so the trace contains iterate pairs
    at distance >= 1.  A block whose predicate does not fire within
    max_block_len steps ends the run: the trace's status is then
    ``schedule_exhausted``, ``schedule_complete`` is false and its last
    block ends with ``"budget"``.
    """
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")

    def fired(k, a):
        anchor = np.array([1.0, 0.0]) if k % 2 == 1 else np.array([-1.0, 0.0])
        return float(np.linalg.norm(a - anchor)) < 0.5

    return _run_all_blocks(lambda k: (unstable_body(k), unstable_body(k, -1)), fired,
                           n_blocks, max_block_len, start, record_stride)


def _run_all_blocks(pair, fired, n_blocks, max_block_len, start, record_stride) -> Trace:
    """Run the planar Adaptive(pair, fired) over blocks 1 to n_blocks to its end: max_iter
    leaves room for every block's budget."""

    def pairs(k):
        if k > n_blocks:
            raise IndexError(k)  # the schedule's end
        return pair(k)
    schedule = Adaptive(pairs=pairs, switch_predicate=fired, max_block_len=max_block_len)
    cfg = RunConfig(start=as_point(np.asarray(start, dtype=float), dim=2),
                    max_iter=n_blocks * max_block_len + 1,
                    record_stride=record_stride)
    return run_perturbed(schedule, cfg)


# ---------------------------------------------------------------------------
# Escaping-line family


def tilted_line(k: int) -> AffineSubspace:
    """The line through (0, 1/k) and (k, 0)."""
    if k < 1:
        raise ValueError("index must be >= 1")
    anchor = np.array([0.0, 1.0 / k])
    direction = np.array([float(k), -1.0 / k])
    direction /= np.linalg.norm(direction)
    return AffineSubspace(anchor, direction[None, :])


def run_example_unbounded_lines(n_blocks: int, max_block_len: int = 10_000,
                                start=(0.0, 0.0), record_stride: int = 1) -> Trace:
    """Run the escaping-line schedule: fixed axis A, per-block line C_k.

    Block k alternates between the horizontal axis and the line through
    (0, 1/k) and (k, 0) until the iterate norm exceeds k/2, so the
    block-end norms grow without bound as blocks accumulate.  A block that
    does not reach its norm within max_block_len steps ends the run, as in
    :func:`run_example_unstable`.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    axis = OrthoSubspace(np.array([[1.0, 0.0]]))

    def fired(k, a):
        return float(np.linalg.norm(a)) > k / 2.0

    return _run_all_blocks(lambda k: (axis, tilted_line(k)), fired, n_blocks,
                           max_block_len, start, record_stride)


# ---------------------------------------------------------------------------
# Product-space graph construction


@dataclass(frozen=True)
class Ell2Block:
    """Parameters and closed-form iterate table for one schedule block."""

    h: int
    M: float
    N: int
    theta: np.ndarray
    b: np.ndarray
    start_alphas: np.ndarray
    end_alphas: np.ndarray


@dataclass(frozen=True)
class Ell2Construction:
    """Per-block growth construction at truncation dimension d.

    ``ratio`` is the geometric decay of the diagonal weights a_n =
    ratio^n (the reference value is 1/4; 1/2 is the desk-scale default
    because the block lengths stay small).  ``blocks`` carry (M_h, N_h,
    theta^h, b^h) plus the block-start and block-end first-factor
    coordinate tables.
    """

    d: int
    ratio: float
    H: int
    slack: float
    start_alphas: np.ndarray
    blocks: tuple

    @property
    def weights(self) -> np.ndarray:
        """a_n = ratio^n for n = 1..d."""
        return self.ratio ** np.arange(1, self.d + 1)

    def block_boundaries(self) -> list:
        """Global step index at the end of each block (cumulative N_h)."""
        out, acc = [], 0
        for blk in self.blocks:
            acc += blk.N
            out.append(acc)
        return out

    def verify_conditions(self) -> list:
        """Re-check every defining inequality; returns (name, ok, detail) rows."""
        rows = []
        for blk in self.blocks:
            h, M = blk.h, blk.M
            tail = np.arange(1, self.d + 1) > h
            S = float(np.sum(blk.start_alphas[tail] ** 2))
            lhs = (1.0 + M) ** 2 * S
            rows.append((f"block {h}: growth window 2^h < (1+M)^2*S < 2^h+h",
                         2.0 ** h < lhs < 2.0 ** h + h,
                         f"(1+M)^2*S = {lhs!r}"))
            end_total = float(np.sum(blk.end_alphas ** 2))
            end_tail = float(np.sum(blk.end_alphas[tail] ** 2))
            rows.append((f"block {h}: end sums 2^h < tail <= total < 2^h+h",
                         2.0 ** h < end_tail <= end_total < 2.0 ** h + h,
                         f"tail = {end_tail!r}, total = {end_total!r}"))
            # Settled coordinates decay like exp(-N*a_n^2) and may underflow
            # float64 to +0.0; they are positive in exact arithmetic, so the
            # strict check applies to the growing coordinates only.
            rows.append((f"block {h}: coordinates stay positive",
                         bool(np.all(blk.end_alphas[tail] > 0.0))
                         and bool(np.all(blk.end_alphas >= 0.0)),
                         f"min tail = {float(np.min(blk.end_alphas[tail]))!r}"))
            rows.append((f"block {h}: (1+M)^2 > 2^h/(2^(h-1)+h-1)",
                         (1.0 + M) ** 2 > 2.0 ** h / (2.0 ** (h - 1) + h - 1),
                         f"(1+M)^2 = {(1.0 + M) ** 2!r}"))
            rows.append((f"block {h}: offsets vanish on settled coordinates",
                         bool(np.all(blk.b[:h] == 0.0)),
                         "b[:h] == 0"))
        K = max(max(1.0 / blk.M, (1.0 + blk.M) / blk.M) for blk in self.blocks)
        for blk in self.blocks:
            h = blk.h
            bound = K * self.ratio ** h * math.sqrt(2.0 ** (h - 1) + h - 1)
            rows.append((f"block {h}: ||b^h|| <= K*ratio^h*sqrt(2^(h-1)+h-1)",
                         float(np.linalg.norm(blk.b)) <= bound + 1e-12,
                         f"||b^h|| = {float(np.linalg.norm(blk.b))!r}, bound = {bound!r}"))
        return rows


def _block_alphas(start, a, M, h, t) -> np.ndarray:
    """First-factor coordinates after t steps of block h from ``start``.

    Within a block the per-coordinate recursion is affine with constant
    coefficients, so coordinate n at step t is

        start_n * exp(-t*log1p(a_n^2))                       (n <= h)
        start_n * ((1+M) - M*exp(-t*log1p(a_n^2 / M^2)))     (n >  h)

    which increases toward (1+M)*start_n on the active coordinates.
    """
    head = np.arange(1, a.size + 1) <= h
    out = np.empty(a.size)
    out[head] = start[head] * np.exp(-t * np.log1p(a[head] ** 2))
    q = (a[~head] / M) ** 2
    out[~head] = start[~head] * ((1.0 + M) - M * np.exp(-t * np.log1p(q)))
    return out


def default_start_alphas(d: int) -> np.ndarray:
    """Positive coordinates proportional to 2^-n, scaled to norm 0.9."""
    v = 2.0 ** -np.arange(1, d + 1)
    return v * (0.9 / float(np.linalg.norm(v)))


def ell2_start_alphas(d: int, start=None) -> np.ndarray:
    """The construction's start in R^d: strictly positive, of norm < 1, and
    ``default_start_alphas(d)`` when None."""
    start = as_point(default_start_alphas(d) if start is None else start, dim=d)
    if np.any(start <= 0.0):
        raise ValueError("start coordinates must be strictly positive")
    if np.any(start >= 1.0) or float(np.linalg.norm(start)) >= 1.0:  # entries < 1: no overflow
        raise ValueError("start must have norm < 1")
    return start


def build_ell2_construction(d: int, H: int, ratio: float = 0.5, start=None,
                            slack: float = 0.5,
                            max_block_n: int = 10 ** 8) -> Ell2Construction:
    """Build the growth construction block by block via closed forms.

    For each block h the multiplier M_h is placed at the slack-weighted
    geometric point of its feasibility window (slack = 0.5 is the
    log-scale midpoint, maximizing margin on both sides), and the block
    length N_h is the minimal step count whose closed-form sums satisfy
    the block's growth window.  Lengths are found by exponential
    bracketing plus integer bisection; candidates cost O(d) each.
    """
    if not (0 < H < d):
        raise ValueError("need 0 < H < d (coordinates beyond every block must exist)")
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie in (0, 1)")
    if not (0.0 < slack < 1.0):
        raise ValueError("slack must lie in (0, 1)")
    start = ell2_start_alphas(d, start)

    a = ratio ** np.arange(1, d + 1)
    n_idx = np.arange(1, d + 1)
    alphas = start.copy()
    blocks = []
    for h in range(1, H + 1):
        tail = n_idx > h
        S = float(np.sum(alphas[tail] ** 2))
        if S <= 0.0:
            raise InfeasibleParams(f"no mass beyond coordinate {h} at truncation {d}")
        lo_sq, hi_sq = 2.0 ** h / S, (2.0 ** h + h) / S
        if lo_sq <= 1.0:
            raise InfeasibleParams(
                f"block {h}: growth window infeasible (tail mass {S!r} too large)")
        M = math.sqrt(lo_sq ** (1.0 - slack) * hi_sq ** slack) - 1.0

        def closed(t):
            return _block_alphas(alphas, a, M, h, t)

        def tail_grown(t):
            return float(np.sum(closed(t)[tail] ** 2)) > 2.0 ** h

        hi_n = 1
        while not tail_grown(hi_n):
            hi_n *= 2
            if hi_n > max_block_n:
                raise BlockBudgetExceeded(
                    f"block {h} needs more than {max_block_n} steps to grow past 2^{h}",
                    h=h, needed=hi_n)
        lo_n = hi_n // 2
        while hi_n - lo_n > 1:
            mid = (lo_n + hi_n) // 2
            if tail_grown(mid):
                hi_n = mid
            else:
                lo_n = mid
        N = hi_n
        while float(np.sum(closed(N) ** 2)) >= 2.0 ** h + h:
            N += 1
            if N > max_block_n:
                raise BlockBudgetExceeded(
                    f"block {h} cannot satisfy the total bound within {max_block_n} steps",
                    h=h, needed=N)
        end = closed(N)
        if not (np.all(end[tail] > 0.0) and np.all(end >= 0.0)):
            raise InfeasibleParams(f"block {h}: closed form produced nonpositive value")

        theta = np.where(tail, -a / M, a)
        b = np.where(tail, alphas * a * (1.0 + M) / M, 0.0)
        blocks.append(Ell2Block(h=h, M=M, N=N, theta=theta, b=b,
                                start_alphas=alphas.copy(), end_alphas=end))
        alphas = end

    c = Ell2Construction(d=d, ratio=ratio, H=H, slack=slack,
                         start_alphas=start, blocks=tuple(blocks))
    bad = [name for name, ok, _ in c.verify_conditions() if not ok]
    if bad:
        raise InfeasibleParams(f"construction failed its own re-check: {bad}")
    return c


def _first_factor(d: int) -> OrthoSubspace:
    """The first factor X (+) {0} of the packed product space R^(2d)."""
    return OrthoSubspace(np.eye(d, 2 * d))


def ell2_schedule(c: Ell2Construction) -> Blocks:
    """Block schedule: fixed first-factor subspace against per-block graphs."""
    first_factor = _first_factor(c.d)
    return Blocks(tuple((first_factor, DiagonalAffineGraph(blk.theta, blk.b), blk.N)
                        for blk in c.blocks))


def ell2_start_point(c: Ell2Construction) -> np.ndarray:
    return np.concatenate((c.start_alphas, np.zeros(c.d)))


def ell2_aw_certificate(c: Ell2Construction, Ns) -> list:
    """Certified localized-Hausdorff bounds for each block graph.

    Returns (h, N, bound) rows with bound = N*sup_n|a_n*(1 + 1/M_h)| over
    the active coordinates plus ||b^h||; the bounds shrink in h for fixed
    N, certifying convergence of the block graphs to the limit graph.
    """
    out = []
    a = c.weights
    for N in Ns:
        for blk in c.blocks:
            h = blk.h
            op_gap = float(a[h]) * (1.0 + 1.0 / blk.M) if h < c.d else 0.0
            bound = N * op_gap + float(np.linalg.norm(blk.b))
            out.append((h, int(N), bound))
    return out


def ell2_run(c: Ell2Construction, record_stride: int = 0,
             record_indices=()) -> Trace:
    """Run the engine over the whole block schedule from the packed start.

    record_stride = 0 picks a stride that logs roughly 1000 records.
    Block boundaries are always logged.
    """
    total = sum(blk.N for blk in c.blocks)
    if record_stride == 0:
        record_stride = max(1, total // 1000)
    cfg = RunConfig(start=ell2_start_point(c), max_iter=total,
                    record_stride=record_stride,
                    record_indices=frozenset(int(i) for i in record_indices))
    return run_perturbed(ell2_schedule(c), cfg)


# ---------------------------------------------------------------------------
# Stability scenarios


@dataclass(frozen=True)
class StableScenario:
    """A limit pair, its shrinking perturbation family, and run plumbing.

    ``a_family(n)`` and ``b_family(n)`` give the step-n sets, unchecked copies of the
    validated limit sets A and B (see ``_moved``); ``make_schedule()`` wraps them as a
    ``PerStep`` schedule.  ``target``, when set, is the expected norm-limit of the runs."""

    A: object
    B: object
    a_family: object
    b_family: object
    delta: object
    target: np.ndarray | None
    default_start: np.ndarray

    def make_schedule(self) -> PerStep:
        return PerStep(lambda k: (self.a_family(k), self.b_family(k)))

    def run(self, start=None, max_iter: int = 10_000, record_stride: int = 0) -> Trace:
        start = self.default_start if start is None else as_point(start)
        if record_stride == 0:
            record_stride = max(1, max_iter // 1000)
        cfg = RunConfig(start=start, max_iter=max_iter, record_stride=record_stride,
                        target=self.target)
        return run_perturbed(self.make_schedule(), cfg)


def _moved(S, **changes):
    """S with new stored values of fields that no attribute derives from, unchecked and
    with read-only arrays: a family's step set, whose checks ``stable_scenario`` runs once."""
    new = object.__new__(type(S))
    new.__dict__.update(S.__dict__, **changes)
    for value in changes.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return new


def _checked(S):
    """S rebuilt by its public constructor from its fields: raises where S fails its checks."""
    return type(S)(*(getattr(S, fld.name) for fld in fields(S)))


def _delta_law(law: str, scale: float):
    if law == "inv_n":
        return lambda n: scale / n
    if law == "inv_n_sq":
        return lambda n: scale / (n * n)
    raise InfeasibleParams(f"unknown delta law {law!r}")


def _tangent_disc(delta, params) -> StableScenario:
    """Unit disc on a halfplane, strongly exposed at their touching point 0, the runs'
    norm-limit; the families pull the disc up and the halfplane down by delta_n."""
    up = np.array([0.0, 1.0])
    A, B = Ball(up, 1.0), Halfspace(up, 0.0)
    return StableScenario(A=A, B=B, a_family=lambda n: _moved(A, center=A.center + delta(n) * up),
                          b_family=lambda n: _moved(B, b=-delta(n)),  # B's raw normal is a unit
                          delta=delta, target=np.zeros(2), default_start=np.array([3.0, -2.0]))


def _overlapping_balls(delta, params) -> StableScenario:
    """Two balls whose intersection has 0 in its interior; the families translate and
    inflate them by delta_n, so each step's pair contains the limit pair."""
    A, B = Ball(np.array([0.5, 0.0]), 1.5), Ball(np.array([-0.5, 0.0]), 1.5)
    u = np.array([1.0, 0.0])
    return StableScenario(
        A=A, B=B, a_family=lambda n: _moved(A, center=A.center + delta(n) * u,
                                            radius=A.radius + delta(n)),
        b_family=lambda n: _moved(B, center=B.center - delta(n) * u, radius=B.radius + delta(n)),
        delta=delta, target=None, default_start=np.array([4.0, 3.0]))


def _transversal_planes(delta, params) -> StableScenario:
    """Two 2-planes in R^4 with trivial intersection and closed sum (Friedrichs cosine
    kappa/sqrt(1 + kappa^2)); the families translate each plane off 0 by delta_n."""
    kappa = float(_param(params, "kappa", 0.5))
    U = OrthoSubspace(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
    v1 = np.array([kappa, 0.0, 1.0, 0.0])
    v1 /= np.linalg.norm(v1)
    V = OrthoSubspace(np.vstack([v1, [0.0, 0.0, 0.0, 1.0]]))
    uA, uB = np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])
    U0, V0 = U.translate(np.zeros(4)), V.translate(np.zeros(4))  # as affine subspaces
    return StableScenario(A=U, B=V, a_family=lambda n: _moved(U0, anchor=delta(n) * uA),
                          b_family=lambda n: _moved(V0, anchor=delta(n) * uB), delta=delta,
                          target=np.zeros(4), default_start=np.array([2.0, -1.0, 1.5, 0.5]))


def _orthant(delta, params, constraint, d: int, start: float) -> StableScenario:
    """The nonnegative orthant in R^d (``d`` the default), translated by -delta_n/sqrt(d) in
    each coordinate, against ``constraint(d, delta, params)``'s set and its step family."""
    d = int(_param(params, "d", d, kinds="iu"))
    K = NonnegOrthant(d)
    K0, shift = K.translate(np.zeros(d)), np.ones(d) / math.sqrt(d)  # K0 a polyhedron
    B, b_family = constraint(d, delta, params)
    # K.translate(v) at v = -delta_n shift: b = -v, and the witness is feasible for every v
    return StableScenario(
        A=K, B=B, a_family=lambda n: _moved(K0, b=delta(n) * shift,
                                            witness=np.maximum(-delta(n) * shift, 0.0) + 1.0),
        b_family=b_family, delta=delta, target=None, default_start=np.full(d, start))


def _orthant_bounds(d, delta, params):
    """Finitely many inequalities with strictly positive offsets, so 0 is interior to
    their intersection with the orthant; the family raises each offset by delta_n."""
    normals = _param(params, "normals", np.vstack([np.ones(d), np.eye(d)[0] + 0.5]), ndim=2)
    offsets = _param(params, "offsets", np.array([float(d), 2.0]), ndim=1)
    if np.any(offsets <= 0.0):
        raise InfeasibleParams("offsets must be strictly positive")
    B = Polyhedron(normals, offsets, witness=np.zeros(d))
    scales, norms = _row_scales(np.array(normals, dtype=float))  # B divides by these
    return B, lambda n: _moved(B, b=(offsets + delta(n)) / scales / norms)


def _orthant_halfspace(d, delta, params):
    """One halfspace <a, x> <= b whose normal is not in the orthant's polar cone and
    which meets the orthant's interior; the family moves it out by delta_n."""
    a = as_point(_param(params, "a", np.array([1.0, -1.0]), ndim=1), dim=d)
    b = float(_param(params, "b", 0.5))
    B = Halfspace(a, b) if np.any(a > 0.0) else None  # the zero normal has no halfspace
    if B is None or not np.any(B.a > 0.0):  # as stored: scaling can round an a_i > 0 to 0
        raise InfeasibleParams("normal lies in the polar cone of the orthant")
    # <a, x> <= b meets the open orthant iff b > 0 or some a_i < 0, asked of B as stored
    if B.b <= 0.0 and not np.any(B.a < 0.0):
        raise InfeasibleParams("halfspace does not meet the orthant's interior")
    scale, norm_a = (float(v[0]) for v in _row_scales(a[None]))  # B divides by these
    return B, lambda n: _moved(B, b=(b / scale + delta(n) * norm_a) / norm_a)


def _orthant_polar(d, delta, params):
    """The zero-offset halfspace of a normal interior to the orthant's polar cone
    (componentwise strictly negative); the family moves it out by delta_n."""
    a = as_point(_param(params, "a", np.array([-1.0, -2.0, -0.5]), ndim=1), dim=d)
    if not np.all(a < 0.0):
        raise InfeasibleParams("normal must be componentwise strictly negative "
                               "(interior of the orthant's polar cone)")
    B = Halfspace(a, 0.0)
    _, norm_a = (float(v[0]) for v in _row_scales(a[None]))  # B divides by it
    return B, lambda n: _moved(B, b=delta(n) * norm_a / norm_a)


_FAMILIES = {
    "tangent_disc": _tangent_disc,
    "overlapping_balls": _overlapping_balls,
    "transversal_planes": _transversal_planes,
    "orthant_bounds": functools.partial(_orthant, constraint=_orthant_bounds, d=3, start=2.0),
    "orthant_halfspace": functools.partial(_orthant, constraint=_orthant_halfspace, d=2,
                                           start=3.0),
    "orthant_polar": functools.partial(_orthant, constraint=_orthant_polar, d=3, start=2.0),
}


def stable_scenario(kind: str, delta_law: str = "inv_n", delta_scale: float = 1.0,
                    **params) -> StableScenario:
    """The positive stability scenario ``kind``, built by its builder in ``_FAMILIES``
    (whose docstring states the pair) with delta_n = delta_scale/n (``inv_n``) or
    delta_scale/n^2 (``inv_n_sq``).  ``params`` are the family's finite parameters
    (``kappa``; ``d`` with ``normals`` and ``offsets``, or ``a`` and ``b``); one it does
    not take, or values outside its case, raise InfeasibleParams.  The step sets are
    unchecked copies, checked once here: the step-1 pair, rebuilt by the public
    constructors, raises their message as InfeasibleStep.  That covers every n, as delta_n
    keeps delta_1's sign with |delta_n| <= |delta_1| and each moving field (a center, an
    anchor, a radius, an offset, a witness feasible by construction) is a rounding-monotone
    function of delta: each check (finite, radius > 0, witness feasible) that holds at the
    limit and at step 1 holds between them."""
    delta = _delta_law(delta_law, delta_scale)
    if kind not in _FAMILIES:
        raise InfeasibleParams(f"unknown scenario kind {kind!r}")
    scenario = _FAMILIES[kind](delta, params)
    if params:
        raise InfeasibleParams(f"unknown parameters {sorted(params)}")
    try:  # the step-1 pair
        _checked(scenario.a_family(1)), _checked(scenario.b_family(1))
    except ValueError as exc:
        raise InfeasibleStep(str(exc)) from exc
    return scenario


def _param(params: dict, name: str, default, ndim: int = 0, kinds: str = "iuf") -> np.ndarray:
    """Pop scenario parameter ``name`` (or take ``default``) as an ``ndim``-dimensional array
    of finite numbers of a dtype kind in ``kinds``; anything else raises InfeasibleParams."""
    value = params.pop(name, default)
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in kinds or arr.ndim != ndim or not np.isfinite(arr).all():
        kind = "integer" if kinds == "iu" else ("number", "vector", "matrix")[ndim]
        raise InfeasibleParams(f"scenario parameter {name!r} must be a finite {kind}, "
                               f"got {value!r:.60}")
    return arr
