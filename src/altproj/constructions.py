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

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import (Adaptive, Blocks, PerStep, RunConfig, ScheduleExhausted, Trace,
                     run_perturbed)
from .geometry import as_point
from .sets import (AffineSubspace, Ball, DiagonalAffineGraph, Halfspace,
                   NonnegOrthant, OrthoSubspace, Polygon2D, Polyhedron,
                   _normal_in_range, _row_scales)


class InfeasibleParams(ValueError):
    """Scenario parameters violate the scenario's defining conditions."""


class BlockBudgetExceeded(RuntimeError):
    """A block-length search passed its hard budget."""

    def __init__(self, message, h, needed):
        super().__init__(message)
        self.h = h
        self.needed = needed


# ---------------------------------------------------------------------------
# Touching squares with wobbling vertices


def example_unstable_bodies(h: int):
    """The limit bodies and the h-th perturbed pair of the oscillation family.

    Returns (A, B, C_h, D_h).  A is the unit-height square above the
    x-axis, B its mirror image below; C_h and D_h lift one bottom/top
    vertex by 1/ceil(h/2), on the left for odd h and on the right for
    even h, so consecutive pairs touch alternately at (1, 0) and (-1, 0).
    """
    if h < 1:
        raise ValueError("index must be >= 1")
    A = Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, 0)])
    B = Polygon2D([(1, -1), (-1, -1), (1, 0), (-1, 0)])
    m = (h + 1) // 2
    lift = 1.0 / m
    if h % 2 == 1:
        C = Polygon2D([(1, 1), (-1, 1), (1, 0), (-1, lift)])
        D = Polygon2D([(1, -1), (-1, -1), (1, 0), (-1, -lift)])
    else:
        C = Polygon2D([(1, 1), (-1, 1), (1, lift), (-1, 0)])
        D = Polygon2D([(1, -1), (-1, -1), (1, -lift), (-1, 0)])
    return A, B, C, D


def unstable_bodies_schedule(n_blocks: int, max_block_len: int = 10_000) -> Adaptive:
    """Adaptive schedule over the perturbed square pairs.

    Block k runs on (C_k, D_k) until the iterate is within 1/2 of (1, 0)
    for odd k, of (-1, 0) for even k.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")

    def pair(k):
        if k > n_blocks:
            raise IndexError(k)
        _, _, C, D = example_unstable_bodies(k)
        return C, D

    def fired(k, a):
        anchor = np.array([1.0, 0.0]) if k % 2 == 1 else np.array([-1.0, 0.0])
        return float(np.linalg.norm(a - anchor)) < 0.5

    return Adaptive(pairs=pair, switch_predicate=fired, max_block_len=max_block_len)


def run_example_unstable(n_blocks: int, max_block_len: int = 10_000,
                         start=(0.0, 0.0), record_stride: int = 1) -> Trace:
    """Run the oscillation schedule from ``start`` through n_blocks blocks.

    The returned trace alternates between the half-radius neighborhoods
    of (1, 0) and (-1, 0), hence contains iterate pairs at distance >= 1.
    Raises :class:`ScheduleExhausted` if some block's predicate fails to
    fire within max_block_len steps.
    """
    if n_blocks < 2:
        raise ValueError("n_blocks must be >= 2")
    return _run_all_blocks("oscillation", unstable_bodies_schedule(n_blocks, max_block_len),
                           n_blocks, max_block_len, start, record_stride)


def _run_all_blocks(name, schedule, n_blocks, max_block_len, start, record_stride) -> Trace:
    """Run a planar adaptive schedule; raise unless every block's predicate fired."""
    cfg = RunConfig(start=as_point(np.asarray(start, dtype=float), dim=2),
                    max_iter=n_blocks * max_block_len + 1,
                    record_stride=record_stride)
    trace = run_perturbed(schedule, cfg)
    if not (trace.status == "schedule_exhausted" and trace.schedule_complete):
        raise ScheduleExhausted(
            f"{name} run completed only {len(trace.completed_blocks())} "
            f"of {n_blocks} blocks (status {trace.status})")
    return trace


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
    block-end norms grow without bound as blocks accumulate.
    """
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    axis = OrthoSubspace(np.array([[1.0, 0.0]]))

    def pair(k):
        if k > n_blocks:
            raise IndexError(k)
        return axis, tilted_line(k)

    def fired(k, a):
        return float(np.linalg.norm(a)) > k / 2.0

    schedule = Adaptive(pairs=pair, switch_predicate=fired, max_block_len=max_block_len)
    return _run_all_blocks("line", schedule, n_blocks, max_block_len, start, record_stride)


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

    def closed_alphas(self, h: int, t: int) -> np.ndarray:
        """Closed-form first-factor coordinates after t steps of block h."""
        blk = self.blocks[h - 1]
        if not (0 <= t <= blk.N):
            raise ValueError(f"step {t} outside block {h} of length {blk.N}")
        return _block_alphas(blk.start_alphas, self.weights, blk.M, h, t)

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

    def as_dict(self) -> dict:
        return {
            "d": self.d, "ratio": self.ratio, "H": self.H, "slack": self.slack,
            "start_alphas": self.start_alphas.tolist(),
            "blocks": [{
                "h": blk.h, "M": blk.M, "N": blk.N,
                "theta": blk.theta.tolist(), "b": blk.b.tolist(),
                "start_alphas": blk.start_alphas.tolist(),
                "end_alphas": blk.end_alphas.tolist(),
            } for blk in self.blocks],
        }

    @staticmethod
    def from_dict(doc: dict) -> "Ell2Construction":
        blocks = tuple(Ell2Block(
            h=int(b["h"]), M=float(b["M"]), N=int(b["N"]),
            theta=np.array(b["theta"]), b=np.array(b["b"]),
            start_alphas=np.array(b["start_alphas"]),
            end_alphas=np.array(b["end_alphas"])) for b in doc["blocks"])
        return Ell2Construction(d=int(doc["d"]), ratio=float(doc["ratio"]),
                                H=int(doc["H"]), slack=float(doc["slack"]),
                                start_alphas=np.array(doc["start_alphas"]),
                                blocks=blocks)


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


def default_start_alphas(d: int, target_norm: float = 0.9) -> np.ndarray:
    """Positive coordinates proportional to 2^-n, scaled to the given norm."""
    v = 2.0 ** -np.arange(1, d + 1)
    return v * (target_norm / float(np.linalg.norm(v)))


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
    if start is None:
        start = default_start_alphas(d)
    start = as_point(start, dim=d)
    if np.any(start <= 0.0):
        raise ValueError("start coordinates must be strictly positive")
    if float(np.linalg.norm(start)) >= 1.0:
        raise ValueError("start must have norm < 1")

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


def ell2_limit_graph(c: Ell2Construction) -> DiagonalAffineGraph:
    """The unperturbed graph {(x, Dx)} the block graphs converge to."""
    return DiagonalAffineGraph(c.weights, np.zeros(c.d))


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
    for a full run (the full-run comparison is a separate helper).
    """
    d = c.d
    first_factor = _first_factor(d)
    worst = 0.0
    for h, t in checkpoints:
        blk = c.blocks[h - 1]
        t0 = max(0, t - window)
        state = np.concatenate((c.closed_alphas(h, t0), np.zeros(d)))
        graph = DiagonalAffineGraph(blk.theta, blk.b)
        for _ in range(t - t0):
            state = first_factor.project(graph.project(state))
        worst = max(worst, ell2_relative_gap(state[:d], c.closed_alphas(h, t)))
    return worst


# ---------------------------------------------------------------------------
# Stability scenarios


@dataclass(frozen=True)
class StableScenario:
    """A limit pair, its shrinking perturbation family, and run plumbing.

    ``a_family(n)`` and ``b_family(n)`` give the step-n perturbed sets, built
    from the validated limit sets; ``make_schedule()`` wraps them as a
    ``PerStep`` schedule.  ``target``, when set, is the expected norm-limit
    of the runs.
    """

    name: str
    A: object
    B: object
    a_family: object
    b_family: object
    delta: object
    target: np.ndarray | None
    default_start: np.ndarray
    notes: dict = field(default_factory=dict)

    def make_schedule(self) -> PerStep:
        return PerStep(lambda k: (self.a_family(k), self.b_family(k)))

    def run(self, start=None, max_iter: int = 10_000, record_stride: int = 0) -> Trace:
        start = self.default_start if start is None else as_point(start)
        if record_stride == 0:
            record_stride = max(1, max_iter // 1000)
        cfg = RunConfig(start=start, max_iter=max_iter, record_stride=record_stride,
                        target=self.target)
        return run_perturbed(self.make_schedule(), cfg)


def _delta_law(law: str, scale: float):
    if law == "inv_n":
        return lambda n: scale / n
    if law == "inv_n_sq":
        return lambda n: scale / (n * n)
    raise InfeasibleParams(f"unknown delta law {law!r}")


def stable_scenario(kind: str, delta_law: str = "inv_n", delta_scale: float = 1.0,
                    **params) -> StableScenario:
    """Build one of the positive stability scenarios.

    Kinds
    -----
    ``tangent_disc``
        Unit disc resting on a halfplane, touching at the origin; the
        separating functional strongly exposes the disc there.  The
        families pull the disc up and the halfplane down by delta_n,
        keeping the touching point the norm-limit.
    ``overlapping_balls``
        Two balls whose intersection has interior containing 0; families
        translate and inflate by delta_n (perturbed sets contain the
        originals, so 0 stays inside every pair).
    ``transversal_planes``
        Two 2-planes in R^4 with trivial intersection and closed sum;
        families translate each plane off the origin by delta_n.
    ``orthant_bounds``
        Nonnegative orthant against finitely many inequalities with
        strictly positive offsets (interior intersection).
    ``orthant_halfspace``
        Orthant against one halfspace whose normal has a strictly
        positive component against the orthant (not in the polar cone);
        requires a strictly feasible point, found at validation.
    ``orthant_polar``
        Orthant against the zero-offset halfspace of a normal interior
        to the polar cone (componentwise strictly negative).
    """
    delta = _delta_law(delta_law, delta_scale)

    if kind == "tangent_disc":
        _no_more(params)
        A = Ball(np.array([0.0, 1.0]), 1.0)
        B = Halfspace(np.array([0.0, 1.0]), 0.0)
        up = np.array([0.0, 1.0])
        return StableScenario(
            name=kind, A=A, B=B,
            a_family=lambda n: A.translate(delta(n) * up),
            b_family=lambda n: B._replace(b=-delta(n)),  # B's raw normal has norm 1
            delta=delta, target=np.zeros(2),
            default_start=np.array([3.0, -2.0]),
            notes={"touch_point": [0.0, 0.0], "separator": [0.0, -1.0]})

    if kind == "overlapping_balls":
        _no_more(params)
        A = Ball(np.array([0.5, 0.0]), 1.5)
        B = Ball(np.array([-0.5, 0.0]), 1.5)
        u = np.array([1.0, 0.0])
        return StableScenario(
            name=kind, A=A, B=B,
            a_family=lambda n: A._replace(center=A.center + delta(n) * u,
                                          radius=A.radius + delta(n)),
            b_family=lambda n: B._replace(center=B.center - delta(n) * u,
                                          radius=B.radius + delta(n)),
            delta=delta, target=None,
            default_start=np.array([4.0, 3.0]),
            notes={"interior_radius": 1.0})

    if kind == "transversal_planes":
        kappa = float(_param(params, "kappa", 0.5))
        _no_more(params)
        U = OrthoSubspace(np.array([[1.0, 0.0, 0.0, 0.0],
                                    [0.0, 1.0, 0.0, 0.0]]))
        v1 = np.array([kappa, 0.0, 1.0, 0.0])
        v1 /= np.linalg.norm(v1)
        V = OrthoSubspace(np.vstack([v1, [0.0, 0.0, 0.0, 1.0]]))
        uA = np.array([0.0, 0.0, 1.0, 0.0])
        uB = np.array([0.0, 1.0, 0.0, 0.0])
        return StableScenario(
            name=kind, A=U, B=V,
            a_family=lambda n: U.translate(delta(n) * uA),
            b_family=lambda n: V.translate(delta(n) * uB),
            delta=delta, target=np.zeros(4),
            default_start=np.array([2.0, -1.0, 1.5, 0.5]),
            notes={"omega": kappa / math.sqrt(1.0 + kappa ** 2)})

    if kind in ("orthant_bounds", "orthant_halfspace", "orthant_polar"):
        d = int(_param(params, "d", 2 if kind == "orthant_halfspace" else 3, kinds="iu"))
        K = NonnegOrthant(d)
        shift = np.ones(d) / math.sqrt(d)
        notes, start = {}, 2.0
        if kind == "orthant_bounds":
            normals = _param(params, "normals", np.vstack([np.ones(d), np.eye(d)[0] + 0.5]), ndim=2)
            offsets = _param(params, "offsets", np.array([float(d), 2.0]), ndim=1)
            _no_more(params)
            if np.any(offsets <= 0.0):
                raise InfeasibleParams("offsets must be strictly positive")
            B = Polyhedron(normals, offsets, witness=np.zeros(d))
            scales, norms = _row_scales(np.array(normals, dtype=float))  # B divides by these
            b_family = lambda n: B._replace(b=(offsets + delta(n)) / scales / norms)
        elif kind == "orthant_halfspace":
            a = as_point(_param(params, "a", np.array([1.0, -1.0]), ndim=1), dim=d)
            b = float(_param(params, "b", 0.5))
            _no_more(params)
            if np.all(a <= 0.0):
                raise InfeasibleParams("normal lies in the polar cone of the orthant")
            notes, start = {"witness": _strict_orthant_witness(a, b).tolist()}, 3.0
            a, b, norm_a = _normal_in_range(a, b)
            B = Halfspace(a, b)
            b_family = lambda n: B._replace(b=(b + delta(n) * norm_a) / norm_a)
        else:
            a = as_point(_param(params, "a", np.array([-1.0, -2.0, -0.5]), ndim=1), dim=d)
            _no_more(params)
            if not np.all(a < 0.0):
                raise InfeasibleParams(
                    "normal must be componentwise strictly negative "
                    "(interior of the orthant's polar cone)")
            notes = {"polar_interior": True}
            a, _, norm_a = _normal_in_range(a, 0.0)
            B = Halfspace(a, 0.0)
            b_family = lambda n: B._replace(b=delta(n) * norm_a / norm_a)
        return StableScenario(
            name=kind, A=K, B=B, a_family=lambda n: K.translate(-delta(n) * shift),
            b_family=b_family, delta=delta, target=None,
            default_start=np.full(d, start), notes=notes)

    raise InfeasibleParams(f"unknown scenario kind {kind!r}")


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


def _no_more(params: dict):
    """Reject scenario parameters the scenario did not take."""
    if params:
        raise InfeasibleParams(f"unknown parameters {sorted(params)}")


def _strict_orthant_witness(a: np.ndarray, b: float) -> np.ndarray:
    """A strictly positive point with <a, x> < b, or raise."""
    d = a.size
    neg = np.where(a < 0.0)[0]
    for eps in (1e-3, 1e-6):
        x = np.full(d, eps)
        if neg.size:
            # push along the most negative coordinate until strictly inside
            j = int(neg[np.argmin(a[neg])])
            need = float(np.dot(a, x)) - b
            if need >= 0.0:
                x[j] += (need + 1.0) / (-a[j])
        if float(np.dot(a, x)) < b and np.all(x > 0.0):
            return x
    raise InfeasibleParams("halfspace does not meet the orthant's interior")
