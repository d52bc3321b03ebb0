"""Alternating-projection runner for constant, block, adaptive and per-step schedules.

One run iterates the two-step recursion

    b_n = P_{B_n}(a_{n-1}),   a_n = P_{A_n}(b_n)        (n = 1, 2, ...)

where the pair (A_n, B_n) is produced by a schedule: ``pair(block_id)``
gives a block's sets and ``advance(block_id, block_step, a_n)`` says after
each step whether, and why, the block ends.  ``pair`` is called once per
block, at its first step, so a callable ``Adaptive`` family builds each
block's sets lazily and once.  Every step is computed; ``record_stride``
only thins the log, where a block end forces a record (a ``PerStep``
one does not).  A block pairing X (+) {0} with a ``DiagonalAffineGraph``
takes the graph's ``pair_step``, one update per step, bit-equal to both
projections.  Runs are strictly sequential and deterministic: the same
schedule and run config give the same trace, bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .geometry import as_point


class ScheduleExhausted(RuntimeError):
    """No pair is defined for the requested block."""


class ProjectionStepError(RuntimeError):
    """A projection failed mid-run; carries the failing step index."""

    def __init__(self, step, cause):
        super().__init__(f"projection failed at step {step}: {cause}")
        self.step = step


@dataclass(frozen=True)
class Constant:
    A: object
    B: object

    def pair(self, block_id: int):
        return self.A, self.B

    def advance(self, block_id: int, block_step: int, a_n):
        """The block's end cause ("length", "predicate", "budget") or None."""
        return None


@dataclass(frozen=True)
class Blocks:
    """Finite list of (A_k, B_k, length_k) blocks, lengths >= 1."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple((A, B, int(L)) for A, B, L in self.blocks)
        if not blocks:
            raise ValueError("Blocks schedule needs at least one block")
        if any(L < 1 for _, _, L in blocks):
            raise ValueError("block lengths must be >= 1")
        object.__setattr__(self, "blocks", blocks)

    @property
    def total_length(self):
        return sum(L for _, _, L in self.blocks)

    def pair(self, block_id: int):
        if block_id - 1 >= len(self.blocks):
            raise ScheduleExhausted(f"blocks schedule ends before block {block_id}")
        A, B, _ = self.blocks[block_id - 1]
        return A, B

    def advance(self, block_id: int, block_step: int, a_n):
        return "length" if block_step >= self.blocks[block_id - 1][2] else None


@dataclass(frozen=True)
class Adaptive:
    """Lazily indexed pairs with a block-advance predicate.

    ``pairs`` is a callable mapping the 1-based block index to a pair
    (raise IndexError/KeyError when the family ends).
    ``switch_predicate(block_id, a)`` decides, after each step, whether
    the current block is finished.  ``max_block_len`` caps
    a block that never fires; hitting the cap halts the run with status
    ``schedule_exhausted`` rather than silently moving on.
    """

    pairs: object
    switch_predicate: object
    max_block_len: int

    def __post_init__(self):
        if not callable(self.pairs):
            raise TypeError("Adaptive.pairs must be a callable from the block index to a "
                            f"pair, got {type(self.pairs).__name__}")
        if int(self.max_block_len) < 1:
            raise ValueError("max_block_len must be >= 1")
        object.__setattr__(self, "max_block_len", int(self.max_block_len))

    def pair(self, block_id: int):
        try:
            return self.pairs(block_id)
        except (IndexError, KeyError, StopIteration):
            raise ScheduleExhausted(f"adaptive pair family ends before block {block_id}")

    def advance(self, block_id: int, block_step: int, a_n):
        """"budget" (the run halts) when the cap is hit before the predicate fires."""
        if self.switch_predicate(block_id, a_n):
            return "predicate"
        if block_step >= self.max_block_len:
            return "budget"
        return None


@dataclass(frozen=True)
class PerStep:
    """Step n runs on ``family(n)`` as block n, whose end forces no record."""

    family: object
    log_block_ends = False

    def pair(self, block_id: int):
        return self.family(block_id)

    def advance(self, block_id: int, block_step: int, a_n):
        return "predicate"


@dataclass(frozen=True)
class RunConfig:
    """Run parameters: start point, budget, halting, and logging control.

    ``stop_residual`` halts once ||a_n - a_{n-1}|| drops below it; the
    default (None) runs to max_iter so that non-convergent runs are not
    self-truncated.  ``record_stride`` thins the log; first step, block
    boundaries (but not a ``PerStep`` schedule's), indices in
    ``record_indices`` and the final step are always logged.
    """

    start: np.ndarray
    max_iter: int
    stop_residual: float | None = None
    record_stride: int = 1
    target: np.ndarray | None = None
    record_indices: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "start", as_point(self.start))
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be >= 1")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if int(self.record_stride) < 1:
            raise ValueError("record_stride must be >= 1")
        object.__setattr__(self, "record_stride", int(self.record_stride))
        if self.target is not None:
            object.__setattr__(self, "target", as_point(self.target, dim=self.start.size))
        object.__setattr__(self, "record_indices", frozenset(int(i) for i in self.record_indices))


@dataclass(frozen=True)
class TraceRecord:
    n: int
    block_id: int
    block_step: int
    a: np.ndarray
    b: np.ndarray
    norm_a: float
    norm_b: float
    res_a: float
    gap_ab: float
    dist_target: float | None


@dataclass(frozen=True)
class BlockLog:
    block_id: int
    start_n: int
    end_n: int
    advance: str  # "predicate" | "length" | "budget" | "run_end"


@dataclass(frozen=True)
class Trace:
    records: tuple
    blocks: tuple
    status: str  # "max_iter" | "residual_met" | "schedule_exhausted"
    schedule_complete: bool

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def completed_blocks(self):
        return [bl for bl in self.blocks if bl.advance in ("predicate", "length")]


def _norm(v) -> float:
    """``float(np.linalg.norm(v))`` of a 1-D float64 array, bit for bit: the
    same ``v.dot(v)`` and square root, without its argument dispatch."""
    return math.sqrt(v.dot(v))


def run_perturbed(schedule, cfg: RunConfig) -> Trace:
    """Run the two-step projection recursion under a schedule.

    Halts on max_iter, on stop_residual, when the schedule has no pair
    for the next step, or when an adaptive block exhausts its budget
    without its predicate firing (status ``schedule_exhausted`` with
    ``schedule_complete`` False in that last case).
    """
    records = []
    block_logs = []
    prev = cfg.start.copy()
    n = 1
    block_id, block_step = 1, 0
    block_start_n = 1
    status = "max_iter"
    schedule_complete = False

    max_iter, stride, indices = cfg.max_iter, cfg.record_stride, cfg.record_indices
    stop_residual = cfg.stop_residual
    log_block_ends, advance = getattr(schedule, "log_block_ends", True), schedule.advance

    def log(n, bid, bstep, a, b, prev_a):
        dist = _norm(a - cfg.target) if cfg.target is not None else None
        norm_a, norm_b = _norm(a), _norm(b)
        res_a, gap_ab = _norm(a - prev_a), _norm(a - b)
        if not (math.isfinite(norm_a) and math.isfinite(norm_b) and math.isfinite(res_a)
                and math.isfinite(gap_ab) and (dist is None or math.isfinite(dist))):
            raise ProjectionStepError(n, f"non-finite record: norm_a={norm_a} "
                                      f"norm_b={norm_b} res_a={res_a} gap_ab={gap_ab} "
                                      f"dist_target={dist}")
        records.append(TraceRecord(
            n=n, block_id=bid, block_step=bstep, a=a.copy(), b=b.copy(),
            norm_a=norm_a, norm_b=norm_b, res_a=res_a, gap_ab=gap_ab,
            dist_target=dist))

    while n <= max_iter:
        if block_step == 0:
            try:
                A_n, B_n = schedule.pair(block_id)
                project_a, project_b = A_n.project, B_n.project  # bound once per block
            except ScheduleExhausted:
                status = "schedule_exhausted"
                schedule_complete = all(bl.advance in ("predicate", "length")
                                        for bl in block_logs) and len(block_logs) > 0
                break
            # the growth pair's one update; the kind tag first keeps other blocks cheap
            step, point_b = (getattr(B_n, "kind", None) == "diagonal_affine_graph"
                             and B_n.pair_step(A_n, prev)) or (None, None)

        b_n, a_n = None, step(prev) if step else None
        if a_n is None:
            try:
                b_n = project_b(prev)
                a_n = project_a(b_n)
            except (ValueError, RuntimeError) as exc:
                raise ProjectionStepError(n, exc) from exc
        block_step += 1

        cause = advance(block_id, block_step, a_n)
        halt = cause == "budget"
        residual_stop = stop_residual is not None and _norm(a_n - prev) < stop_residual
        if (cause is not None and log_block_ends or n == max_iter or residual_stop
                or n % stride == 0 or n == 1 or n in indices):
            log(n, block_id, block_step, a_n, point_b(prev) if b_n is None else b_n, prev)

        if cause is not None:
            block_logs.append(BlockLog(block_id, block_start_n, n, cause))
            if not halt:
                block_id += 1
                block_step = 0
                block_start_n = n + 1

        prev = a_n
        n += 1
        if halt:
            status = "schedule_exhausted"
            break
        if residual_stop:
            status = "residual_met"
            break

    if block_step > 0 and status != "schedule_exhausted":
        block_logs.append(BlockLog(block_id, block_start_n, n - 1, "run_end"))
    return Trace(records=tuple(records), blocks=tuple(block_logs), status=status,
                 schedule_complete=schedule_complete)


def run_classical(A, B, cfg: RunConfig) -> Trace:
    """Unperturbed alternating projections: constant pair (A, B)."""
    return run_perturbed(Constant(A, B), cfg)


# ---------------------------------------------------------------------------
# Trace output


def _fmt(x) -> str:
    return repr(float(x))


@contextmanager
def _output(path):
    """A text stream to write one output into: ``path`` itself when it is a
    file object, else the file at ``path``, rewritten in place and cut to
    what was written when the writer leaves, also on an error, so that no
    old bytes follow new ones.  The file is not truncated on open: on ext4
    (``auto_da_alloc``), truncating a file whose last version was written
    after a truncate waits for its write-back, tens of ms per file, while
    overwriting it frees no blocks and waits for nothing."""
    if hasattr(path, "write"):
        yield path
        return
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        try:
            yield fh
        finally:  # as O_TRUNC, cut only a regular file, never a device or a pipe
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def trace_to_csv(trace: Trace, path, meta: dict | None = None) -> None:
    """Write the logged records as CSV (shortest round-trip decimals).

    Column layout: n,block,res_a,norm_a,norm_b,gap_ab,dist_target.
    Metadata (config hash, seed) goes into leading '#' comment lines.
    The lines are streamed one record at a time into ``_output``, which
    rewrites a file in place: truncating on open can stall ext4 for 40 ms.
    """
    with _output(path) as fh:
        for key, val in (meta or {}).items():
            fh.write(f"# {key}={val}\n")
        fh.write("n,block,res_a,norm_a,norm_b,gap_ab,dist_target\n")
        for r in trace.records:
            dist = "" if r.dist_target is None else _fmt(r.dist_target)
            fh.write(f"{r.n},{r.block_id},{_fmt(r.res_a)},{_fmt(r.norm_a)},"
                     f"{_fmt(r.norm_b)},{_fmt(r.gap_ab)},{dist}\n")


_JSON_TOKENS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(x) -> str:
    """A scalar as ``json.dumps`` writes it.  ``repr`` is right for ints and
    finite floats, and no such repr has an "n" in it; the rest (NaN,
    infinities, numpy scalars) take the slow path."""
    if x is None:
        return "null"
    text = repr(x)
    if "n" not in text:
        return text
    if isinstance(x, float):
        text = float.__repr__(x)
        return _JSON_TOKENS.get(text, text)
    return json.dumps(x)


def _json_vector(v) -> str:
    values = v.tolist()
    if not values:
        return "[]"
    text = ",\n    ".join(map(repr, values))
    if "n" in text:
        text = ",\n    ".join(map(_json_value, values))
    return "[\n    " + text + "\n   ]"


def _json_record(r) -> str:
    """One record, laid out as ``json.dumps(..., indent=1)`` lays out an
    element of the top-level "records" list."""
    return (f'  {{\n   "n": {r.n},\n   "block": {r.block_id},\n'
            f'   "block_step": {r.block_step},\n'
            f'   "a": {_json_vector(r.a)},\n   "b": {_json_vector(r.b)},\n'
            f'   "norm_a": {_json_value(r.norm_a)},\n   "norm_b": {_json_value(r.norm_b)},\n'
            f'   "res_a": {_json_value(r.res_a)},\n   "gap_ab": {_json_value(r.gap_ab)},\n'
            f'   "dist_target": {_json_value(r.dist_target)}\n  }}')


def trace_to_json(trace: Trace, path, meta: dict | None = None) -> None:
    """Full-precision JSON dump including iterate coordinates.

    The text is what ``json.dumps(doc, indent=1)`` gives.  Only the head
    (meta, status) goes through ``json``; the block logs and the records,
    the bulk of the file, are written by fixed templates, which the
    stdlib's pure-Python indenting encoder would make several times slower.
    They are streamed one at a time into ``_output``, which rewrites a
    file in place: truncating on open can stall ext4 for 40 ms.
    """
    head = json.dumps({
        "meta": meta or {},
        "status": trace.status,
        "schedule_complete": trace.schedule_complete,
        "blocks": [],
        "records": [],
    }, indent=1)
    with _output(path) as fh:
        fh.write(head[:-len('[],\n "records": []\n}')])
        sep = "[\n"
        for bl in trace.blocks:  # an advance cause is a plain word, which JSON writes as is
            fh.write(f'{sep}  {{\n   "block": {bl.block_id},\n   "start_n": {bl.start_n},\n'
                     f'   "end_n": {bl.end_n},\n   "advance": "{bl.advance}"\n  }}')
            sep = ",\n"
        fh.write("\n ]" if trace.blocks else "[]")
        fh.write(',\n "records": ')
        sep = "[\n"
        for r in trace.records:
            fh.write(sep + _json_record(r))
            sep = ",\n"
        fh.write("\n ]\n}" if trace.records else "[]\n}")
