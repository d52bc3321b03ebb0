"""Alternating-projection runner for constant, block, adaptive and per-step schedules.

One run iterates the two-step recursion

    b_n = P_{B_n}(a_{n-1}),   a_n = P_{A_n}(b_n)        (n = 1, 2, ...)

where the pair (A_n, B_n) is produced by a schedule: ``pair(block_id)``
gives a block's sets and ``advance(block_id, block_step, a_n)`` says after
each step whether, and why, the block ends.  ``pair`` is called once per
block, at its first step, so a callable ``Adaptive`` family builds each
block's sets lazily and once.  Every step is computed; ``record_stride``
only thins the log, where a block end forces a record (a ``PerStep``
one does not).  Under ``Blocks`` or ``Constant`` (blocks end by length)
with no ``stop_residual``, a block pairing X (+) {0} with a
``DiagonalAffineGraph`` runs the unlogged steps between two logged ones in
one call of the graph's ``pair_step`` runner, bit-equal to both
projections; every other step, logged ones included, takes the two
projections.  Runs are strictly sequential and deterministic: the same
schedule and run config give the same trace, bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import stat
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

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


class TraceRecord(NamedTuple):
    """One logged step; a named tuple, immutable and cheap to build at every record."""

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


class BlockLog(NamedTuple):
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
    sqrt, target = math.sqrt, cfg.target

    def log(n, bid, bstep, a, b, prev_a):  # each norm is float(np.linalg.norm(v)) bit for bit
        t = None if target is None else a - target
        dist = None if t is None else sqrt(t.dot(t))
        r, g = a - prev_a, a - b
        norm_a, norm_b = sqrt(a.dot(a)), sqrt(b.dot(b))
        res_a, gap_ab = sqrt(r.dot(r)), sqrt(g.dot(g))
        if not (math.isfinite(norm_a) and math.isfinite(norm_b) and math.isfinite(res_a)
                and math.isfinite(gap_ab) and (dist is None or math.isfinite(dist))):
            raise ProjectionStepError(n, f"non-finite record: norm_a={norm_a} "
                                      f"norm_b={norm_b} res_a={res_a} gap_ab={gap_ab} "
                                      f"dist_target={dist}")
        records.append(TraceRecord(
            n=n, block_id=bid, block_step=bstep, a=a.copy(), b=b.copy(),
            norm_a=norm_a, norm_b=norm_b, res_a=res_a, gap_ab=gap_ab,
            dist_target=dist))

    # Blocks and Constant end blocks by length: a fused block runs unlogged between records
    by_length = stop_residual is None and type(schedule) in (Blocks, Constant)
    marks = sorted({*indices, 1, max_iter})  # steps logged whatever the stride

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
            # the growth pair's k-step runner; the kind tag first keeps other blocks cheap
            run = (by_length and getattr(B_n, "kind", None) == "diagonal_affine_graph"
                   and B_n.pair_step(A_n, prev))
            last = n - 1 + (schedule.blocks[block_id - 1][2] if type(schedule) is Blocks
                            else max_iter)  # the block's last step, if by_length

        if run:
            # up to the next record or block end; a chunk the bound refuses is left to below
            k = min(last, -(-n // stride) * stride, marks[bisect_left(marks, n)]) - n
            if k:
                prev, j = run(prev, k)
                n, block_step = n + j, block_step + j
        try:
            b_n = project_b(prev)
            a_n = project_a(b_n)
        except (ValueError, RuntimeError) as exc:
            raise ProjectionStepError(n, exc) from exc
        block_step += 1

        cause = advance(block_id, block_step, a_n)
        halt = cause == "budget"
        residual_stop = (stop_residual is not None
                         and float(np.linalg.norm(a_n - prev)) < stop_residual)
        if (cause is not None and log_block_ends or n == max_iter or residual_stop
                or n % stride == 0 or n == 1 or n in indices):
            log(n, block_id, block_step, a_n, b_n, prev)

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


@contextmanager
def _output(path):
    """A text stream to write one output into: ``path`` itself when it is a
    file object, None when it is None, else the file at ``path``, rewritten in
    place and cut to what was written when the writer leaves, also on an
    error, so that no old bytes follow new ones.  The file is not truncated
    on open: on ext4 (``auto_da_alloc``), truncating a file whose last version
    was written after a truncate waits for its write-back, tens of ms per
    file, while overwriting it frees no blocks and waits for nothing."""
    if path is None or hasattr(path, "write"):
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
    """
    _write_trace(trace, meta, path, None)


def trace_to_json(trace: Trace, path, meta: dict | None = None, csv=None) -> None:
    """Full-precision JSON dump including iterate coordinates; with ``csv``,
    the CSV ``trace_to_csv`` writes goes there in the same pass.

    The text is what ``json.dumps(doc, indent=1)`` gives.  Only the head
    (meta, status) goes through ``json``; the block logs and the records,
    the bulk of the file, are written by fixed templates, which the
    stdlib's pure-Python indenting encoder would make several times slower.
    """
    _write_trace(trace, meta, csv, path)


# the texts of a float's repr (and of None's) that the two files write otherwise
_CSV_WORDS = {"None": ""}
_JSON_WORDS = {"None": "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CHUNK = 64  # records formatted per write: a few pages of text, so memory stays flat
_CSV_LINE = "{},{},{},{},{},{},{}\n"  # n,block,res_a,norm_a,norm_b,gap_ab,dist_target
# a record as json.dumps(..., indent=1) lays out an element of the top-level "records"
_JSON_RECORD = ('  {{\n   "n": {},\n   "block": {},\n   "block_step": {},\n   "a": {},\n'
                '   "b": {},\n   "norm_a": {},\n   "norm_b": {},\n   "res_a": {},\n'
                '   "gap_ab": {},\n   "dist_target": {}\n  }}')


def _scalar_texts(column):
    """The (CSV, JSON) texts of one scalar field of a chunk of records.  A
    float is ``repr``'d once for both files, which differ only where the
    repr has an "n" in it (NaN, infinities) and for None (an empty CSV
    field, JSON's null); another type takes ``repr(float(x))`` and ``json.dumps``."""
    if not set(map(type, column)) <= {float, type(None)}:
        return ["" if x is None else repr(float(x)) for x in column], [*map(json.dumps, column)]
    texts = [*map(repr, column)]
    if "n" not in "".join(texts):
        return texts, texts
    return [*map(_CSV_WORDS.get, texts, texts)], [*map(_JSON_WORDS.get, texts, texts)]


def _vector_texts(column):
    """The JSON texts of one vector field of a chunk of records: every
    coordinate ``repr``'d, and one template for vectors of one length."""
    if len({v.shape for v in column}) > 1:  # mixed lengths, one length at a time
        return [text for v in column for text in _vector_texts((v,))]
    d = column[0].size
    if not d:
        return ["[]"] * len(column)
    texts = [*map(repr, np.array(column).ravel().tolist())]
    if "n" in "".join(texts):
        texts = [*map(_JSON_WORDS.get, texts, texts)]
    template = "[\n    " + ",\n    ".join(["{}"] * d) + "\n   ]"
    return [*map(template.format, *(texts[k::d] for k in range(d)))]


def _write_trace(trace: Trace, meta, csv, json_path) -> None:
    """Write the CSV into ``csv`` and the JSON into ``json_path`` (each a path,
    a file object or None) in one pass over the records, formatted a chunk
    of records at a time, field by field (see ``_scalar_texts``), and
    written per chunk."""
    with _output(csv) as cfh, _output(json_path) as jfh:
        if cfh is not None:
            cfh.write("".join(f"# {key}={val}\n" for key, val in (meta or {}).items())
                      + "n,block,res_a,norm_a,norm_b,gap_ab,dist_target\n")
        if jfh is not None:
            head = json.dumps({"meta": meta or {}, "status": trace.status,
                               "schedule_complete": trace.schedule_complete,
                               "blocks": [], "records": []}, indent=1)
            # an advance cause is a plain word, which JSON writes as is
            blocks = ",\n".join(
                f'  {{\n   "block": {bl.block_id},\n   "start_n": {bl.start_n},\n'
                f'   "end_n": {bl.end_n},\n   "advance": "{bl.advance}"\n  }}'
                for bl in trace.blocks)
            jfh.write(head[:-len('[],\n "records": []\n}')]
                      + (f"[\n{blocks}\n ]" if blocks else "[]") + ',\n "records": ')
        records = trace.records
        for start in range(0, len(records), _CHUNK):
            n, block, step, a, b, *scalars = zip(*records[start:start + _CHUNK])
            (csv_na, na), (csv_nb, nb), (csv_ra, ra), (csv_gap, gap), (csv_dist, dist) = map(
                _scalar_texts, scalars)
            if cfh is not None:
                cfh.write("".join(map(_CSV_LINE.format, n, block, csv_ra, csv_na, csv_nb,
                                      csv_gap, csv_dist)))
            if jfh is not None:
                jfh.write(("[\n" if start == 0 else ",\n") + ",\n".join(map(
                    _JSON_RECORD.format, n, block, step, _vector_texts(a), _vector_texts(b),
                    na, nb, ra, gap, dist)))
        if jfh is not None:
            jfh.write("\n ]\n}" if records else "[]\n}")
