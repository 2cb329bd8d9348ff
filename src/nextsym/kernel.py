"""Whole-trajectory replay of the forward estimator.

When the whole segment X_0..X_N is known before estimation starts, every
quantity the streaming index keeps can be computed with array passes instead
of one push and one probe per symbol:

- lambda_k[n] is the number of ends e < n whose length-k block equals the
  block ending at n, an exclusive running count per block;
- the successor histogram at n counts those ends by X_{e+1};
- kappa[n] is the longest k <= min(K(n), n+1) with lambda_k[n] >= J(n), or 0
  (abstain) at n = 0 and when no length qualifies.

The segment is processed in fixed chunks.  Each block's successor histogram
over the earlier chunks is the only count carried from chunk to chunk; its
total is lambda there.  Blocks are numbered one length at a time: the
length-k block ending at e is keyed by (number of the length-(k-1) block
ending at e-1) * |A| + X_e, and a dense lookup per length turns keys into
numbers.  lambda_k never grows with k, so selection runs from the chunk's
longest usable length down, and a length is sorted, to find each block's
ends within the chunk, only while some row that may select it is unsettled.
Every other length adds its chunk to the carried counts by one bincount.

K and J come as exact arrays (:func:`schedule_values`).  Results equal the
scanning evaluator and the streaming index bit for bit;
:func:`nextsym.verify.verify_equivalence` checks all three routes.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .estimator import SCHEDULE_CAP, Schedules, _schedule_value

__all__ = ["CHUNK", "Replayed", "chunk_rows", "replay", "schedule_values"]

CHUNK = 1 << 14  # positions per chunk for alphabets of up to four symbols; bounds the working set


def chunk_rows(size: int) -> int:
    """Positions per chunk: larger alphabets get shorter chunks, so the
    per-chunk histogram and conditional arrays keep the same size."""
    return max(1, CHUNK * 4 // max(size, 4))


class Replayed(NamedTuple):
    """Estimator state at positions ``start .. start + len(kappa) - 1``."""

    start: int
    kappa: np.ndarray  # matched context length, 0 when abstaining
    matches: np.ndarray  # lambda at kappa, 0 when abstaining
    hist: np.ndarray  # (rows, |A|) successor counts at kappa, zero rows when abstaining

    @property
    def probs(self) -> np.ndarray:
        """Estimated next-symbol distribution per row: the histogram over
        lambda, the all-zero vector when abstaining."""
        return self.hist / np.maximum(self.matches, 1)[:, None]


def schedule_values(fn: Callable[[int], int], lo: int, hi: int) -> np.ndarray:
    """fn(n) for every n in [lo, hi) as an exact int64 array.

    Schedules with a ``values`` method use it; any other callable is called
    once per n, its values saturating at ``SCHEDULE_CAP`` as ``LinearJ``'s
    do: no count or length reaches that cap, so the saturated schedule
    decides as the exact one.  A value that is no integer raises.
    """
    values = getattr(fn, "values", None)
    if values is not None:
        return values(lo, hi)
    checked = map(_schedule_value, repeat(fn), range(lo, hi))
    return np.fromiter(map(min, checked, repeat(SCHEDULE_CAP)), dtype=np.int64, count=hi - lo)


def _sortable(values: np.ndarray) -> np.ndarray:
    """Values as uint16 when they fit, where numpy's stable sort is a radix sort."""
    if int(values.max()) < 1 << 16:
        return values.astype(np.uint16)
    return values


# Successor cells per chunk row up to which a length is counted by bincount, whose cost
# follows the cells: per 16,384 random binary ends it took 35 us over 4 blocks, 1.2 ms
# at 64 cells a row and 2.7 ms at 128; the sorted path 0.4 ms over 4 and 1.9 ms at both.
_DENSE_CELLS_PER_ROW = 64


class _Blocks:
    """Numbering and successor counts of the blocks of one length.

    ``lookup[key]`` is the number of the block with that key, or 0 while the
    key is unseen.  Numbers start at 1: number 0 is reserved for the block
    before position 0, which is the initial ``tail`` and the number of every
    length-0 block, so row 0 of ``succ`` goes unused.  At positions where no
    block of this length ends yet, the keys trace back to number 0, so no
    full block shares their numbers.

    ``succ[i, s]`` counts the ends of block i before the current chunk that
    are followed by symbol s; every such end has a successor, so the row
    total is their count.  :meth:`group` groups a chunk's ends by block for
    lambda and :meth:`finish`; :meth:`count` counts them without a sort.
    """

    __slots__ = ("size", "lookup", "succ", "tail")

    def __init__(self, size: int):
        self.size = size
        self.lookup = np.zeros(size, np.int64)
        self.succ = np.zeros((1, size), np.int64)
        self.tail = 0  # number of the block ending just before the chunk

    def _grow(self, top: int) -> None:
        """Room in the lookup for keys up to ``top``."""
        if top >= len(self.lookup):  # grown by doubling, so growth stays amortised
            self.lookup = np.pad(self.lookup, (0, max(top + 1 - len(self.lookup), len(self.lookup))))

    def _number(self, uniq: np.ndarray) -> np.ndarray:
        """Numbers of the ascending distinct keys ``uniq``; unseen keys get the next ones."""
        self._grow(int(uniq[-1]))
        ids = self.lookup[uniq]
        fresh = ids == 0
        count = int(np.count_nonzero(fresh))
        if count:
            ids[fresh] = np.arange(len(self.succ), len(self.succ) + count)
            self.lookup[uniq[fresh]] = ids[fresh]
            self.succ = np.concatenate([self.succ, np.zeros((count, self.size), np.int64)])
        return ids

    def number(self, keys: np.ndarray) -> np.ndarray:
        """Numbers of ``keys`` through the lookup, once :meth:`_number` has numbered the unseen ones."""
        self._grow(int(keys.max()))
        ids = self.lookup[keys]
        if np.count_nonzero(ids == 0):
            self.group(keys[ids == 0], True)  # one sort of the unseen keys, numbered in ascending order
            ids = self.lookup[keys]
        return ids

    def group(self, values: np.ndarray, keyed: bool) -> tuple:
        """The chunk's ends grouped by block through one stable sort of ``values``, block keys
        if ``keyed`` (numbered from the sort) or numbers: order, run starts, runs, run numbers."""
        order = np.argsort(_sortable(values), kind="stable")
        ordered = values[order]
        new = np.empty(len(values), dtype=bool)
        new[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        group = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(values)))
        return order, starts, group, self._number(ordered[starts]) if keyed else ordered[starts]

    def count(self, ids: np.ndarray, succ: np.ndarray) -> None:
        """Add the chunk's ends, numbered ``ids`` and followed by ``succ``, to the counts."""
        if self.succ.size > _DENSE_CELLS_PER_ROW * len(ids):
            return self.finish(self.group(ids, False), succ, ids[:0], None)
        self.succ += np.bincount(ids * self.size + succ, minlength=self.succ.size).reshape(-1, self.size)

    def finish(self, grouping: tuple, succ: np.ndarray, at: np.ndarray, hist: np.ndarray) -> None:
        """Write the successor counts of the earlier ends of the block into
        the rows ``at`` (ascending chunk positions) of ``hist``, one column
        at a time, since numpy writes narrow rows slowly; then the chunk's
        ends, followed by ``succ``, join the counts, column by column too.
        One running count per symbol serves both: a block's ends are one run
        of the sort, and the last symbol takes what the others leave."""
        order, starts, group, gids = grouping
        succ_sorted = succ[order]
        ends = np.append(starts, len(order))
        left = np.diff(ends)  # the chunk's ends of each block not yet counted by symbol
        selected = len(at) > 0
        if selected:
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            if len(at) == len(order):  # every end selects this length: whole columns, no scatter
                at = slice(None)
            where = rank[at]  # sorted positions of the selected ends
            blocks = group[where]
            first = starts[blocks]
            counts = self.succ.take(gids[blocks], axis=0)  # counts before the chunk
            rest = where - first  # earlier ends of the same block inside the chunk
        before = np.zeros(len(order) + 1, np.int64)  # hits strictly before each sorted position, then the total
        for s in range(self.size - 1):
            np.cumsum(succ_sorted == s, out=before[1:])
            if selected:
                inside = before[where] - before[first]
                hist[at, s] = counts[:, s] + inside
                rest -= inside
            per = np.diff(before[ends])
            self.succ[gids, s] += per
            left -= per
        if selected:
            hist[at, -1] = counts[:, -1] + rest
        self.succ[gids, -1] += left


def _caps(schedules: Schedules, lo: int, hi: int) -> np.ndarray:
    """min(K(n), n + 1) for n in [lo, hi), and 0 at n = 0."""
    cap = np.zeros(hi - lo, np.int64)
    first = max(lo, 1)
    if first < hi:
        k = schedule_values(schedules.K, first, hi)
        cap[first - lo :] = np.clip(k, 0, np.arange(first + 1, hi + 1))
    return cap.astype(np.min_scalar_type(int(cap.max())))


def _thresholds(schedules: Schedules, lo: int, hi: int) -> np.ndarray:
    """max(J(n), 1) for n in [lo, hi); a block must have occurred to be matched."""
    need = np.ones(hi - lo, np.int64)
    first = max(lo, 1)
    if first < hi:
        need[first - lo :] = np.maximum(schedule_values(schedules.J, first, hi), 1)
    return need


def replay(seq: np.ndarray, size: int, schedules: Schedules) -> Iterator[Replayed]:
    """Estimator state at every position of ``seq`` (symbol indices), one
    :class:`Replayed` per chunk of :func:`chunk_rows` positions.

    K is evaluated once per position before the replay, to find the longest
    block length any position, and any row of each chunk, may match; J once
    per position as the chunk comes.
    """
    seq = np.asarray(seq)
    total = len(seq)
    rows = chunk_rows(size)
    bounds = [(lo, min(lo + rows, total)) for lo in range(0, total, rows)]
    caps = [_caps(schedules, lo, hi) for lo, hi in bounds]
    k_max = max((int(cap.max()) for cap in caps), default=0)
    levels = [_Blocks(size) for _ in range(k_max)]
    for (lo, hi), cap in zip(bounds, caps):
        length = hi - lo
        x = seq[lo:hi].astype(np.int64)
        succ = np.zeros(length, np.int64)  # the segment's last position has no successor; never read
        tail = seq[lo + 1 : hi + 1]
        succ[: len(tail)] = tail
        need = _thresholds(schedules, lo, hi)
        kappa = np.zeros(length, np.int64)
        matches = np.zeros(length, np.int64)
        top = int(cap.max())  # no row of the chunk selects a longer length
        keys = x  # every length-0 block is number 0
        numbers = {}
        for k, level in enumerate(levels[:-1], 1):  # by lookup: their numbers key the next length
            ids = numbers[k] = level.number(keys)
            keys = np.concatenate(([level.tail], ids[:-1])) * size + x
            level.tail = int(ids[-1])
        if top < k_max:  # else the longest length is sorted on its keys and numbered from the sort
            numbers[k_max] = levels[-1].number(keys)
        selected = []
        for k in range(k_max, 0, -1):  # lambda_k never grows with k: a settled row keeps its length
            level = levels[k - 1]
            candidates = (cap >= k) & (kappa == 0)  # kappa stays 0 until a longer length settles the row
            if k > top or (k < top and not candidates.any()):
                level.count(numbers.pop(k), succ)
                continue
            grouping = level.group(keys, True) if k == k_max else level.group(numbers.pop(k), False)
            order, starts, group, gids = grouping  # lambda: the block's ends before the chunk and inside it
            lam = np.empty(length, np.int64)
            lam[order] = (level.succ.take(gids, axis=0).sum(axis=1) - starts)[group] + np.arange(length)
            ok = candidates & (lam >= need)
            np.copyto(kappa, k, where=ok)
            np.copyto(matches, lam, where=ok)
            selected.append((level, grouping, ok))
            del lam  # freed before hist and finish's temporaries, which set the chunk's peak memory
        hist = np.zeros((length, size), np.int64)  # allocated after the sorts, so it widens no sort's peak
        for level, grouping, ok in selected:
            level.finish(grouping, succ, np.flatnonzero(ok), hist)
        yield Replayed(lo, kappa, matches, hist)
