"""Stationary ergodic source generators with exactly computable conditionals.

Three families are provided, chosen because each admits an exact conditional
distribution of the next symbol given the observed prefix:

- ``IIDProcess``: independent draws from a fixed distribution.
- ``MarkovProcess``: order-k chains; the conditional is a transition row once
  k symbols have been seen, and for shorter prefixes it is computed exactly
  from the stationary block law (no burn-in bias anywhere).
- ``HiddenMarkovProcess``: the conditional comes from the forward filter,
  renormalized each step so underflow cannot occur at any horizon.  The
  cursor runs it one symbol at a time and is the exact reference.
  ``Oracle.conditionals`` runs it as a blocked scan over blocks of 64
  positions for hidden chains of up to ``_FILTER_MAX_STATES`` (32) states,
  scaling each block's transfer matrix by one number per step, and through
  a cursor above that.  The scan reorders the arithmetic across blocks, so
  its rows are within 1e-13 (max abs) of the cursor's, not equal to them.

Each family owns its draw, block law, cursor and chunked conditionals, and
computes the stationary laws they need once per spec; :func:`generate`,
:func:`stationary_block_law` and :class:`Oracle` validate and hand over.
The stationary law of the hidden chain, and of a Markov chain's contexts up
to ``_DENSE_MAX`` (1,024) of them, is solved directly: the balance equations
with one replaced by the normalisation.  Above that a dense context matrix
is too large, and GMRES (Saad and Schultz 1986) solves the balance equations
plus the normalisation, ``pi - pi P + sum(pi) = 1``, applying ``P`` without
building it.  Either way the residual ``||pi P - pi||_inf`` is at most 1e-12.

Trajectories are drawn with the stationary law as the initial condition, so
the generated segment is exactly stationary, and are bit-reproducible given
(spec, seed): the generator is numpy's PCG64 and the draw order is fixed and
documented in :func:`generate`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Union

import numpy as np

from .sequences import Alphabet, SymbolSequence, _entries, _integer, _number

__all__ = [
    "IIDProcess",
    "MarkovProcess",
    "HiddenMarkovProcess",
    "ProcessSpec",
    "Trajectory",
    "Oracle",
    "generate",
    "stationary_block_law",
    "MAX_BLOCKS",
    "block_space_fits",
    "RNG_ALGORITHM",
]

RNG_ALGORITHM = "numpy-pcg64"

_ROW_TOL = 1e-12
_STATIONARY_TOL = 1e-12
MAX_BLOCKS = 65536  # most Markov contexts, and most blocks an exact block law enumerates
_DENSE_MAX = 1024  # most Markov contexts solved directly (1,024: 28 ms, 8 MB matrix); more go to GMRES
_GMRES_RESTART = 400  # Krylov basis vectors kept (65,536 contexts: up to 210 MB); 280 stalls on slowly mixing chains
_GMRES_CYCLES = 5  # restart cycles before _checked judges the result (65,536 contexts: at most about 32 s)
_GMRES_RTOL = 1e-15  # times ||1||_2 <= 256 (MAX_BLOCKS contexts): residual 2-norm at most 2.6e-13
_DRAW_CHUNK = 1 << 14  # uniforms are drawn this many at a time; the stream is the same
_SCAN_BLOCK = 32  # uniforms per block of _walk's blocked scan
_SCAN_MAX_WORK = 132  # measured: above this S * (row length + 1), _walk's loop beats its scan
_FILTER_BLOCK = 64  # positions per block of the HMM oracle's blocked filter
_FILTER_SEGMENT = 1 << 14  # positions the blocked filter holds at once; a multiple of _FILTER_BLOCK
_FILTER_MAX_STATES = 32  # measured: the blocked filter wins up to about 40 hidden states; 32 keeps a margin
_FILTER_TINY = 1e-200  # below this carried mass a block is walked position by position


def block_space_fits(size: int, length: int) -> bool:
    """Whether size^length <= MAX_BLOCKS, without forming a huge power."""
    return size ** min(length, MAX_BLOCKS.bit_length()) <= MAX_BLOCKS


def _check_law(law, width: int, what: str) -> tuple:
    """A probability vector of ``width`` entries, as a tuple of floats."""
    law = _entries(law, what, "numbers")
    if len(law) != width:
        raise ValueError(f"{what} must have {width} entries, got {len(law)}")
    law = tuple(_number(v, f"{what}[{j}]") for j, v in enumerate(law))
    for j, v in enumerate(law):
        if v < 0:
            raise ValueError(f"{what}[{j}] must be >= 0, got {v!r}")
    s = math.fsum(law)
    if abs(s - 1.0) > _ROW_TOL:
        raise ValueError(f"{what} must be a distribution summing to 1 within {_ROW_TOL}, got sum {s!r}")
    return law


def _check_rows(rows, n_rows: int, width: int, what: str) -> tuple:
    """An n_rows x width stochastic matrix, as a tuple of rows."""
    rows = _entries(rows, what, "rows")
    if len(rows) != n_rows:
        raise ValueError(f"{what} must have {n_rows} rows, got {len(rows)}")
    return tuple(_check_law(row, width, f"{what}[{i}]") for i, row in enumerate(rows))


def _successors(P: np.ndarray) -> list[list[int]]:
    return [list(np.nonzero(P[i] > 0)[0]) for i in range(P.shape[0])]


def _bfs_levels(graph: list[list[int]]) -> list[int]:
    """Breadth-first depth of every state from state 0, -1 where unreachable."""
    level = [-1] * len(graph)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph[u]:
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def _check_irreducible_aperiodic(succ: list[list[int]], what: str) -> None:
    """BFS strong-connectivity plus BFS-level gcd period check."""
    n = len(succ)
    preds: list[list[int]] = [[] for _ in range(n)]
    for u, vs in enumerate(succ):
        if not vs:
            raise ValueError(f"{what}: state {u} has no outgoing transition")
        for v in vs:
            preds[v].append(u)
    level = _bfs_levels(succ)
    for direction, reached in (("forward", level), ("backward", _bfs_levels(preds))):
        count = n - reached.count(-1)
        if count != n:
            raise ValueError(f"{what} is reducible ({direction} reachability covers {count}/{n} states)")
    # period = gcd of level[u] + 1 - level[v] over all edges, on the BFS tree from 0
    g = 0
    for u, vs in enumerate(succ):
        for v in vs:
            g = math.gcd(g, level[u] + 1 - level[v])
    if g != 1:
        raise ValueError(f"{what} is periodic with period {g}")


@dataclass(frozen=True)
class IIDProcess:
    """Independent draws from ``probs`` (indexed like the alphabet)."""

    alphabet: Alphabet
    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", _check_law(self.probs, self.alphabet.size, "probs"))

    def _draw(self, rng: np.random.Generator, n_sym: int) -> bytearray:
        cdf = _cdf(self.probs)[:-1]
        data = bytearray()
        for lo in range(0, n_sym, _DRAW_CHUNK):
            draws = np.searchsorted(cdf, rng.random(min(_DRAW_CHUNK, n_sym - lo)), side="right")
            data += draws.astype(np.uint8).tobytes()
        return data

    def _block_law(self, length: int) -> np.ndarray:
        law = np.array(self.probs)
        base = np.array(self.probs)
        for _ in range(length - 1):
            law = np.kron(law, base)
        return law

    def _cursor(self) -> _IIDCursor:
        return _IIDCursor(self)

    def _conditionals(self, seq: np.ndarray, chunk: int) -> Iterator[np.ndarray]:
        """Every row is the law itself."""
        size = self.alphabet.size
        total = len(seq)
        law = np.array(self.probs)
        for lo in range(0, total, chunk):
            yield np.broadcast_to(law, (min(chunk, total - lo), size))


@dataclass(frozen=True)
class MarkovProcess:
    """Order-k chain; ``rows[c]`` is the next-symbol distribution for the
    context whose base-|alphabet| code is c (earliest symbol most significant).

    The induced chain on k-blocks must be irreducible and aperiodic; this is
    validated at construction because stationary-ergodic generation depends
    on it.
    """

    alphabet: Alphabet
    order: int
    rows: tuple

    def __post_init__(self):
        size = self.alphabet.size
        object.__setattr__(self, "order", _integer(self.order, "order", 1))
        if not block_space_fits(size, self.order):
            raise ValueError(f"order must be small enough that {size}^order <= {MAX_BLOCKS}, got {self.order}")
        n_ctx = size**self.order
        rows = _check_rows(self.rows, n_ctx, size, "transition")
        object.__setattr__(self, "rows", rows)
        mod = size ** (self.order - 1)
        succ = [
            [(c % mod) * size + b for b in range(size) if rows[c][b] > 0]
            for c in range(n_ctx)
        ]
        _check_irreducible_aperiodic(succ, "transition (block chain)")

    @cached_property
    def _context_law(self) -> np.ndarray:
        """Stationary law over order-k context codes: mass ``pi[c] * P[c, b]``
        flows to context ``(c % |A|^(k-1)) * |A| + b``.  Up to ``_DENSE_MAX``
        contexts that chain is solved directly.  Above it GMRES solves
        ``pi - pi P + sum(pi) = 1``, applying ``P`` as that reshape-and-sum
        flow; round-off negatives are set to 0 and the result renormalised."""
        size = self.alphabet.size
        P = np.array(self.rows)  # (size^k, size)
        n_ctx = len(P)
        mod = n_ctx // size
        if n_ctx <= _DENSE_MAX:
            ctx = np.arange(n_ctx)[:, None]
            Q = np.zeros((n_ctx, n_ctx))
            Q[ctx, ctx % mod * size + np.arange(size)] = P
            return _solve_stationary(Q)

        from scipy.sparse.linalg import LinearOperator, gmres

        def balance(v):  # v - v P + sum(v)
            return v - (v[:, None] * P).reshape(size, mod * size).sum(axis=0) + v.sum()

        A = LinearOperator((n_ctx, n_ctx), matvec=balance, dtype=float)
        pi = gmres(A, np.ones(n_ctx), rtol=_GMRES_RTOL, restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES)[0]
        pi = np.maximum(pi, 0.0)
        pi /= pi.sum()
        return _checked(pi, pi + pi.sum() - balance(pi))  # pi P

    @cached_property
    def _marginals(self) -> list:
        """Stationary law of the blocks of every length m <= order, at index
        m (index 0 is unused), each summed from the next longer one.  The
        cursor's short-prefix conditionals and the short block laws read
        these same floats, so no approximation enters at n = 0."""
        size = self.alphabet.size
        marginals = [self._context_law]
        for _ in range(self.order - 1):
            marginals.append(marginals[-1].reshape(-1, size).sum(axis=1))
        return [None] + marginals[::-1]

    def _draw(self, rng: np.random.Generator, n_sym: int) -> bytearray:
        size = self.alphabet.size
        k = self.order
        state = int(np.searchsorted(_cdf(self._context_law)[:-1], rng.random(), side="right"))
        data = bytearray(state // size ** (k - 1 - i) % size for i in range(k))[:n_sym]
        chunks = (rng.random(min(_DRAW_CHUNK, n_sym - lo)) for lo in range(k, n_sym, _DRAW_CHUNK))
        for entered in _walk(_cdf(self.rows), state, size ** (k - 1), chunks):
            data += (entered % size).astype(np.uint8).tobytes()
        return data

    def _block_law(self, length: int) -> np.ndarray:
        size = self.alphabet.size
        k = self.order
        if length <= k:
            return self._marginals[length].copy()
        law = self._context_law
        P = np.array(self.rows)
        for i in range(k, length):
            ctx = np.arange(size**i) % (size**k)
            law = (law[:, None] * P[ctx]).reshape(-1)
        return law

    def _cursor(self) -> _MarkovCursor:
        return _MarkovCursor(self)

    def _conditionals(self, seq: np.ndarray, chunk: int) -> Iterator[np.ndarray]:
        """Rows gathered by the code of the last ``order`` symbols, with the
        same floats a cursor returns; the first ``order - 1`` rows, whose
        prefixes are shorter than the order, come from walking a cursor."""
        size = self.alphabet.size
        total = len(seq)
        k = self.order
        head = _cursor_rows(self._cursor(), seq[: k - 1], size)
        table = np.array(self.rows)
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            start = min(max(lo, k - 1), hi)  # first position with a full order-k context
            code = np.zeros(hi - start, dtype=np.int64)
            for i in range(k):
                code = code * size + seq[start - k + 1 + i : hi - k + 1 + i]
            out = table.take(code, axis=0)  # 2-D fancy indexing of a narrow table costs about 10x a take
            if start > lo:
                out = np.concatenate([head[lo:start], out])
            yield out


@dataclass(frozen=True)
class HiddenMarkovProcess:
    """Hidden chain ``transition`` (S x S) with per-state emission rows (S x |alphabet|)."""

    alphabet: Alphabet
    transition: tuple
    emission: tuple

    def __post_init__(self):
        n_states = len(_entries(self.transition, "transition", "rows"))
        trans = _check_rows(self.transition, n_states, n_states, "transition")
        emit = _check_rows(self.emission, n_states, self.alphabet.size, "emission")
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "emission", emit)
        if n_states > 1:
            _check_irreducible_aperiodic(_successors(np.array(trans)), "transition (hidden chain)")

    @cached_property
    def _hidden_law(self) -> np.ndarray:
        """Stationary law of the hidden chain."""
        return _solve_stationary(np.array(self.transition))

    def _draw(self, rng: np.random.Generator, n_sym: int) -> bytearray:
        """The hidden chain walks the odd uniforms; the even ones pick a chunk's emissions column by column."""
        s = int(np.searchsorted(_cdf(self._hidden_law)[:-1], rng.random(), side="right"))
        emit = _cdf(self.emission).T
        data = bytearray()
        pairs = (rng.random(2 * min(_DRAW_CHUNK, n_sym - lo)) for lo in range(0, n_sym, _DRAW_CHUNK))
        pairs, walked = itertools.tee(pairs)
        for us, entered in zip(pairs, _walk(_cdf(self.transition), s, 1, (us[1::2] for us in walked))):
            states = np.concatenate(([s], entered[:-1]))
            s = entered[-1]
            x = np.zeros(len(states), dtype=np.uint8)
            for column in emit[:-1]:
                x += us[0::2] >= column[states]
            data += x.tobytes()
        return data

    def _block_law(self, length: int) -> np.ndarray:
        """One forward pass over all blocks at once: row ``code`` of ``mass``
        holds P(block ``code``, hidden state at its last symbol)."""
        A = np.array(self.transition)
        E_T = np.array(self.emission).T  # (size, S)
        mass = self._hidden_law * E_T
        for _ in range(length - 1):
            mass = ((mass @ A)[:, None, :] * E_T).reshape(-1, len(A))
        return mass.sum(axis=1)

    def _cursor(self) -> _HMMCursor:
        return _HMMCursor(self)

    def _conditionals(self, seq: np.ndarray, chunk: int) -> Iterator[np.ndarray]:
        """Rows from the blocked filter, or from one cursor carried across
        chunks when the hidden chain has more than ``_FILTER_MAX_STATES``
        states."""
        if len(self.transition) <= _FILTER_MAX_STATES:
            yield from _rechunk(self._filtered(seq), chunk)
            return
        walk = self._cursor()
        for lo in range(0, len(seq), chunk):
            yield _cursor_rows(walk, seq[lo : lo + chunk], self.alphabet.size)

    def _filtered(self, seq: np.ndarray) -> Iterator[np.ndarray]:
        """The forward filter as a blocked scan, one segment of
        ``_FILTER_SEGMENT`` positions at a time.

        ``pred`` is the predicted hidden law at a position, ``alpha @ A``
        after the previous one (the stationary law at position 0).  Blocks
        of ``_FILTER_BLOCK`` positions are fixed by absolute position.  Per
        segment: (1) every whole block's transfer product
        ``diag(E[:, x_0]) A diag(E[:, x_1]) ... A diag(E[:, x_last])`` is
        formed for all blocks at once, each matrix divided by its sum after
        every step: one scale per step, as in the scaled forward algorithm,
        so the rows keep their relative masses and the product cannot
        underflow; (2) ``pred`` is carried across the block starts in
        Python; (3) :meth:`_fill` runs the cursor's own update from every
        block start at once.  A block whose carried mass falls below
        ``_FILTER_TINY`` (an impossible history, or rows that underflowed
        beside heavier ones) is walked by :meth:`_fill` instead."""
        A = np.array(self.transition)
        E = np.array(self.emission)
        emit = E.T.copy()  # emit[x] = E[:, x]
        n_states = len(A)
        L = _FILTER_BLOCK
        pred = self._hidden_law
        for lo in range(0, len(seq), _FILTER_SEGMENT):
            x = seq[lo : lo + _FILTER_SEGMENT]
            n = len(x)
            full = n // L
            xs = np.zeros(-(-n // L) * L, dtype=np.intp)
            xs[:n] = x
            xs = xs.reshape(-1, L)
            transfer = np.eye(n_states) * emit.take(xs[:full, 0], axis=0)[:, :, None]
            for j in range(1, L):
                transfer = (transfer @ A) * emit.take(xs[:full, j], axis=0)[:, None, :]
                total = transfer.sum(axis=(1, 2))[:, None, None]
                np.divide(transfer, total, out=transfer, where=total > 0)
            starts = [pred]
            for b in range(full):
                v = pred @ transfer[b]
                total = v.sum()
                if total > _FILTER_TINY:
                    pred = (v / total) @ A
                else:
                    pred = self._fill(pred[None], xs[b : b + 1], L, A, emit)[0, -1]
                starts.append(pred)
            filled = self._fill(np.array(starts[: len(xs)]), xs, n, A, emit)
            yield (filled.reshape(-1, 1, n_states)[:n] @ E)[:, 0]

    @staticmethod
    def _fill(starts: np.ndarray, xs: np.ndarray, n: int, A: np.ndarray, emit: np.ndarray) -> np.ndarray:
        """Predicted laws after each of the first ``n`` positions of the
        blocks ``xs``: the cursor's update ``alpha = pred * E[:, x]``,
        renormalised, then ``alpha @ A``, batched across the blocks."""
        blocks, L = xs.shape
        out = np.empty((blocks, L, len(A)))
        pred = starts
        for j in range(L):
            rows = -(-(n - j) // L)  # the blocks that reach their j-th position
            alpha = pred[:rows] * emit.take(xs[:rows, j], axis=0)
            total = alpha.sum(axis=1)
            if not (total > 0.0).all():
                raise ValueError("history has zero probability under the model")
            alpha /= total[:, None]
            pred = (alpha[:, None, :] @ A)[:, 0]  # one vector-matrix product per row: the cursor's floats
            out[:rows, j] = pred
        return out


ProcessSpec = Union[IIDProcess, MarkovProcess, HiddenMarkovProcess]


@dataclass(frozen=True)
class Trajectory:
    """A generated segment X_0..X_N; the same (spec, seed, horizon) always
    reproduces it."""

    seq: SymbolSequence


def _solve_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of an irreducible aperiodic stochastic matrix:
    the balance equations ``pi (P - I) = 0`` with the last one replaced by
    ``sum(pi) = 1``, solved directly, with round-off negatives set to 0."""
    identity = np.eye(len(P))
    M = P.T - identity
    M[-1] = 1.0
    pi = np.maximum(np.linalg.solve(M, identity[-1]), 0.0)
    return _checked(pi, pi @ P)


def _checked(pi: np.ndarray, stepped: np.ndarray) -> np.ndarray:
    """``pi``, unless the residual ||pi P - pi||_inf exceeds 1e-12."""
    residual = np.abs(stepped - pi).max()
    if residual > _STATIONARY_TOL:
        raise ValueError(f"stationary law residual {residual:.3e} exceeds {_STATIONARY_TOL}")
    return pi


def stationary_block_law(spec: ProcessSpec, length: int) -> np.ndarray:
    """Stationary probability of every length-``length`` block, indexed by the
    block's base-|alphabet| code (earliest symbol most significant)."""
    length = _integer(length, "length", 1)
    if not block_space_fits(spec.alphabet.size, length):
        raise ValueError("block space too large")
    return spec._block_law(length)


def _cdf(rows) -> np.ndarray:
    """CDF of a law or of each matrix row, summed left to right; the last boundary is 1 against rounding."""
    cdf = np.cumsum(rows, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _cursor_rows(cursor, symbols: np.ndarray, size: int) -> np.ndarray:
    """The conditional ``cursor`` returns after observing each of ``symbols`` in turn, one row each."""
    observe, conditional = cursor.observe, cursor.conditional
    rows = np.empty((len(symbols), size))
    for i, x in enumerate(symbols.tolist()):
        observe(x)
        rows[i] = conditional()
    return rows


def _rechunk(parts: Iterable[np.ndarray], chunk: int) -> Iterator[np.ndarray]:
    """The rows of ``parts`` regrouped into arrays of ``chunk`` rows (the last may be shorter)."""
    held: list = []
    count = 0
    for part in parts:
        while len(part):
            take = part[: chunk - count]
            part = part[len(take) :]
            held.append(take)
            count += len(take)
            if count == chunk:
                yield held[0] if len(held) == 1 else np.concatenate(held)
                held, count = [], 0
    if held:
        yield np.concatenate(held)


def _walk(cdf: np.ndarray, state: int, mod: int, chunks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Walk a chain on the contexts that index the rows of ``cdf``; per chunk
    of uniforms, yield the context entered on each, as int32.

    A uniform u picks x, the number of interior boundaries at most u in row
    ``state``, and moves to ``(state % mod) * len(row) + x``: Markov contexts
    for ``mod = |A|^(k-1)`` (x is the context mod |A|), hidden states for
    ``mod = 1``.  Each uniform thus maps every context to its successor, and
    composing maps is associative.  So a chain of S contexts with
    S * (len(row) + 1) <= ``_SCAN_MAX_WORK`` (per uniform, the scan makes
    S * (len(row) - 1) comparisons and gathers about 2 * S entries) is
    walked as a blocked prefix scan: the maps of each block of
    ``_SCAN_BLOCK`` uniforms (the last one padded) are composed for all
    blocks at once, the block starts are walked one block at a time, and
    each position is filled in from its block's start.  Larger chains take
    a per-symbol loop, which stops at the first boundary above u; interior
    boundaries never decrease, so both pick the same x.
    """
    n_ctx, size = cdf.shape
    step = np.arange(n_ctx, dtype=np.int32) % mod * size  # the context entered on pick 0
    if n_ctx * (size + 1) > _SCAN_MAX_WORK:
        rows, step = cdf.tolist(), step.tolist()
        for us in chunks:
            entered = []
            append = entered.append
            for u in us.tolist():
                row = rows[state]
                x = 0
                while u >= row[x]:
                    x += 1
                state = step[state] + x
                append(state)
            yield np.array(entered, dtype=np.int32)
        return
    bounds = cdf[:, :-1].T
    for us in chunks:
        n = len(us)
        blocks = -(-n // _SCAN_BLOCK)
        u = np.zeros(blocks * _SCAN_BLOCK)
        u[:n] = us
        u = u.reshape(blocks, _SCAN_BLOCK).T[:, :, None]  # position b * L + j at [j, b]
        # table[j, b * S + c] = b * S + the context that block b's j-th uniform moves c to
        offset = np.arange(0, blocks * n_ctx, n_ctx, dtype=np.int32)
        table = np.empty((_SCAN_BLOCK, blocks, n_ctx), dtype=np.int32)
        table[:] = offset[:, None] + step
        for column in bounds:
            table += u >= column
        table = table.reshape(_SCAN_BLOCK, -1)
        ends = np.arange((blocks - 1) * n_ctx, dtype=np.int32)  # no block starts after the last
        for row in table:
            ends = row.take(ends)
        ends = ends.tolist()
        starts = [state]
        for _ in range(blocks - 1):  # block b ends at b * S + c, so block b + 1 starts at that + S
            starts.append(ends[starts[-1]] + n_ctx)
        entered = np.empty((_SCAN_BLOCK, blocks), dtype=np.int32)
        at = np.array(starts, dtype=np.int32)
        for row, out in zip(table, entered):
            at = row.take(at, out=out)
        entered = (entered - offset).T.reshape(-1)[:n]
        state = int(entered[-1])
        yield entered


def generate(spec: ProcessSpec, seed: int, horizon: int) -> Trajectory:
    """Draw X_0..X_horizon with the stationary law as initial condition.

    Draw order (fixed for reproducibility): IID consumes one uniform per
    symbol; Markov consumes one uniform for the initial k-block then one per
    subsequent symbol; HMM consumes one uniform for the initial hidden state
    then an (emission, transition) pair per time step.  A uniform u picks the
    symbol (or state) whose index is the number of interior boundaries at
    most u in its row's CDF, summed left to right.  Uniforms are drawn in
    chunks, which yields the same PCG64 stream as one draw of them all
    without holding it.  Within a chunk, chains with few contexts are walked
    by a blocked prefix scan and larger ones symbol by symbol (see
    :func:`_walk`); both make the same picks, so the bytes depend on neither
    the chunk size nor the route.
    """
    horizon = _integer(horizon, "horizon", 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    data = spec._draw(rng, horizon + 1)
    return Trajectory(seq=SymbolSequence(spec.alphabet, data))


class Oracle:
    """Exact evaluator of P(X_{n+1} = . | X_0..X_n) for a process spec.

    ``cursor()`` returns a stateful stream (observe one symbol at a time and
    read the current conditional in O(1)-ish work) and is the reference;
    ``conditionals`` answers for every position of a whole sequence, chunk
    by chunk: bit for bit a cursor's floats for IID and Markov sources,
    within 1e-13 of them for hidden Markov sources (the blocked filter).
    """

    def __init__(self, spec: ProcessSpec):
        self.spec = spec

    def cursor(self):
        return self.spec._cursor()

    def conditionals(self, seq: np.ndarray, chunk: int) -> Iterator[np.ndarray]:
        """P(X_{n+1} = . | X_0..X_n) for every position n of ``seq``, as
        arrays of ``chunk`` rows (the last one may be shorter).  IID and
        Markov rows equal the floats a cursor returns.  Hidden Markov rows
        come from a blocked forward filter whose blocks are fixed by
        absolute position, so they do not depend on ``chunk``; they are
        within 1e-13 (max abs) of a cursor's, and equal to them above
        ``_FILTER_MAX_STATES`` hidden states, where a cursor computes them.
        A ``chunk`` below 1, a history of probability zero, or a symbol
        outside the alphabet raises ``ValueError``; the chunk and the
        symbols are checked before any row."""
        chunk = _integer(chunk, "chunk", 1)
        size = self.spec.alphabet.size
        if len(seq) and not 0 <= seq.min() <= seq.max() < size:
            raise ValueError(f"symbol index {seq[(seq < 0) | (seq >= size)][0]} outside alphabet")
        return self.spec._conditionals(seq, chunk)


class _IIDCursor:
    __slots__ = ("_probs", "_size", "_seen")

    def __init__(self, spec: IIDProcess):
        self._probs = spec.probs
        self._size = spec.alphabet.size
        self._seen = 0

    def observe(self, x: int) -> None:
        if not 0 <= x < self._size:
            raise ValueError(f"symbol index {x} outside alphabet")
        self._seen += 1

    def conditional(self) -> tuple:
        if self._seen == 0:
            raise ValueError("conditional undefined before any observation")
        return self._probs


class _MarkovCursor:
    __slots__ = ("_rows", "_marginals", "_k", "_size", "_mod", "_code", "_seen")

    def __init__(self, spec: MarkovProcess):
        self._rows = spec.rows
        self._marginals = spec._marginals
        self._k = spec.order
        self._size = spec.alphabet.size
        self._mod = self._size ** (self._k - 1)
        self._code = 0
        self._seen = 0

    def observe(self, x: int) -> None:
        if not 0 <= x < self._size:
            raise ValueError(f"symbol index {x} outside alphabet")
        if self._seen < self._k:
            self._code = self._code * self._size + x
        else:
            self._code = (self._code % self._mod) * self._size + x
        self._seen += 1

    def conditional(self) -> tuple:
        seen = self._seen
        if seen == 0:
            raise ValueError("conditional undefined before any observation")
        if seen >= self._k:
            return self._rows[self._code]
        code, size = self._code, self._size
        mass = self._marginals[seen][code]
        if mass <= 0:
            raise ValueError("history has zero probability under the model")
        return tuple((self._marginals[seen + 1][code * size : (code + 1) * size] / mass).tolist())


class _HMMCursor:
    __slots__ = ("_A", "_E", "_pi", "_alpha", "_pred", "_size")

    def __init__(self, spec: HiddenMarkovProcess):
        self._A = np.array(spec.transition)
        self._E = np.array(spec.emission)
        self._pi = spec._hidden_law
        self._alpha = None
        self._pred = None  # alpha @ A, shared by conditional() and the next observe()
        self._size = spec.alphabet.size

    def _predicted(self) -> np.ndarray:
        if self._pred is None:
            self._pred = self._alpha @ self._A
        return self._pred

    def observe(self, x: int) -> None:
        if not 0 <= x < self._size:
            raise ValueError(f"symbol index {x} outside alphabet")
        if self._alpha is None:
            alpha = self._pi * self._E[:, x]
        else:
            alpha = self._predicted() * self._E[:, x]
        total = alpha.sum()
        if total <= 0.0:
            raise ValueError("history has zero probability under the model")
        self._alpha = alpha / total  # renormalize every step; no underflow at any horizon
        self._pred = None

    def conditional(self) -> tuple:
        if self._alpha is None:
            raise ValueError("conditional undefined before any observation")
        return tuple((self._predicted() @ self._E).tolist())
