"""Finite alphabets and immutable symbol sequences.

Symbols are stored internally as indices 0..size-1 (one byte each), so
sequences of a few million symbols stay cheap to hold, iterate and share.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

import numpy as np

MAX_ALPHABET = 256  # index storage is one byte per symbol


def _integer(value, field: str, low: int | None = None, high: int | None = None) -> int:
    """value as an int in ``low..high`` (open where None); NumPy integers
    pass, a bool or a float, even a whole one, raises naming the field."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be an integer, got {value!r}") from None
    if low is not None and value < low or high is not None and value > high:
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{field} must be {span}, got {value}")
    return value


class Alphabet:
    """An ordered set of at least two distinct symbols.

    The position of a symbol in ``symbols`` is its index; all other modules
    work on indices and only translate back at I/O boundaries.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable):
        syms = tuple(symbols)
        if len(syms) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(syms) > MAX_ALPHABET:
            raise ValueError(f"alphabet larger than {MAX_ALPHABET} symbols is not supported")
        try:
            index = {s: i for i, s in enumerate(syms)}
        except TypeError as exc:
            raise ValueError(f"alphabet symbols must be hashable: {exc}") from None
        if len(index) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        self.symbols = syms
        self._index = index

    @classmethod
    def of_size(cls, size: int) -> "Alphabet":
        """Alphabet '0', '1', ... of the given size."""
        return cls(str(i) for i in range(_integer(size, "size")))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def encode(self, symbol) -> int:
        try:
            return self._index[symbol]
        except (KeyError, TypeError):  # an unhashable value is no symbol either
            raise ValueError(f"unknown symbol {symbol!r}") from None

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"


class SymbolSequence:
    """A finished data segment of symbol indices, held once as ``bytes``.

    ``seq[n]`` is the symbol index at time n (zero-based), a Python int.
    Every reader shares one read-only ``uint8`` view of the data."""

    __slots__ = ("alphabet", "_data", "_array")

    def __init__(self, alphabet: Alphabet, values: Iterable[int] = ()):
        if isinstance(values, (bytes, bytearray)):
            arr = np.frombuffer(values, np.uint8)
        else:  # by value, a numpy array as a list: never by a wider array's raw bytes, and no float is an index
            arr = np.fromiter(map(operator.index, values), np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= alphabet.size):
            bad = int(np.flatnonzero((arr < 0) | (arr >= alphabet.size))[0])
            raise ValueError(f"symbol index {arr[bad]} at position {bad} outside alphabet")
        self.alphabet = alphabet
        self._data = arr.astype(np.uint8, copy=False).tobytes()
        self._array = np.frombuffer(self._data, np.uint8)  # read-only, since bytes are

    def as_array(self) -> np.ndarray:
        """The data as a read-only uint8 array, the same one on every call."""
        return self._array

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return tuple(self._data[idx])
        return self._data[idx]

    def __repr__(self) -> str:
        head = list(self._data[:16])
        tail = "..." if len(self._data) > 16 else ""
        return f"SymbolSequence(len={len(self._data)}, data={head}{tail})"
