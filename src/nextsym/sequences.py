"""Finite alphabets and append-only symbol sequences.

Symbols are stored internally as indices 0..size-1 (one byte each), so
sequences of a few million symbols stay cheap to hold and iterate.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

MAX_ALPHABET = 256  # index storage is one byte per symbol


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
        return cls(str(i) for i in range(size))

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
    """Growable sequence of symbol indices; existing entries never change.

    ``seq[n]`` is the symbol index at time n (zero-based).  There is
    deliberately no item assignment: the data segment only ever extends.
    """

    __slots__ = ("alphabet", "_data")

    def __init__(self, alphabet: Alphabet, values: Iterable[int] = ()):
        self.alphabet = alphabet
        data = bytearray(values)
        # the view is a temporary: a live export would stop append() from resizing data
        if data and np.frombuffer(data, np.uint8).max() >= alphabet.size:
            bad = next(i for i, v in enumerate(data) if v >= alphabet.size)
            raise ValueError(f"symbol index {data[bad]} at position {bad} outside alphabet")
        self._data = data

    def append(self, index: int) -> None:
        if not 0 <= index < self.alphabet.size:
            raise ValueError(f"symbol index {index} outside alphabet of size {self.alphabet.size}")
        self._data.append(index)

    def as_array(self) -> np.ndarray:
        """Snapshot copy of the data as a uint8 array (safe to keep around)."""
        return np.frombuffer(bytes(self._data), dtype=np.uint8)

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
