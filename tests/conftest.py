"""Shared brute-force oracles for the test suite.

These are deliberately naive pure-Python re-implementations of the
recurrence definitions, independent of the package's vectorized scanning and
of the streaming index, so each production path is checked against a third
route.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from nextsym import Alphabet, Schedules

# child processes (``python -m nextsym``) import the package from this checkout too
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


def brute_times(data, n: int, k: int) -> list:
    """All backshifts t >= 1 with data[n-k+1-t..n-t] == data[n-k+1..n], ascending."""
    suffix = list(data[n - k + 1 : n + 1])
    times = []
    t = 1
    while n - k + 1 - t >= 0:
        if list(data[n - k + 1 - t : n - t + 1]) == suffix:
            times.append(t)
        t += 1
    return times


def brute_count(data, n: int, k: int) -> int:
    return len(brute_times(data, n, k))


def brute_kappa(data, n: int, k_cap: int, j_need: int) -> int:
    for k in range(min(k_cap, n + 1), 0, -1):
        if brute_count(data, n, k) >= j_need:
            return k
    return 0


def brute_histogram(data, n: int, k: int, size: int) -> list:
    hist = [0] * size
    for t in brute_times(data, n, k):
        hist[data[n - t + 1]] += 1
    return hist


@pytest.fixture
def binary():
    return Alphabet("01")


@pytest.fixture
def default_schedules():
    return Schedules.default(2)
