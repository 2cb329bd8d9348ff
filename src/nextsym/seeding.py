"""Deterministic derivation of per-replicate RNG seeds.

Replicate seeds are derived from the base seed with a splitmix-style finalizer
(golden-ratio increment followed by the splitmix64 mixing permutation) rather
than used sequentially, so that nearby base seeds or replicate indices do not
produce correlated PCG64 streams.
"""

from __future__ import annotations

from .sequences import _integer

_MASK = (1 << 64) - 1
MAX_SEED = _MASK  # base seeds are 64-bit words; any other integer would alias one of them, so it is refused
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """The splitmix64 output permutation (a bijection on 64-bit words)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK
    return z ^ (z >> 31)


def derive_seed(base_seed: int, index: int) -> int:
    """Seed for stream ``index`` of a run keyed by ``base_seed``, a 64-bit word."""
    base_seed = _integer(base_seed, "base seed", 0, MAX_SEED)
    return mix64(base_seed + (_integer(index, "index", 0) + 1) * _GOLDEN)
