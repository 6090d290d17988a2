"""Counter-based seed derivation so parallel and serial trial runs agree bit for bit."""

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64(state: int) -> int:
    """Advance-and-output step of the splitmix64 generator for a 64-bit state."""
    z = (state + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, index: int) -> int:
    """Seed for trial `index`, a pure function of (master_seed, index).

    Equals the (index+1)-th output of a splitmix64 stream seeded with
    master_seed, so any subset of trials can be computed on any worker in any
    order without changing results.
    """
    if not 0 <= master_seed <= MASK64:
        raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {master_seed}")
    if index < 0:
        raise ValueError(f"trial index must be non-negative, got {index}")
    return splitmix64((master_seed + index * _GOLDEN) & MASK64)


def generator(seed: int) -> np.random.Generator:
    """A PCG64 generator for a single trial seed."""
    return np.random.Generator(np.random.PCG64(seed))
