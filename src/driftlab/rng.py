"""Counter-based seed derivation so parallel and serial trial runs agree bit for bit.

Trial i of a run draws from `generator(trial_seed(master_seed, i))`, numpy's
own `Generator(PCG64(seed))`, built afresh for each trial that steps. A
batched trial reads only its first k doubles, and building a generator would
cost it more than reading them, so `trial_uniforms` builds none:
`pcg64_states` replays numpy's `SeedSequence` and PCG64 seeding for a block of
trials at once in numpy arrays, and `trial_uniforms` steps every trial's PCG64
in uint64 arrays and returns their first doubles. The states, and so the
streams, are numpy's own.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy's SeedSequence: a pool of 4 uint32 words, hashed with these constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = (1 << 32) - 1
# PCG64's 128-bit LCG multiplier, as uint64 words, and the 32-bit limbs of its low word
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M_HI, _M_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & MASK64)
_M_LO0, _M_LO1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32, _32, _ONE = np.uint64(_MASK32), np.uint64(32), np.uint64(1)


def splitmix64(state: int) -> int:
    """Advance-and-output step of the splitmix64 generator for a 64-bit state."""
    z = (state + _GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def check_seed_args(master_seed: int, index: int) -> None:
    if not 0 <= master_seed <= MASK64:
        raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {master_seed}")
    if index < 0:
        raise ValueError(f"trial index must be non-negative, got {index}")


def trial_seed(master_seed: int, index: int) -> int:
    """Seed for trial `index`, a pure function of (master_seed, index).

    Equals the (index+1)-th output of a splitmix64 stream seeded with
    master_seed, so any subset of trials can be computed on any worker in any
    order without changing results.
    """
    check_seed_args(master_seed, index)
    return splitmix64((master_seed + index * _GOLDEN) & MASK64)


def generator(seed: int) -> np.random.Generator:
    """A PCG64 generator for a single trial seed."""
    return np.random.Generator(np.random.PCG64(seed))


def _trial_seeds(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """trial_seed(master_seed, i) for i in [lo, hi), as uint64 (arrays wrap mod 2**64)."""
    z = np.uint64(master_seed) + np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _hasher(init: int, mult: int):
    """SeedSequence's hash on uint32 arrays: each call xors in the running
    constant, steps it by `mult`, multiplies by the stepped one and folds the
    high half down."""
    const = init

    def hash_(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_


def _lcg_step(state_hi, state_lo, inc_hi, inc_lo):
    """PCG64's LCG step, state * _PCG_MULT + inc mod 2**128, on uint64 arrays of
    the high and low words of each 128-bit value. The high word of the low words'
    product comes from their 32-bit limbs, and the carry of the low words' sum
    from its wrapping below inc_lo."""
    lo0, lo1 = state_lo & _LOW32, state_lo >> _32
    cross0, cross1 = lo0 * _M_LO1, lo1 * _M_LO0
    mid = (lo0 * _M_LO0 >> _32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    high = lo1 * _M_LO1 + (cross0 >> _32) + (cross1 >> _32) + (mid >> _32)
    new_lo = state_lo * _M_LO + inc_lo
    new_hi = high + state_lo * _M_HI + state_hi * _M_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def pcg64_states(seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """The words (state_hi, state_lo, inc_hi, inc_lo), as uint64 arrays, of
    `np.random.PCG64(seed)`'s 128-bit state and increment for each seed of a
    uint64 array.

    Replays numpy's SeedSequence: the seed's two 32-bit words are hashed into
    a 4-word pool (a seed below 2**32 is one word, which hashes as a high word
    of 0 because the pool is longer), the pool words are mixed pairwise, and
    `generate_state(4, uint64)` is drawn from it. PCG64 then seeds its LCG from
    those words as `pcg64_set_seed` does: inc = initseq << 1 | 1, and the state
    is one step on from inc + initstate.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(len(seeds), dtype=np.uint32)
    low, high = (seeds & np.uint64(_MASK32)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    pool = [hashmix(word) for word in (low, high, zeros, zeros)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))

    output = _hasher(_INIT_B, _MULT_B)
    halves = [output(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    # the four uint64 words, low half first
    initstate_hi, initstate_lo, initseq_hi, initseq_lo = [halves[2 * k + 1] << _32 | halves[2 * k] for k in range(4)]
    inc_hi, inc_lo = initseq_hi << _ONE | initseq_lo >> np.uint64(63), initseq_lo << _ONE | _ONE
    state_lo = inc_lo + initstate_lo
    state_hi = inc_hi + initstate_hi + (state_lo < inc_lo)
    return (*_lcg_step(state_hi, state_lo, inc_hi, inc_lo), inc_hi, inc_lo)


def trial_uniforms(master_seed: int, lo: int, hi: int, k: int) -> np.ndarray:
    """The first k doubles of each trial i in [lo, hi): a (hi - lo, k) float64
    array whose row i - lo equals `generator(trial_seed(master_seed, i)).random(k)`
    bit for bit.

    Every trial's PCG64 is stepped at once in uint64 arrays. Each step's output
    is XSL-RR, the xor of the state's two words rotated right by its top 6
    bits, and the double is its top 53 bits times 2**-53, as numpy makes it.
    """
    check_seed_args(master_seed, lo)
    state_hi, state_lo, inc_hi, inc_lo = pcg64_states(_trial_seeds(master_seed, lo, hi))
    out = np.empty((k, hi - lo))
    for column in out:
        state_hi, state_lo = _lcg_step(state_hi, state_lo, inc_hi, inc_lo)
        xored, rot = state_hi ^ state_lo, state_hi >> np.uint64(58)
        bits = xored >> rot | xored << (np.uint64(64) - rot & np.uint64(63))
        np.multiply(bits >> np.uint64(11), 2.0**-53, out=column)
    return out.T
