"""Counter-based seed derivation so parallel and serial trial runs agree bit for bit.

Trial i of a run draws from `generator(trial_seed(master_seed, i))`. Building
that generator costs numpy a `SeedSequence`, its pool hashing and a fresh
`PCG64` per trial, so `trial_generators` hashes the seeds of a block of trials
at once in numpy arrays and sets each trial's PCG64 state on one reused
generator: the states, and so the streams, are numpy's own.
"""

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: trials whose seeds are hashed in one vectorized pass; bounds the arrays held at once
SEED_BLOCK = 1024

# numpy's SeedSequence: a pool of 4 uint32 words, hashed with these constants
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """(state, inc) of `np.random.PCG64(seed)` for each seed of a uint64 array.

    Replays numpy's SeedSequence: the seed's two 32-bit words are hashed into
    a 4-word pool (a seed below 2**32 is one word, which hashes as a high word
    of 0 because the pool is longer), the pool words are mixed pairwise, and
    `generate_state(4, uint64)` is drawn from it. PCG64 then seeds its 128-bit
    LCG from those words as `pcg64_set_seed` does.
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
    words = [(halves[2 * k + 1] << np.uint64(32) | halves[2 * k]).tolist() for k in range(4)]
    states = []
    for initstate_hi, initstate_lo, initseq_hi, initseq_lo in zip(*words):
        inc = ((initseq_hi << 64 | initseq_lo) << 1 | 1) & _MASK128
        states.append((((inc + (initstate_hi << 64 | initstate_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def trial_generators(master_seed: int, lo: int, hi: int):
    """Yield (i, rng) for each trial i in [lo, hi), rng in the state of
    `generator(trial_seed(master_seed, i))`.

    Every rng is the same Generator, re-seeded for each trial, so a caller must
    be done with it before it asks for the next trial's.
    """
    check_seed_args(master_seed, lo)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for start in range(lo, hi, SEED_BLOCK):
        stop = min(start + SEED_BLOCK, hi)
        for i, (state, inc) in enumerate(pcg64_states(_trial_seeds(master_seed, start, stop)), start):
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield i, rng
