import numpy as np
import pytest

from driftlab.rng import generator, pcg64_states, splitmix64, trial_seed, trial_uniforms

# Reference outputs of the splitmix64 stream seeded with 0, as produced by the
# original public-domain C implementation.
SPLITMIX64_FROM_ZERO = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
    0x53CB9F0C747EA2EA,
]


def test_trial_seed_matches_reference_stream():
    assert [trial_seed(0, i) for i in range(6)] == SPLITMIX64_FROM_ZERO


def test_splitmix64_is_pure():
    assert splitmix64(12345) == splitmix64(12345)
    assert splitmix64(12345) != splitmix64(12346)


def test_trial_seeds_distinct_across_indices():
    seeds = {trial_seed(987654321, i) for i in range(20_000)}
    assert len(seeds) == 20_000


def test_trial_seeds_distinct_across_masters():
    assert trial_seed(1, 0) != trial_seed(2, 0)


def test_generator_deterministic():
    a = generator(42).random(5)
    b = generator(42).random(5)
    assert (a == b).all()
    c = generator(trial_seed(7, 3)).random(5)
    d = generator(trial_seed(7, 3)).random(5)
    assert (c == d).all()


def test_seed_validation():
    with pytest.raises(ValueError):
        trial_seed(-1, 0)
    with pytest.raises(ValueError):
        trial_seed(2**64, 0)
    with pytest.raises(ValueError):
        trial_seed(0, -1)


MASTERS = [0, 1, 2**32 - 1, 2**63 - 1, 2**64 - 1]
# lo off a multiple of 1024, a single trial, and lengths either side of 1024
RANGES = [(3, 1028), (1029, 1030), (0, 1023), (0, 1024), (7, 1031)]


def state_ints(seeds):
    """(state, inc) as 128-bit ints for each seed, from pcg64_states' words."""
    words = [w.tolist() for w in pcg64_states(np.array(seeds, dtype=np.uint64))]
    return [(state_hi << 64 | state_lo, inc_hi << 64 | inc_lo) for state_hi, state_lo, inc_hi, inc_lo in zip(*words)]


def test_pcg64_states_match_numpy_for_one_word_seeds():
    # a seed below 2**32 is a single uint32 word of SeedSequence entropy
    seeds = [0, 1, 2, 12345, 2**31, 2**32 - 1]
    for seed, (state, inc) in zip(seeds, state_ints(seeds)):
        reference = np.random.PCG64(seed).state["state"]
        assert (state, inc) == (reference["state"], reference["inc"]), seed


def test_pcg64_state_pinned():
    # a literal, not numpy's output: if numpy's SeedSequence changes, the comparisons
    # with numpy above fail and this one holds, which tells the two apart
    assert state_ints([trial_seed(0, 0)]) == [
        (0xA378AA27D8CDEC7069BBA7A8C50D424A, 0x8D0047D30F713D5111E023502642D953)
    ]


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("lo, hi", RANGES)
@pytest.mark.parametrize("k", [1, 2, 25])
def test_trial_uniforms_match_numpy_draws(master, lo, hi, k):
    uniforms = trial_uniforms(master, lo, hi, k)
    assert uniforms.shape == (hi - lo, k) and uniforms.dtype == np.float64
    for i, row in enumerate(uniforms, lo):
        assert row.tolist() == generator(trial_seed(master, i)).random(k).tolist(), (master, i)


def test_trial_uniforms_pinned():
    # as for the state above: a numpy change fails the comparisons with numpy,
    # a replay bug fails this literal too
    assert trial_uniforms(0, 0, 1, 1)[0, 0] == float.fromhex("0x1.f58bdfa01d4c8p-3")


def test_trial_uniforms_validate_like_trial_seed():
    for master, lo in [(-1, 0), (2**64, 0), (0, -1)]:
        with pytest.raises(ValueError) as expected:
            trial_seed(master, lo)
        with pytest.raises(ValueError) as got:
            trial_uniforms(master, lo, lo + 2, 3)
        assert str(got.value) == str(expected.value)
