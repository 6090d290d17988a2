from driftlab.rng import generator, splitmix64, trial_seed

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
    import pytest

    with pytest.raises(ValueError):
        trial_seed(-1, 0)
    with pytest.raises(ValueError):
        trial_seed(2**64, 0)
    with pytest.raises(ValueError):
        trial_seed(0, -1)
