"""Tests for deterministic RNG infrastructure."""

import pytest

from repro.util.rng import DeterministicRng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)

    def test_distinct_components(self):
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("a", 1) != derive_seed("b", 1)

    def test_order_matters(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_64_bit_range(self):
        seed = derive_seed("anything")
        assert 0 <= seed < 2**64


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_fork_independence(self):
        root = DeterministicRng(42)
        child1 = root.fork("x")
        child2 = root.fork("y")
        assert child1.seed != child2.seed

    def test_fork_deterministic(self):
        assert DeterministicRng(1).fork("a").seed == DeterministicRng(1).fork("a").seed

    def test_uniform_bounds(self):
        rng = DeterministicRng(7)
        for _ in range(200):
            value = rng.uniform(2.0, 3.0)
            assert 2.0 <= value < 3.0

    def test_randint_bounds(self):
        rng = DeterministicRng(7)
        values = {rng.randint(1, 4) for _ in range(200)}
        assert values == {1, 2, 3, 4}

    def test_randbytes_length(self):
        rng = DeterministicRng(7)
        assert len(rng.randbytes(13)) == 13
        assert rng.randbytes(0) == b""

    def test_randbits_width(self):
        rng = DeterministicRng(7)
        for _ in range(50):
            assert 0 <= rng.randbits(12) < 4096

    def test_poisson_zero_mean(self):
        assert DeterministicRng(1).poisson(0.0) == 0

    def test_poisson_negative_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).poisson(-1.0)

    def test_poisson_small_mean_statistics(self):
        rng = DeterministicRng(3)
        samples = [rng.poisson(2.0) for _ in range(5000)]
        mean = sum(samples) / len(samples)
        assert 1.85 < mean < 2.15

    def test_poisson_large_mean_statistics(self):
        rng = DeterministicRng(3)
        samples = [rng.poisson(100.0) for _ in range(2000)]
        mean = sum(samples) / len(samples)
        assert 97 < mean < 103

    def test_weighted_choice_respects_weights(self):
        rng = DeterministicRng(5)
        picks = [rng.weighted_choice(["a", "b"], [0.99, 0.01]) for _ in range(500)]
        assert picks.count("a") > 400

    def test_expovariate_positive(self):
        rng = DeterministicRng(9)
        for _ in range(100):
            assert rng.expovariate(0.5) >= 0.0

    def test_shuffle_permutes(self):
        rng = DeterministicRng(11)
        items = list(range(20))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_sample_distinct(self):
        rng = DeterministicRng(13)
        sample = rng.sample(range(100), 10)
        assert len(set(sample)) == 10

    def test_word_stream_continues_the_raw_words(self):
        rng = DeterministicRng(15)
        rng.randint(0, 1000)
        # 700 words cross a 624-word twist of the key block.
        words = rng.word_stream().random_raw(700).tolist()
        assert words == [rng.randbits(32) for _ in range(700)]
