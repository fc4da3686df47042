"""Reed-Solomon codec tests: roundtrips, errors, erasures, capacity limits."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.reed_solomon import ReedSolomon, RsDecodeError


class TestConstruction:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            ReedSolomon(10, 10)
        with pytest.raises(ValueError):
            ReedSolomon(10, 0)
        with pytest.raises(ValueError):
            ReedSolomon(256, 10)

    def test_codeword_length(self):
        rs = ReedSolomon(18, 16)
        assert len(rs.encode([0] * 16)) == 18


class TestEncoding:
    def test_wrong_data_length(self):
        with pytest.raises(ValueError):
            ReedSolomon(18, 16).encode([0] * 15)

    def test_non_byte_symbols(self):
        with pytest.raises(ValueError):
            ReedSolomon(18, 16).encode([300] + [0] * 15)

    def test_systematic(self):
        rs = ReedSolomon(18, 16)
        data = list(range(16))
        assert rs.encode(data)[:16] == data

    def test_codeword_has_zero_syndromes(self):
        rs = ReedSolomon(20, 16)
        codeword = rs.encode(list(range(16)))
        assert all(s == 0 for s in rs.syndromes(codeword))

    def test_linearity(self):
        rs = ReedSolomon(18, 16)
        a = [random.Random(0).randrange(256) for _ in range(16)]
        b = [random.Random(1).randrange(256) for _ in range(16)]
        summed = [x ^ y for x, y in zip(a, b)]
        expected = [x ^ y for x, y in zip(rs.encode(a), rs.encode(b))]
        assert rs.encode(summed) == expected


class TestDecoding:
    def test_clean_decode(self):
        rs = ReedSolomon(18, 16)
        codeword = rs.encode(list(range(16)))
        result = rs.decode(codeword)
        assert result.codeword == codeword
        assert result.error_positions == []

    def test_single_error_all_positions(self):
        rs = ReedSolomon(18, 16)
        codeword = rs.encode(list(range(16)))
        for position in range(18):
            corrupted = list(codeword)
            corrupted[position] ^= 0x5A
            result = rs.decode(corrupted)
            assert result.codeword == codeword
            assert result.error_positions == [position]

    def test_double_error_rejected_with_two_checks(self):
        rs = ReedSolomon(18, 16)
        codeword = rs.encode(list(range(16)))
        rng = random.Random(9)
        rejected = 0
        for _ in range(100):
            first, second = rng.sample(range(18), 2)
            corrupted = list(codeword)
            corrupted[first] ^= rng.randrange(1, 256)
            corrupted[second] ^= rng.randrange(1, 256)
            try:
                result = rs.decode(corrupted)
                # A double error beyond min distance may alias to a valid
                # different codeword; it must never silently "fix" to ours
                # while reporting success with wrong content.
                assert all(s == 0 for s in rs.syndromes(result.codeword))
            except RsDecodeError:
                rejected += 1
        assert rejected > 50  # most double errors must be detected

    def test_two_errors_with_four_checks(self):
        rs = ReedSolomon(20, 16)
        codeword = rs.encode(list(range(16)))
        rng = random.Random(3)
        for _ in range(50):
            corrupted = list(codeword)
            for position in rng.sample(range(20), 2):
                corrupted[position] ^= rng.randrange(1, 256)
            assert rs.decode(corrupted).codeword == codeword

    def test_erasure_capacity(self):
        # d = 5 corrects up to 4 erasures with no errors.
        rs = ReedSolomon(20, 16)
        codeword = rs.encode(list(range(16)))
        rng = random.Random(4)
        for _ in range(30):
            positions = rng.sample(range(20), 4)
            corrupted = list(codeword)
            for position in positions:
                corrupted[position] ^= rng.randrange(1, 256)
            assert rs.decode(corrupted, erasures=positions).codeword == codeword

    def test_mixed_errors_and_erasures(self):
        # 2e + f <= 4: one error + two erasures.
        rs = ReedSolomon(20, 16)
        codeword = rs.encode(list(range(16)))
        rng = random.Random(6)
        for _ in range(30):
            positions = rng.sample(range(20), 3)
            erasures, error = positions[:2], positions[2]
            corrupted = list(codeword)
            for position in positions:
                corrupted[position] ^= rng.randrange(1, 256)
            assert rs.decode(corrupted, erasures=erasures).codeword == codeword

    def test_too_many_erasures_rejected(self):
        rs = ReedSolomon(18, 16)
        codeword = rs.encode(list(range(16)))
        with pytest.raises(RsDecodeError):
            rs.decode(codeword, erasures=[0, 1, 2])

    def test_erasure_position_validated(self):
        rs = ReedSolomon(18, 16)
        codeword = rs.encode(list(range(16)))
        corrupted = list(codeword)
        corrupted[0] ^= 1
        with pytest.raises(ValueError):
            rs.decode(corrupted, erasures=[99])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            ReedSolomon(18, 16).decode([0] * 17)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 255), min_size=16, max_size=16),
        st.integers(min_value=0, max_value=17),
        st.integers(min_value=1, max_value=255),
    )
    def test_single_error_property(self, data, position, magnitude):
        rs = ReedSolomon(18, 16)
        codeword = rs.encode(data)
        corrupted = list(codeword)
        corrupted[position] ^= magnitude
        assert rs.decode(corrupted).codeword == codeword
