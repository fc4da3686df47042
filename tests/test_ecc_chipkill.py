"""Chipkill (18-chip symbol ECC) tests."""

import random

import pytest

from reference.chipkill import (
    BEATS,
    DATA_CHIPS,
    TOTAL_CHIPS,
    ChipkillCode,
    ChipkillDecodeError,
)


@pytest.fixture(scope="module")
def code():
    return ChipkillCode()


@pytest.fixture
def payload():
    return bytes(random.Random(2).randrange(256) for _ in range(128))


class TestEncode:
    def test_lane_shape(self, code, payload):
        lanes = code.encode(payload)
        assert len(lanes) == TOTAL_CHIPS
        assert all(len(lane) == BEATS for lane in lanes)

    def test_wrong_payload_size(self, code):
        with pytest.raises(ValueError):
            code.encode(b"short")

    def test_systematic_data_lanes(self, code, payload):
        lanes = code.encode(payload)
        for beat in range(BEATS):
            for chip in range(DATA_CHIPS):
                assert lanes[chip][beat] == payload[beat * DATA_CHIPS + chip]


class TestDecode:
    def test_clean(self, code, payload):
        assert code.decode(code.encode(payload)).data == payload

    def test_lane_count_checked(self, code):
        with pytest.raises(ValueError):
            code.decode([b"\x00" * 8] * 17)

    def test_lane_length_checked(self, code, payload):
        lanes = code.encode(payload)
        lanes[0] = b"\x00" * 7
        with pytest.raises(ValueError):
            code.decode(lanes)

    def test_every_single_chip_failure_corrected(self, code, payload):
        rng = random.Random(7)
        clean = code.encode(payload)
        for chip in range(TOTAL_CHIPS):
            lanes = list(clean)
            lanes[chip] = bytes(rng.randrange(256) for _ in range(BEATS))
            result = code.decode(lanes)
            assert result.data == payload
            assert set(result.corrected_chips) <= {chip}

    def test_single_bit_in_one_chip(self, code, payload):
        lanes = list(code.encode(payload))
        corrupted = bytearray(lanes[4])
        corrupted[3] ^= 0x10
        lanes[4] = bytes(corrupted)
        result = code.decode(lanes)
        assert result.data == payload
        assert result.corrected_chips == [4]

    def test_two_chip_failure_detected(self, code, payload):
        lanes = list(code.encode(payload))
        lanes[3] = bytes(b ^ 0xFF for b in lanes[3])
        lanes[9] = bytes(b ^ 0xAA for b in lanes[9])
        with pytest.raises(ChipkillDecodeError):
            code.decode(lanes)

    def test_erasure_decode_known_chip(self, code, payload):
        lanes = list(code.encode(payload))
        lanes[6] = bytes(8)
        result = code.decode_with_erasure(lanes, 6)
        assert result.data == payload
        assert result.corrected_chips == [6]

    def test_erasure_none_falls_back(self, code, payload):
        assert code.decode_with_erasure(code.encode(payload), None).data == payload

    def test_erasure_bad_chip_index(self, code, payload):
        with pytest.raises(ValueError):
            code.decode_with_erasure(code.encode(payload), 18)

    def test_erasure_plus_second_chip_uncorrectable(self, code, payload):
        lanes = list(code.encode(payload))
        lanes[6] = bytes(8)
        lanes[2] = bytes(b ^ 0x55 for b in lanes[2])
        with pytest.raises(ChipkillDecodeError):
            code.decode_with_erasure(lanes, 6)
