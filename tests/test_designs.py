"""Table II design-descriptor tests."""

import pytest

from repro.secure.designs import (
    ALL_DESIGNS,
    IVEC,
    LOTECC,
    LOTECC_COALESCED,
    NON_SECURE,
    SGX,
    SGX_O,
    SYNERGY,
    CounterMode,
    MacLocation,
    Reliability,
    SecureDesign,
    TreeKind,
    design_by_name,
)


class TestTableII:
    def test_sgx_matches_table(self):
        assert SGX.tree_kind is TreeKind.BONSAI_COUNTER
        assert SGX.counter_mode is CounterMode.MONOLITHIC
        assert not SGX.counters_in_llc
        assert SGX.reliability is Reliability.SECDED

    def test_sgx_o_adds_llc_counters(self):
        assert SGX_O.counters_in_llc
        assert SGX_O.reliability is Reliability.SECDED

    def test_synergy_matches_table(self):
        assert SYNERGY.mac_location is MacLocation.ECC_CHIP
        assert SYNERGY.counters_in_llc
        assert SYNERGY.reliability is Reliability.SYNERGY_PARITY
        assert SYNERGY.parity_write_on_data_write

    def test_ivec_matches_table(self):
        assert IVEC.tree_kind is TreeKind.MAC_TREE
        assert IVEC.counter_mode is CounterMode.SPLIT
        assert not IVEC.counters_in_llc
        # MACs live in the LLC (pollution) but are re-fetched per use —
        # see the modelling note on the IVEC descriptor.
        assert IVEC.macs_in_llc
        assert IVEC.serial_tree_verification

    def test_non_secure_has_no_metadata(self):
        assert not NON_SECURE.encrypted
        assert NON_SECURE.mac_location is MacLocation.NONE
        assert NON_SECURE.tree_kind is TreeKind.NONE

    def test_lotecc_variants(self):
        assert LOTECC.lotecc_parity_rmw and not LOTECC.lotecc_write_coalescing
        assert LOTECC_COALESCED.lotecc_write_coalescing

    def test_lookup(self):
        assert design_by_name("Synergy") is SYNERGY
        with pytest.raises(KeyError):
            design_by_name("bogus")

    def test_unique_names(self):
        names = [design.name for design in ALL_DESIGNS]
        assert len(names) == len(set(names))


class TestValidation:
    def test_encrypted_requires_tree(self):
        with pytest.raises(ValueError):
            SecureDesign(
                name="bad",
                encrypted=True,
                mac_location=MacLocation.SEPARATE,
                counters_in_llc=False,
                macs_in_llc=False,
                tree_kind=TreeKind.NONE,
                counter_mode=CounterMode.MONOLITHIC,
                reliability=Reliability.SECDED,
            )

    def test_mac_requires_encryption(self):
        with pytest.raises(ValueError):
            SecureDesign(
                name="bad",
                encrypted=False,
                mac_location=MacLocation.SEPARATE,
                counters_in_llc=False,
                macs_in_llc=False,
                tree_kind=TreeKind.NONE,
                counter_mode=CounterMode.MONOLITHIC,
                reliability=Reliability.SECDED,
            )
