"""Tests for the functional DRAM device model."""

import numpy as np
import pytest

from repro.dram import DDR5_X8, DramDevice
from repro.faults import FaultOverlay, FaultRates


class TestStorage:
    def test_rows_allocated_lazily(self):
        dev = DramDevice(DDR5_X8)
        assert dev.touched_rows == 0
        dev.row_view(0, 0)
        assert dev.touched_rows == 1

    def test_reads_do_not_allocate(self):
        overlay = FaultOverlay(DDR5_X8, FaultRates(single_cell_ber=1e-3), seed=1)
        dev = DramDevice(DDR5_X8, fault_overlay=overlay)
        dev.read_access(0, 3, 5)
        dev.row_with_faults(1, 4)
        assert dev.touched_rows == 0

    def test_row_view_is_mutable_persistent(self):
        dev = DramDevice(DDR5_X8)
        dev.row_view(1, 2)[3, 4] = 1
        assert dev.row_view(1, 2)[3, 4] == 1

    def test_bounds_checks(self):
        dev = DramDevice(DDR5_X8)
        with pytest.raises(ValueError):
            dev.row_view(DDR5_X8.banks, 0)
        with pytest.raises(ValueError):
            dev.row_view(0, DDR5_X8.rows_per_bank)
        with pytest.raises(ValueError):
            dev.read_access(0, 0, DDR5_X8.columns_per_row)

    def test_access_roundtrip(self):
        rng = np.random.default_rng(0)
        dev = DramDevice(DDR5_X8)
        bits = rng.integers(0, 2, (8, 16)).astype(np.uint8)
        dev.write_access(0, 7, 33, bits)
        assert np.array_equal(dev.read_access(0, 7, 33), bits)

    def test_write_access_shape_validation(self):
        dev = DramDevice(DDR5_X8)
        with pytest.raises(ValueError):
            dev.write_access(0, 0, 0, np.zeros((8, 15), dtype=np.uint8))


class TestFaultOverlay:
    def test_clean_overlay_changes_nothing(self):
        rates = FaultRates(
            single_cell_ber=0.0, row_faults_per_device=0, column_faults_per_device=0,
            pin_faults_per_device=0, mat_faults_per_device=0,
        )
        dev = DramDevice(DDR5_X8, FaultOverlay(DDR5_X8, rates, seed=1))
        assert not dev.row_with_faults(0, 0).any()

    def test_weak_cells_flip_reads_not_storage(self):
        rates = FaultRates(
            single_cell_ber=0.01, row_faults_per_device=0, column_faults_per_device=0,
            pin_faults_per_device=0, mat_faults_per_device=0,
        )
        dev = DramDevice(DDR5_X8, FaultOverlay(DDR5_X8, rates, seed=2))
        faulty = dev.row_with_faults(0, 5)
        assert faulty.any()  # 65536 bits at 1% BER
        assert not dev.row_view(0, 5).any()  # pristine storage untouched

    def test_faults_are_persistent(self):
        rates = FaultRates(single_cell_ber=0.01)
        dev = DramDevice(DDR5_X8, FaultOverlay(DDR5_X8, rates, seed=3))
        first = dev.row_with_faults(2, 9)
        second = dev.row_with_faults(2, 9)
        assert np.array_equal(first, second)

    def test_faults_xor_with_data(self):
        rng = np.random.default_rng(4)
        rates = FaultRates(single_cell_ber=0.02)
        overlay = FaultOverlay(DDR5_X8, rates, seed=5)
        dev = DramDevice(DDR5_X8, overlay)
        data = rng.integers(0, 2, (8, 16)).astype(np.uint8)
        dev.write_access(0, 1, 0, data)
        mask = overlay.mask_for_row(0, 1, dev.row_with_faults(0, 1).shape)
        window = mask[:, 0:16]
        assert np.array_equal(dev.read_access(0, 1, 0), data ^ window)
