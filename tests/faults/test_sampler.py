"""Tests for fault sampling and mask materialisation."""

import numpy as np
import pytest

from repro.dram import DDR5_X8
from repro.faults import (
    FaultInstance,
    FaultOverlay,
    FaultRates,
    FaultSampler,
    FaultType,
    TransferBurst,
    burst_mask,
    sample_transfer_burst,
)
from repro.faults.sampler import sample_cells
from repro.reliability import wilson_interval

SHAPE = (8, 8192)
CELLS = SHAPE[0] * SHAPE[1]
DATA_BITS = DDR5_X8.data_bits_per_pin_per_row

#: z of every statistical band below: a correct sampler fails one band in
#: about 16,000 runs.
Z = 4.0
#: chi-square quantiles at the same tail mass (upper 6.3e-5), by degrees of
#: freedom: scipy.stats.chi2.isf(6.334e-5, df).
CHI2_CRIT = {7: 31.0, 15: 45.5}


def clean_rates(**overrides):
    base = dict(
        single_cell_ber=0.0, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )
    base.update(overrides)
    return FaultRates(**base)


class TestSampler:
    def test_deterministic_per_seed(self):
        rates = FaultRates(row_faults_per_device=5.0, column_faults_per_device=5.0)
        a = FaultSampler(DDR5_X8, rates, seed=7).sample_faults()
        b = FaultSampler(DDR5_X8, rates, seed=7).sample_faults()
        assert a == b
        c = FaultSampler(DDR5_X8, rates, seed=8).sample_faults()
        assert a != c  # overwhelmingly likely with 10 expected faults

    def test_poisson_counts_track_rates(self):
        rates = clean_rates(column_faults_per_device=3.0)
        counts = [
            len(FaultSampler(DDR5_X8, rates, seed=s).sample_faults())
            for s in range(200)
        ]
        mean = np.mean(counts)
        assert 2.5 < mean < 3.5

    def test_fault_geometries(self):
        rates = FaultRates(
            row_faults_per_device=3.0, column_faults_per_device=3.0,
            pin_faults_per_device=3.0, mat_faults_per_device=3.0,
        )
        faults = [
            f
            for seed in range(5)
            for f in FaultSampler(DDR5_X8, rates, seed=seed).sample_faults()
        ]
        kinds = {f.kind for f in faults}
        assert kinds >= {FaultType.ROW, FaultType.COLUMN, FaultType.PIN_LINE, FaultType.MAT}
        for f in faults:
            if f.kind is FaultType.ROW:
                assert f.pin == -1 and f.row_count == 1
            if f.kind is FaultType.COLUMN:
                assert f.bit_count == 1 and f.row_count == rates.column_rows
            if f.kind is FaultType.PIN_LINE:
                assert f.row_count == DDR5_X8.rows_per_bank
            if f.kind is FaultType.MAT:
                assert f.row_count == rates.mat_rows and f.bit_count == rates.mat_bits


class TestOverlay:
    def test_mask_deterministic(self):
        overlay = FaultOverlay(DDR5_X8, FaultRates(single_cell_ber=1e-3), seed=1)
        m1 = overlay.mask_for_row(0, 10, SHAPE)
        overlay2 = FaultOverlay(DDR5_X8, FaultRates(single_cell_ber=1e-3), seed=1)
        m2 = overlay2.mask_for_row(0, 10, SHAPE)
        assert np.array_equal(m1, m2)

    def test_clean_row_returns_none(self):
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=2, faults=[])
        assert overlay.mask_for_row(0, 0, SHAPE) is None

    def test_single_cell_ber_statistics(self):
        overlay = FaultOverlay(DDR5_X8, clean_rates(single_cell_ber=1e-3), seed=3, faults=[])
        total = 0
        for row in range(20):
            mask = overlay.mask_for_row(0, row, SHAPE)
            total += int(mask.sum()) if mask is not None else 0
        expected = 20 * SHAPE[0] * SHAPE[1] * 1e-3
        assert 0.7 * expected < total < 1.3 * expected

    def test_forced_column_fault_hits_exactly_one_bitline(self):
        fault = FaultInstance(
            FaultType.COLUMN, bank=0, row_start=0, row_count=100,
            pin=3, bit_start=77, bit_count=1, density=1.0,
        )
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=4, faults=[fault])
        mask = overlay.mask_for_row(0, 50, SHAPE)
        assert mask[3, 77] == 1
        assert mask.sum() == 1
        assert overlay.mask_for_row(0, 100, SHAPE) is None  # outside range
        assert overlay.mask_for_row(1, 50, SHAPE) is None  # other bank

    def test_forced_row_fault_spans_all_pins(self):
        fault = FaultInstance(
            FaultType.ROW, bank=2, row_start=9, row_count=1,
            pin=-1, bit_start=0, bit_count=8192, density=0.5,
        )
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=5, faults=[fault])
        mask = overlay.mask_for_row(2, 9, SHAPE)
        per_pin = mask.sum(axis=1)
        assert np.all(per_pin > 3000)  # ~4096 expected per pin

    def test_density_controls_intensity(self):
        fault_lo = FaultInstance(
            FaultType.MAT, bank=0, row_start=0, row_count=1,
            pin=0, bit_start=0, bit_count=1000, density=0.1,
        )
        fault_hi = FaultInstance(
            FaultType.MAT, bank=0, row_start=0, row_count=1,
            pin=0, bit_start=0, bit_count=1000, density=0.9,
        )
        lo = FaultOverlay(DDR5_X8, clean_rates(), seed=6, faults=[fault_lo])
        hi = FaultOverlay(DDR5_X8, clean_rates(), seed=6, faults=[fault_hi])
        assert hi.mask_for_row(0, 0, SHAPE).sum() > lo.mask_for_row(0, 0, SHAPE).sum()

    def test_faults_in_row_lookup(self):
        fault = FaultInstance(
            FaultType.PIN_LINE, bank=1, row_start=0, row_count=DDR5_X8.rows_per_bank,
            pin=2, bit_start=0, bit_count=8192, density=0.5,
        )
        overlay = FaultOverlay(DDR5_X8, clean_rates(), seed=7, faults=[fault])
        assert overlay.faults_in_row(1, 123) == [fault]
        assert overlay.faults_in_row(0, 123) == []


class TestTransferBursts:
    def test_sampling_respects_probability(self):
        rng = np.random.default_rng(0)
        rates = clean_rates(transfer_burst_per_access=1.0, )
        rates = FaultRates(
            single_cell_ber=0, row_faults_per_device=0, column_faults_per_device=0,
            pin_faults_per_device=0, mat_faults_per_device=0,
            transfer_burst_per_access=1.0, transfer_burst_length=8,
        )
        burst = sample_transfer_burst(rng, DDR5_X8, rates)
        assert burst is not None
        assert 0 <= burst.pin < 8
        assert burst.beat_start + burst.length <= 16

    def test_zero_probability_never_samples(self):
        rng = np.random.default_rng(1)
        assert sample_transfer_burst(rng, DDR5_X8, clean_rates()) is None

    def test_burst_mask_geometry(self):
        mask = burst_mask(DDR5_X8, TransferBurst(pin=5, beat_start=4, length=8))
        assert mask.shape == (8, 16)
        assert mask.sum() == 8
        assert mask[5, 4:12].all()


class TestCellClusters:
    def test_clusters_flip_adjacent_pairs(self):
        rates = FaultRates(
            single_cell_ber=0.0, cell_cluster_per_bit=5e-4,
            row_faults_per_device=0, column_faults_per_device=0,
            pin_faults_per_device=0, mat_faults_per_device=0,
        )
        overlay = FaultOverlay(DDR5_X8, rates, seed=8, faults=[])
        mask = overlay.mask_for_row(0, 0, SHAPE)
        assert mask is not None
        # every flipped bit has a flipped along-pin neighbour
        import numpy as np

        pins, offs = np.nonzero(mask)
        for p, o in zip(pins, offs):
            left = o > 0 and mask[p, o - 1]
            right = o < SHAPE[1] - 1 and mask[p, o + 1]
            assert left or right, (p, o)

    def test_cluster_rate_statistics(self):
        rates = FaultRates(
            single_cell_ber=0.0, cell_cluster_per_bit=1e-3,
            row_faults_per_device=0, column_faults_per_device=0,
            pin_faults_per_device=0, mat_faults_per_device=0,
        )
        overlay = FaultOverlay(DDR5_X8, rates, seed=9, faults=[])
        total = sum(
            int(m.sum())
            for m in (overlay.mask_for_row(0, r, SHAPE) for r in range(10))
            if m is not None
        )
        expected = 2 * 10 * SHAPE[0] * SHAPE[1] * 1e-3
        assert 0.7 * expected < total < 1.3 * expected

    def test_only_preserves_cluster_isolation(self):
        rates = FaultRates(cell_cluster_per_bit=1e-3)
        isolated = rates.only(FaultType.SINGLE_CELL)
        assert isolated.cell_cluster_per_bit == 0.0


def weak_cell_counts(ber, rows):
    overlay = FaultOverlay(DDR5_X8, clean_rates(single_cell_ber=ber), seed=10, faults=[])
    masks = (overlay.mask_for_row(0, row, SHAPE) for row in range(rows))
    return np.array([0 if m is None else int(m.sum()) for m in masks])


def chi2_uniform(counts):
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


class TestWeakCellLaw:
    """Weak cells are i.i.d. Bernoulli(ber) per cell, drawn in O(flips)."""

    @pytest.mark.parametrize("ber, rows", [(1e-3, 2000), (1e-5, 20000)])
    def test_count_is_binomial(self, ber, rows):
        counts = weak_cell_counts(ber, rows)
        mean, var = CELLS * ber, CELLS * ber * (1 - ber)
        # normal bands on the sample mean and the sample variance; the
        # variance's standard error uses the binomial fourth central moment
        assert abs(counts.mean() - mean) <= Z * np.sqrt(var / rows)
        mu4 = var * (1 + 3 * (CELLS - 2) * ber * (1 - ber))
        var_se = np.sqrt((mu4 - var**2 * (rows - 3) / (rows - 1)) / rows)
        assert abs(counts.var(ddof=1) - var) <= Z * var_se

    def test_positions_are_uniform(self):
        overlay = FaultOverlay(DDR5_X8, clean_rates(single_cell_ber=1e-3), seed=11, faults=[])
        pins, offsets = [], []
        for row in range(1000):
            p, o = np.nonzero(overlay.mask_for_row(0, row, SHAPE))
            pins.append(p)
            offsets.append(o)
        pins, offsets = np.concatenate(pins), np.concatenate(offsets)
        assert chi2_uniform(np.bincount(pins, minlength=SHAPE[0])) < CHI2_CRIT[7]
        along_pin = np.bincount(offsets * 16 // SHAPE[1], minlength=16)
        assert chi2_uniform(along_pin) < CHI2_CRIT[15]
        lo, hi = wilson_interval(int((offsets >= DATA_BITS).sum()), offsets.size, z=Z)
        assert lo <= 1 - DATA_BITS / SHAPE[1] <= hi

    @pytest.mark.parametrize("p", [1e-3, 1e-2, 0.3])
    def test_positions_never_repeat(self, p):
        """The mask holds exactly the drawn count: no position twice."""
        for seed in range(20):
            k = np.random.default_rng(seed).binomial(CELLS, p)
            mask = sample_cells(np.random.default_rng(seed), SHAPE, p)
            assert (0 if mask is None else int(mask.sum())) == k

    def test_row_stream_is_weak_cells_then_anchors(self):
        """The row key, the draw order (weak cells, then cluster anchors) and
        the cluster rule: each anchor's along-pin neighbour flips, never
        wrapping from one pin's last cell to the next pin's first."""
        rates = clean_rates(single_cell_ber=1e-3, cell_cluster_per_bit=0.3)
        overlay = FaultOverlay(DDR5_X8, rates, seed=12, faults=[])
        wrap_cases = 0
        for row in range(4):
            rng = np.random.default_rng([12, 3, row, 0xCE11])
            weak = sample_cells(rng, SHAPE, 1e-3)
            anchors = sample_cells(rng, SHAPE, 0.3)
            expected = weak | anchors
            expected[:, 1:] |= anchors[:, :-1]
            assert np.array_equal(overlay.mask_for_row(3, row, SHAPE), expected)
            wrap_cases += int((anchors[:-1, -1] & ~expected[1:, 0]).sum())
        assert wrap_cases > 0  # a wrapping cluster rule would have differed
