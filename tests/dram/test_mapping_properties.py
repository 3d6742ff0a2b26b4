"""Property-based tests for the codeword-geometry layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import BeatAlignedLayout, DDR5_X4, DDR5_X8, DDR5_X16, PinAlignedLayout

DEVICES = {d.name: d for d in (DDR5_X4, DDR5_X8, DDR5_X16)}


def fresh_row(device):
    total = device.data_bits_per_pin_per_row + device.spare_bits_per_pin_per_row
    return np.zeros((device.pins, total), dtype=np.uint8)


class TestLayoutProperties:
    @given(
        device=st.sampled_from(sorted(DEVICES)),
        cw_seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_pin_gather_scatter_roundtrip(self, device, cw_seed):
        dev = DEVICES[device]
        layout = PinAlignedLayout(dev)
        rng = np.random.default_rng(cw_seed)
        cw = int(rng.integers(layout.num_codewords))
        row = fresh_row(dev)
        symbols = rng.integers(0, 256, layout.n)
        layout.scatter(row, cw, symbols)
        assert np.array_equal(layout.gather(row, cw), symbols)

    @given(
        device=st.sampled_from(sorted(DEVICES)),
        seed=st.integers(0, 2**31 - 1),
        density=st.sampled_from([1e-3, 0.1, 0.5]),
    )
    @settings(max_examples=30, deadline=None)
    def test_byte_gather_matches_bit_gather(self, device, seed, density):
        """The packed-byte gather equals the bit-by-bit reference."""
        dev = DEVICES[device]
        layout = PinAlignedLayout(dev)
        rng = np.random.default_rng(seed)
        row = (rng.random(fresh_row(dev).shape) < density).astype(np.uint8)
        cws = rng.choice(layout.num_codewords, size=int(rng.integers(1, 9)), replace=False)
        expected = layout.gather_bits(row, cws)
        assert np.array_equal(layout.gather_many(row, cws), expected)
        assert np.array_equal(layout.gather(row, int(cws[0])), expected[0])

    @given(
        device=st.sampled_from(sorted(DEVICES)),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_scatter_touches_only_its_codeword(self, device, seed):
        """Scatter writes the codeword's own cells and nothing else."""
        dev = DEVICES[device]
        layout = PinAlignedLayout(dev)
        rng = np.random.default_rng(seed)
        row = rng.integers(0, 2, fresh_row(dev).shape, dtype=np.uint8)
        before = row.copy()
        cw = int(rng.integers(layout.num_codewords))
        symbols = rng.integers(0, 256, layout.n)
        layout.scatter(row, cw, symbols)
        assert np.array_equal(layout.gather_bits(row, [cw])[0], symbols)
        row[layout._pin_index[cw], layout._bit_index[cw]] = before[
            layout._pin_index[cw], layout._bit_index[cw]]
        assert np.array_equal(row, before)

    def test_pin_layout_symbols_are_bytes(self):
        with pytest.raises(ValueError, match="bytes"):
            PinAlignedLayout(DDR5_X8, data_symbols=480, parity_symbols=32, symbol_bits=4)

    def test_scatter_rejects_a_strided_row(self):
        layout = PinAlignedLayout(DDR5_X8)
        row = np.zeros((DDR5_X8.pins, 2 * 8192), dtype=np.uint8)[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            layout.scatter(row, 0, np.zeros(layout.n, dtype=np.int64))

    @given(
        device=st.sampled_from(sorted(DEVICES)),
        col_seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_access_covered_by_codewords(self, device, col_seed):
        """Any column access's data bits belong to the reported codewords."""
        dev = DEVICES[device]
        layout = PinAlignedLayout(dev)
        rng = np.random.default_rng(col_seed)
        col = int(rng.integers(dev.columns_per_row))
        row = fresh_row(dev)
        bl = dev.burst_length
        row[:, col * bl : (col + 1) * bl] = 1
        touched = sum(
            int(np.count_nonzero(layout.gather(row, cw)))
            for cw in layout.codewords_of_access(col)
        )
        # every set bit is inside exactly the reported codewords
        total_set_symbols = touched
        assert total_set_symbols == dev.pins * (bl // 8)

    @given(col=st.integers(0, 479))
    @settings(max_examples=40, deadline=None)
    def test_data_symbol_range_is_consistent(self, col):
        layout = PinAlignedLayout(DDR5_X8)
        for cw in layout.codewords_of_access(col):
            lo, hi = layout.data_symbol_range_of_access(cw, col)
            assert 0 <= lo < hi <= layout.k
            assert (hi - lo) * layout.symbol_bits == DDR5_X8.burst_length

    @given(col=st.integers(0, 479))
    @settings(max_examples=40, deadline=None)
    def test_beat_layout_range_is_consistent(self, col):
        layout = BeatAlignedLayout(DDR5_X8)
        (cw,) = layout.codewords_of_access(col)
        lo, hi = layout.data_symbol_range_of_access(cw, col)
        assert 0 <= lo < hi <= layout.k
        assert (hi - lo) * layout.symbol_bits == DDR5_X8.access_data_bits

    @pytest.mark.parametrize("device", list(DEVICES.values()), ids=lambda d: d.name)
    def test_layouts_partition_the_row(self, device):
        """Every data bit of a row belongs to exactly one codeword."""
        layout = PinAlignedLayout(device)
        row = fresh_row(device)
        for cw in range(layout.num_codewords):
            layout.scatter(row, cw, np.full(layout.n, 255, dtype=np.int64))
        # all data and used-parity bits are now set exactly once
        data_region = row[:, : device.data_bits_per_pin_per_row]
        assert data_region.all()
