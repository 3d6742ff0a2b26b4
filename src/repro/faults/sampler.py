"""Sampling fault instances and materialising per-row error masks.

A :class:`FaultSampler` draws the persistent fault population of one device
from :class:`~repro.faults.rates.FaultRates`; the resulting
:class:`FaultOverlay` plugs into :class:`repro.dram.device.DramDevice` and
produces deterministic, reproducible flip masks per row.

Determinism matters: masks are derived from ``(seed, bank, row)`` substreams,
so reading the same row twice sees the same weak cells (inherent faults are
persistent), and two schemes evaluated against the same seed see the same
fault universe - the comparisons in the paper are paired.

Weak cells and cluster anchors are i.i.d. Bernoulli per cell, but at field
error rates a row holds well under one flip, so they are drawn in O(flips)
rather than one uniform per cell: a Binomial count, then a uniform subset of
that many distinct cells (:func:`sample_cells`), which has the same law.
Structured faults have footprint densities of 0.3-0.5 and keep a dense
per-bit draw.
"""

from __future__ import annotations

import numpy as np

from ..dram.config import DeviceConfig
from .rates import FaultRates
from .types import FaultInstance, FaultType, TransferBurst


class FaultSampler:
    """Draws the structured-fault population of a device."""

    def __init__(self, config: DeviceConfig, rates: FaultRates, seed: int = 0):
        self.config = config
        self.rates = rates
        self.seed = seed

    def sample_faults(self) -> list[FaultInstance]:
        """Poisson-sample all persistent structured faults of the device."""
        rng = np.random.default_rng([self.seed, 0xFA017])
        faults: list[FaultInstance] = []
        faults += self._sample_rows(rng)
        faults += self._sample_columns(rng)
        faults += self._sample_pins(rng)
        faults += self._sample_mats(rng)
        return faults

    def _total_bits_per_pin(self) -> int:
        cfg = self.config
        return cfg.data_bits_per_pin_per_row + cfg.spare_bits_per_pin_per_row

    def _sample_rows(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.row_faults_per_device)
        return [
            FaultInstance(
                kind=FaultType.ROW,
                bank=int(rng.integers(cfg.banks)),
                row_start=int(rng.integers(cfg.rows_per_bank)),
                row_count=1,
                pin=-1,
                bit_start=0,
                bit_count=self._total_bits_per_pin(),
                density=rates.row_density,
            )
            for _ in range(count)
        ]

    def _sample_columns(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.column_faults_per_device)
        total_bits = self._total_bits_per_pin()
        out = []
        for _ in range(count):
            span = min(rates.column_rows, cfg.rows_per_bank)
            start = int(rng.integers(cfg.rows_per_bank - span + 1))
            out.append(
                FaultInstance(
                    kind=FaultType.COLUMN,
                    bank=int(rng.integers(cfg.banks)),
                    row_start=start,
                    row_count=span,
                    pin=int(rng.integers(cfg.pins)),
                    bit_start=int(rng.integers(total_bits)),
                    bit_count=1,
                    density=rates.column_density,
                )
            )
        return out

    def _sample_pins(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.pin_faults_per_device)
        return [
            FaultInstance(
                kind=FaultType.PIN_LINE,
                bank=int(rng.integers(cfg.banks)),
                row_start=0,
                row_count=cfg.rows_per_bank,
                pin=int(rng.integers(cfg.pins)),
                bit_start=0,
                bit_count=self._total_bits_per_pin(),
                density=rates.pin_density,
            )
            for _ in range(count)
        ]

    def _sample_mats(self, rng: np.random.Generator) -> list[FaultInstance]:
        cfg, rates = self.config, self.rates
        count = rng.poisson(rates.mat_faults_per_device)
        total_bits = self._total_bits_per_pin()
        out = []
        for _ in range(count):
            rows = min(rates.mat_rows, cfg.rows_per_bank)
            bits = min(rates.mat_bits, total_bits)
            out.append(
                FaultInstance(
                    kind=FaultType.MAT,
                    bank=int(rng.integers(cfg.banks)),
                    row_start=int(rng.integers(cfg.rows_per_bank - rows + 1)),
                    row_count=rows,
                    pin=int(rng.integers(cfg.pins)),
                    bit_start=int(rng.integers(total_bits - bits + 1)),
                    bit_count=bits,
                    density=rates.mat_density,
                )
            )
        return out


def sample_cells(
    rng: np.random.Generator, shape: tuple[int, int], p: float
) -> np.ndarray | None:
    """Each cell of ``shape`` independently with probability ``p``, as a mask.

    Draws the count ``k ~ Binomial(cells, p)`` and then a uniform ``k``-subset
    of distinct flat positions - exactly the law of ``rng.random(shape) < p``
    at a cost of O(k) rather than O(cells).  Returns a ``uint8`` mask, or
    None when no cell was drawn.
    """
    cells = shape[0] * shape[1]
    k = int(rng.binomial(cells, p))
    if k == 0:
        return None
    mask = np.zeros(cells, dtype=np.uint8)
    mask[rng.choice(cells, size=k, replace=False, shuffle=False)] = 1
    return mask.reshape(shape)


class FaultOverlay:
    """Materialises deterministic flip masks per row.

    Combines the i.i.d. single-cell process with every structured fault whose
    footprint intersects the row.  Each row's weak cells, then its cluster
    anchors, come from one generator keyed ``(seed, bank, row, 0xCE11)``;
    each structured fault in the row has its own key.  These keys make the
    fault universe persistent and shared by every scheme run on one seed.
    Masks are cached (bounded) because schemes repeatedly read the same hot
    rows.
    """

    def __init__(
        self,
        config: DeviceConfig,
        rates: FaultRates,
        seed: int = 0,
        faults: list[FaultInstance] | None = None,
        cache_rows: int = 4096,
    ):
        self.config = config
        self.rates = rates
        self.seed = seed
        self.faults = (
            faults
            if faults is not None
            else FaultSampler(config, rates, seed).sample_faults()
        )
        self._cache: dict[tuple[int, int], np.ndarray | None] = {}
        self._cache_rows = cache_rows
        # Index structured faults by bank for fast row lookups.
        self._by_bank: dict[int, list[FaultInstance]] = {}
        for fault in self.faults:
            self._by_bank.setdefault(fault.bank, []).append(fault)

    def faults_in_row(self, bank: int, row: int) -> list[FaultInstance]:
        return [f for f in self._by_bank.get(bank, ()) if f.affects_row(bank, row)]

    def mask_for_row(
        self, bank: int, row: int, shape: tuple[int, int]
    ) -> np.ndarray | None:
        key = (bank, row)
        if key in self._cache:
            return self._cache[key]
        mask = self._build_mask(bank, row, shape)
        if len(self._cache) >= self._cache_rows:
            self._cache.clear()
        self._cache[key] = mask
        return mask

    def _build_mask(
        self, bank: int, row: int, shape: tuple[int, int]
    ) -> np.ndarray | None:
        rng = np.random.default_rng([self.seed, bank, row, 0xCE11])
        mask: np.ndarray | None = None
        ber = self.rates.single_cell_ber
        if ber > 0:
            mask = sample_cells(rng, shape, ber)
        cluster = self.rates.cell_cluster_per_bit
        if cluster > 0:
            anchors = sample_cells(rng, shape, cluster)
            if anchors is not None:
                # the along-pin neighbour flips too (clusters never wrap)
                anchors[:, 1:] |= anchors[:, :-1].copy()
                mask = anchors if mask is None else (mask | anchors)
        for index, fault in enumerate(self.faults):
            if not fault.affects_row(bank, row):
                continue
            frng = np.random.default_rng([self.seed, bank, row, 0xFA1137 + index])
            fmask = self._fault_row_mask(fault, frng, shape)
            if fmask is not None:
                mask = fmask if mask is None else (mask ^ fmask)
        return mask

    def _fault_row_mask(
        self, fault: FaultInstance, rng: np.random.Generator, shape: tuple[int, int]
    ) -> np.ndarray | None:
        pins, total_bits = shape
        mask = np.zeros(shape, dtype=np.uint8)
        bit_end = min(fault.bit_start + fault.bit_count, total_bits)
        width = bit_end - fault.bit_start
        if width <= 0:
            return None
        if fault.pin < 0:
            flips = rng.random((pins, width)) < fault.density
            mask[:, fault.bit_start : bit_end] = flips
        else:
            flips = rng.random(width) < fault.density
            mask[fault.pin, fault.bit_start : bit_end] = flips
        return mask if mask.any() else None


def sample_transfer_burst(
    rng: np.random.Generator, config: DeviceConfig, rates: FaultRates
) -> TransferBurst | None:
    """Draw the (rare) transient burst event for one access."""
    if rates.transfer_burst_per_access <= 0:
        return None
    if rng.random() >= rates.transfer_burst_per_access:
        return None
    length = min(rates.transfer_burst_length, config.burst_length)
    start = int(rng.integers(config.burst_length - length + 1))
    return TransferBurst(
        pin=int(rng.integers(config.pins)), beat_start=start, length=length
    )


def burst_mask(config: DeviceConfig, burst: TransferBurst) -> np.ndarray:
    """Flip mask of one access, shape ``(pins, burst_length)``."""
    mask = np.zeros((config.pins, config.burst_length), dtype=np.uint8)
    mask[burst.pin, burst.beat_start : burst.beat_start + burst.length] = 1
    return mask
