"""Tests for Hamming SEC and Hsiao SEC-DED codes."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import DecodeStatus, HammingSEC, HsiaoSECDED
from repro.codes.hamming import STATUSES
from repro.galois import linalg2

CODES = {"sec": HammingSEC(136, 128), "secded": HsiaoSECDED(72, 64)}


class TestHammingSEC:
    def test_ddr5_dimensions(self):
        code = HammingSEC(136, 128)
        assert code.r == 8
        assert code.d_min == 3
        assert code.overhead == pytest.approx(0.0625)

    def test_rejects_beyond_bound(self):
        # Deliberately beyond the SEC bound (needs n <= 2^8 - 1): asserting
        # the runtime guard the static REPRO122 rule mirrors.
        with pytest.raises(ValueError):
            HammingSEC(256, 248)  # repro: noqa-REPRO122

    def test_parity_check_annihilates_codewords(self):
        rng = np.random.default_rng(0)
        code = HammingSEC(136, 128)
        for _ in range(10):
            cw = code.encode(rng.integers(0, 2, 128))
            assert not linalg2.matvec(code.H, cw).any()

    def test_columns_distinct_nonzero(self):
        code = HammingSEC(136, 128)
        cols = [tuple(code.H[:, i]) for i in range(code.n)]
        assert len(set(cols)) == code.n
        assert all(any(c) for c in cols)

    def test_corrects_every_single_bit_error(self):
        rng = np.random.default_rng(1)
        code = HammingSEC(136, 128)
        data = rng.integers(0, 2, 128)
        cw = code.encode(data)
        for pos in range(136):
            word = cw.copy()
            word[pos] ^= 1
            result = code.decode(word)
            assert result.status is DecodeStatus.CORRECTED
            assert result.corrected_positions == (pos,)
            assert np.array_equal(result.data, data)

    def test_double_errors_miscorrect_or_detect(self):
        rng = np.random.default_rng(2)
        code = HammingSEC(136, 128)
        data = rng.integers(0, 2, 128)
        cw = code.encode(data)
        mis = det = 0
        for _ in range(300):
            word = cw.copy()
            for p in rng.choice(136, 2, replace=False):
                word[p] ^= 1
            result = code.decode(word)
            if result.status is DecodeStatus.DETECTED:
                det += 1
            else:
                assert result.status is DecodeStatus.CORRECTED
                assert not np.array_equal(result.data, data)  # always wrong
                mis += 1
        # measured miscorrection fraction is ~0.88 for this code
        assert mis > det

    def test_miscorrection_fraction_consistent(self):
        code = HammingSEC(136, 128)
        frac = code.miscorrection_fraction()
        assert 0.8 < frac < 0.95
        # spot-check against direct simulation
        rng = np.random.default_rng(3)
        cw = code.encode(np.zeros(128, dtype=np.uint8))
        mis = 0
        trials = 400
        for _ in range(trials):
            word = cw.copy()
            for p in rng.choice(136, 2, replace=False):
                word[p] ^= 1
            if code.decode(word).status is DecodeStatus.CORRECTED:
                mis += 1
        assert abs(mis / trials - frac) < 0.08

    def test_clean_word(self):
        code = HammingSEC(136, 128)
        data = np.ones(128, dtype=np.uint8)
        result = code.decode(code.encode(data))
        assert result.status is DecodeStatus.OK
        assert np.array_equal(result.data, data)

    def test_shape_validation(self):
        code = HammingSEC(136, 128)
        with pytest.raises(ValueError):
            code.encode(np.zeros(127, dtype=np.uint8))
        with pytest.raises(ValueError):
            code.decode(np.zeros(135, dtype=np.uint8))


class TestHsiaoSECDED:
    def test_classic_dimensions(self):
        code = HsiaoSECDED(72, 64)
        assert code.r == 8
        assert code.d_min == 4

    def test_all_columns_odd_weight(self):
        code = HsiaoSECDED(72, 64)
        weights = code.H.sum(axis=0)
        assert np.all(weights % 2 == 1)

    def test_corrects_every_single_bit_error(self):
        rng = np.random.default_rng(4)
        code = HsiaoSECDED(72, 64)
        data = rng.integers(0, 2, 64)
        cw = code.encode(data)
        for pos in range(72):
            word = cw.copy()
            word[pos] ^= 1
            result = code.decode(word)
            assert result.status is DecodeStatus.CORRECTED
            assert np.array_equal(result.data, data)

    def test_detects_every_double_bit_error(self):
        """SEC-DED guarantee: exhaustive over all C(72,2) doubles."""
        code = HsiaoSECDED(72, 64)
        cw = code.encode(np.zeros(64, dtype=np.uint8))
        for a, b in itertools.combinations(range(72), 2):
            word = cw.copy()
            word[a] ^= 1
            word[b] ^= 1
            assert code.decode(word).status is DecodeStatus.DETECTED, (a, b)

    def test_triples_usually_miscorrect(self):
        """Weight-3 errors have odd syndromes: they evade the DED check."""
        rng = np.random.default_rng(5)
        code = HsiaoSECDED(72, 64)
        cw = code.encode(np.zeros(64, dtype=np.uint8))
        outcomes = {"mis": 0, "det": 0}
        for _ in range(200):
            word = cw.copy()
            for p in rng.choice(72, 3, replace=False):
                word[p] ^= 1
            result = code.decode(word)
            if result.status is DecodeStatus.CORRECTED:
                outcomes["mis"] += 1
            else:
                outcomes["det"] += 1
        assert outcomes["mis"] > 0  # the SDC path the XED/rank models measure


class TestArrayDecode:
    """decode_array, decode_batch and decode are one decoder seen three ways."""

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        name=st.sampled_from(sorted(CODES)),
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.005, 0.02, 0.1, 0.5]),
    )
    def test_array_equals_batch_equals_scalar(self, name, seed, rows, density):
        code = CODES[name]
        rng = np.random.default_rng(seed)
        codewords = np.stack([code.encode(rng.integers(0, 2, code.k)) for _ in range(rows)])
        words = codewords ^ (rng.random(codewords.shape) < density).astype(np.uint8)
        out = code.decode_array(words)
        batch = code.decode_batch(words)
        assert out.status.shape == out.position.shape == (rows,)
        assert out.data.shape == (rows, code.k)
        for i, word in enumerate(words):
            scalar = code.decode(word)
            for result in (batch[i], scalar):
                assert result.status is STATUSES[out.status[i]]
                assert np.array_equal(result.data, out.data[i])
                flipped = (out.position[i],) if out.position[i] >= 0 else ()
                assert result.corrected_positions == flipped
            if scalar.status is DecodeStatus.CORRECTED:
                fixed = word.copy()
                fixed[out.position[i]] ^= 1
                assert not linalg2.matvec(code.H, fixed).any()
            elif scalar.status is DecodeStatus.OK:
                assert not linalg2.matvec(code.H, word).any()
