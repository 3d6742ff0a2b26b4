"""Tests for measured conditional-outcome tables of the bit codes.

The RS decoding radius the closed-form DUO/PAIR conditionals rest on is
covered in ``tests/codes/test_rs_radius.py``.
"""

import numpy as np
import pytest

from repro.codes import HammingSEC, HsiaoSECDED
from repro.reliability import measure_bit_code, wilson_interval
from repro.reliability.conditional import clear_cache

#: z of the statistical bands below: a correct table fails one in ~16,000.
Z = 4.0
#: chi-square quantile at the same tail mass (upper 6.334e-5) for n - 1
#: degrees of freedom: scipy.stats.chi2.isf(6.334e-5, 135).
CHI2_CRIT_135 = 207.3


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestBitCodeTables:
    def test_sec_structure(self):
        code = HammingSEC(136, 128)
        table = measure_bit_code(code, j_max=4, samples=300, seed=1)
        assert table.p_flag[0] == 0 and table.p_bad[0] == 0
        assert table.p_flag[1] == 0 and table.p_bad[1] == 0  # singles corrected
        # doubles: mostly miscorrect (bad), sometimes detect
        assert table.p_bad[2] > 0.7
        assert table.p_flag[2] + table.p_bad[2] == pytest.approx(1.0, abs=1e-9)

    def test_silent_on_detect_folds_flags_into_bad(self):
        code = HammingSEC(136, 128)
        table = measure_bit_code(
            code, j_max=3, samples=300, seed=1, silent_on_detect=True
        )
        assert np.all(table.p_flag == 0)
        assert table.p_bad[2] == pytest.approx(1.0)  # doubles always end wrong

    def test_secded_detects_all_doubles(self):
        code = HsiaoSECDED(72, 64)
        table = measure_bit_code(code, j_max=3, samples=300, seed=2)
        assert table.p_flag[2] == pytest.approx(1.0)
        assert table.p_bad[2] == 0.0

    def test_cache_returns_same_object(self):
        code = HammingSEC(136, 128)
        t1 = measure_bit_code(code, j_max=3, samples=100, seed=3)
        t2 = measure_bit_code(code, j_max=3, samples=100, seed=3)
        assert t1 is t2


def spy_decodes(code, monkeypatch):
    """Record every word matrix ``code.decode_array`` is given."""
    seen = []
    original = code.decode_array

    def spy(words):
        seen.append(np.array(words))
        return original(words)

    monkeypatch.setattr(code, "decode_array", spy)
    return seen


class TestTableLaw:
    """Word j of a table is the zero codeword with j distinct uniform flips."""

    def test_every_word_has_exactly_j_errors(self, monkeypatch):
        code = HammingSEC(136, 128)
        seen = spy_decodes(code, monkeypatch)
        measure_bit_code(code, j_max=12, samples=500, seed=4)
        (words,) = seen
        weights = words.reshape(12, 500, code.n).sum(axis=2)
        assert np.array_equal(weights, np.repeat(np.arange(1, 13)[:, None], 500, axis=1))

    def test_positions_are_uniform(self, monkeypatch):
        code = HammingSEC(136, 128)
        seen = spy_decodes(code, monkeypatch)
        measure_bit_code(code, j_max=12, samples=2000, seed=5)
        hits = seen[0].sum(axis=0)
        expected = hits.sum() / code.n
        assert float(((hits - expected) ** 2 / expected).sum()) < CHI2_CRIT_135

    def test_sec_double_error_flags_match_enumeration(self):
        # a double error is detected exactly when the XOR of its two
        # columns is no column: 1 - miscorrection_fraction() of all pairs
        code = HammingSEC(136, 128)
        samples = 4000
        table = measure_bit_code(code, j_max=2, samples=samples, seed=6)
        lo, hi = wilson_interval(round(table.p_flag[2] * samples), samples, z=Z)
        assert lo <= 1.0 - code.miscorrection_fraction() <= hi

    def test_secded_flags_every_double_error(self):
        table = measure_bit_code(HsiaoSECDED(72, 64), j_max=4, samples=1000, seed=7)
        assert table.p_flag[2] == 1.0
        assert table.p_bad[2] == 0.0

    def test_silent_and_flagging_tables_share_one_decode(self, monkeypatch):
        code = HammingSEC(136, 128)
        seen = spy_decodes(code, monkeypatch)
        flagging = measure_bit_code(code, j_max=6, samples=200, seed=8)
        silent = measure_bit_code(code, j_max=6, samples=200, seed=8,
                                  silent_on_detect=True)
        assert len(seen) == 1
        assert not silent.p_flag.any()
        # silent-on-detect: a detected word is bad exactly when its data is
        # wrong, so the silent p_bad is at least the flagging p_bad
        assert np.all(silent.p_bad >= flagging.p_bad)
        assert np.all(silent.p_bad <= flagging.p_bad + flagging.p_flag)
