"""Tests for measured conditional-outcome tables of the bit codes.

The RS decoding radius the closed-form DUO/PAIR conditionals rest on is
covered in ``tests/codes/test_rs_radius.py``.
"""

import numpy as np
import pytest

from repro.codes import HammingSEC, HsiaoSECDED
from repro.reliability import measure_bit_code
from repro.reliability.conditional import clear_cache


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

