"""Measured conditional-outcome tables for binary code words.

The semi-analytic reliability engine factors each scheme's failure
probability into (a) the *exact* distribution of error counts per codeword
(binomial in the i.i.d. weak-cell process) and (b) the *conditional* outcome
probabilities given j errors.  For the bit codes (Hamming SEC, Hsiao
SEC-DED) these depend on the decoder's actual behaviour and are measured
here by running the real decoder on controlled error patterns.  The RS
schemes need no measurement: their conditionals are closed forms in
:mod:`repro.reliability.analytic`.

Conditioning on counts (rather than raw Monte Carlo) is what lets the F2
sweep resolve failure probabilities of 1e-20 and below, far past what direct
simulation could sample.

All tables are measured in the p -> 0 limit of independent single-bit
errors (the weak-cell regime the paper's sweep covers).  One measurement
per ``(code, j_max, samples, seed)`` serves both the flagging table (XED,
rank SEC-DED) and the silent-on-detect one (conventional IECC): it draws
every word's error positions in one call, decodes every word in one
:meth:`~repro.codes.hamming.ColumnCode.decode_array` call and keeps, per
word, whether the decoder detected and whether the data came out wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codes.hamming import DETECTED, ColumnCode


@dataclass
class WordConditionals:
    """P(flagged) and P(silently wrong) per error count j.

    ``p_flag[j]``  - decoder reports detected-uncorrectable;
    ``p_bad[j]``   - decoder believes the word good but the data is wrong.
    """

    j_values: np.ndarray
    p_flag: np.ndarray
    p_bad: np.ndarray


_OUTCOME_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
_TABLE_CACHE: dict[tuple, WordConditionals] = {}


def _measure_outcomes(
    code: ColumnCode, j_max: int, samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(detected, data wrong), each ``(j_max, samples)``: row j-1 has j errors.

    Every word is the all-zero codeword with ``j`` distinct bits flipped:
    the ``j`` smallest of ``n`` uniform keys, a uniform ``j``-subset of the
    positions (a linear code's outcomes do not depend on the codeword).
    """
    key = (type(code).__name__, code.n, code.k, j_max, samples, seed)
    if key not in _OUTCOME_CACHE:
        rng = np.random.default_rng([seed, 0xC0DE])
        keys = rng.random((j_max, samples, code.n))
        words = np.zeros(keys.shape, dtype=np.uint8)
        for j in range(1, j_max + 1):
            chosen = np.argpartition(keys[j - 1], j - 1, axis=1)[:, :j]
            np.put_along_axis(words[j - 1], chosen, 1, axis=1)
        out = code.decode_array(words.reshape(-1, code.n))
        detected = (out.status == DETECTED).reshape(j_max, samples)
        wrong = out.data.any(axis=1).reshape(j_max, samples)
        _OUTCOME_CACHE[key] = (detected, wrong)
    return _OUTCOME_CACHE[key]


def measure_bit_code(
    code: ColumnCode,
    j_max: int,
    samples: int = 2000,
    seed: int = 0,
    silent_on_detect: bool = False,
) -> WordConditionals:
    """Conditional table for a binary code (Hamming SEC / Hsiao SEC-DED).

    ``samples`` words per error count ``j = 1..j_max``, each with ``j``
    distinct error positions drawn uniformly; ``p_flag[0] = p_bad[0] = 0``.
    ``silent_on_detect`` models conventional IECC, which forwards raw data
    on detection instead of flagging: detections count as bad-if-wrong.
    Both variants come from one cached measurement.
    """
    key = (type(code).__name__, code.n, code.k, j_max, samples, seed,
           silent_on_detect)
    if key not in _TABLE_CACHE:
        detected, wrong = _measure_outcomes(code, j_max, samples, seed)
        flagged = np.zeros_like(detected) if silent_on_detect else detected
        p_flag = np.zeros(j_max + 1)
        p_bad = np.zeros(j_max + 1)
        p_flag[1:] = np.count_nonzero(flagged, axis=1) / samples
        p_bad[1:] = np.count_nonzero(~flagged & wrong, axis=1) / samples
        _TABLE_CACHE[key] = WordConditionals(np.arange(j_max + 1), p_flag, p_bad)
    return _TABLE_CACHE[key]


def clear_cache() -> None:
    """Drop all measured tables (tests use this to control determinism)."""
    _OUTCOME_CACHE.clear()
    _TABLE_CACHE.clear()
