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
errors (the weak-cell regime the paper's sweep covers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codes.base import BlockCode, DecodeStatus


@dataclass
class WordConditionals:
    """P(flagged) and P(silently wrong) per error count j.

    ``p_flag[j]``  - decoder reports detected-uncorrectable;
    ``p_bad[j]``   - decoder believes the word good but the data is wrong.
    """

    j_values: np.ndarray
    p_flag: np.ndarray
    p_bad: np.ndarray


_TABLE_CACHE: dict[tuple, WordConditionals] = {}


def measure_bit_code(
    code: BlockCode,
    j_max: int,
    samples: int = 2000,
    seed: int = 0,
    silent_on_detect: bool = False,
) -> WordConditionals:
    """Conditional table for a binary code (Hamming SEC / Hsiao SEC-DED).

    ``silent_on_detect`` models conventional IECC, which forwards raw data
    on detection instead of flagging: detections count as bad-if-wrong.
    """
    key = (type(code).__name__, code.n, code.k, j_max, samples, seed,
           silent_on_detect)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    rng = np.random.default_rng([seed, 0xC0DE])
    j_values = np.arange(j_max + 1)
    p_flag = np.zeros(j_max + 1)
    p_bad = np.zeros(j_max + 1)
    for j in j_values:
        if j == 0:
            continue
        flags = 0
        bads = 0
        # Draw every trial word first (same rng call order as one-at-a-time
        # generation), then push the whole batch through the decoder.
        words = np.zeros((samples, code.n), dtype=np.uint8)
        for s in range(samples):
            positions = rng.choice(code.n, j, replace=False)
            words[s, positions] = 1
        for result in code.decode_batch(words):
            flagged = result.status is DecodeStatus.DETECTED and not silent_on_detect
            if flagged:
                flags += 1
            elif np.any(result.data):
                bads += 1
        p_flag[j] = flags / samples
        p_bad[j] = bads / samples
    table = WordConditionals(j_values, p_flag, p_bad)
    _TABLE_CACHE[key] = table
    return table


def clear_cache() -> None:
    """Drop all measured tables (tests use this to control determinism)."""
    _TABLE_CACHE.clear()
