"""Decoding radius of the RS codes, checked directly through ``decode_batch``.

The reliability models take the conditional outcomes of DUO's RS(76,64)
and PAIR's singly extended RS(256,240) in closed form: every count up to
``t`` symbol errors is corrected, and counts beyond ``t`` are flagged
except for a tiny miscorrection floor.  These tests hold the decoders to
both halves in the weak-cell regime, where each erroneous symbol carries
one flipped bit.
"""

import numpy as np
import pytest

from repro.codes import DecodeStatus, ReedSolomonCode, SinglyExtendedRS
from repro.galois import GF256

CODES = {
    "duo-rs-76-64": ReedSolomonCode(GF256, 76, 64),
    "pair-ext-rs-256-240": SinglyExtendedRS(GF256, 256, 240),
}


def sent_and_received(code, rng, count, errors):
    """Random codewords, each with ``errors`` symbols hit by one bit flip."""
    data = rng.integers(0, 256, size=(count, code.k))
    received = np.stack([code.encode(row) for row in data])
    for word in received:
        positions = rng.choice(code.n, errors, replace=False)
        word[positions] ^= 1 << rng.integers(0, 8, size=errors)
    return data, received


@pytest.mark.parametrize("name", CODES)
def test_every_count_within_radius_decodes_to_sent_data(name):
    code = CODES[name]
    rng = np.random.default_rng(4)
    for errors in range(code.t + 1):
        data, received = sent_and_received(code, rng, 40, errors)
        expect = DecodeStatus.OK if errors == 0 else DecodeStatus.CORRECTED
        for i, result in enumerate(code.decode_batch(received)):
            assert result.status is expect, (errors, i)
            assert np.array_equal(result.data, data[i]), (errors, i)


@pytest.mark.parametrize("name", CODES)
def test_one_past_radius_is_flagged(name):
    code = CODES[name]
    rng = np.random.default_rng(5)
    trials = 400
    _, received = sent_and_received(code, rng, trials, code.t + 1)
    flagged = sum(
        result.status is DecodeStatus.DETECTED
        for result in code.decode_batch(received)
    )
    assert flagged / trials > 0.99
