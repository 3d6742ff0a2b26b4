"""Binary Hamming-family codes used by the baseline IECC schemes.

* :class:`HammingSEC` - shortened Hamming single-error-correcting code; the
  DDR5-style on-die (136, 128) code is ``HammingSEC(136, 128)``.
* :class:`HsiaoSECDED` - odd-weight-column single-error-correcting,
  double-error-detecting code; the classic rank-level (72, 64) code.

Both are defined by an explicit parity-check matrix so that tests can verify
distance properties, and both report *detected* rather than silently wrapping
when a syndrome falls outside the used column set (which happens for
shortened codes and is exactly the effect XED exploits).  They share one
array decode, :meth:`ColumnCode.decode_array`; ``decode_batch`` and
``decode`` are views of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..galois import linalg2
from .base import BlockCode, DecodeResult, DecodeStatus

#: status codes of :meth:`ColumnCode.decode_array`, indexing ``STATUSES``.
OK, CORRECTED, DETECTED = 0, 1, 2
STATUSES = (DecodeStatus.OK, DecodeStatus.CORRECTED, DecodeStatus.DETECTED)


@dataclass(frozen=True)
class ArrayDecode:
    """Decoded rows as arrays.

    ``status`` holds one code per row (``OK``, ``CORRECTED`` or
    ``DETECTED``), ``data`` the ``(rows, k)`` decoded data bits (raw on
    detection) and ``position`` the bit each row flipped, -1 where none.
    """

    status: np.ndarray
    data: np.ndarray
    position: np.ndarray


class ColumnCode(BlockCode):
    """A binary code fixed by its parity-check columns, data then parity.

    A nonzero syndrome equal to column ``i`` flips bit ``i``; one equal to
    no column is detected.  For odd-weight columns (Hsiao) an even-weight
    syndrome is never a column, so double errors detect without a separate
    parity test.
    """

    def _set_columns(self, n: int, k: int, columns: list[int]) -> None:
        r = n - k
        self.n = n
        self.k = k
        self._columns = columns
        h = np.zeros((r, n), dtype=np.uint8)
        for idx, value in enumerate(columns):
            for j in range(r):
                h[j, idx] = (value >> j) & 1
        self.H = h
        self._column_values = np.asarray(columns, dtype=np.int64)
        # every r-bit syndrome value -> its bit position (-1: no column)
        # and the status it decodes to
        self._position_lookup = np.full(1 << r, -1, dtype=np.int64)
        self._position_lookup[self._column_values] = np.arange(n)
        self._status_lookup = np.where(
            self._position_lookup >= 0, CORRECTED, DETECTED
        ).astype(np.int8)
        self._status_lookup[0] = OK

    def encode(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=np.uint8) & 1
        if data.shape != (self.k,):
            raise ValueError(f"expected {self.k} data bits, got {data.shape}")
        parity = linalg2.matvec(self.H[:, : self.k], data)
        return np.concatenate([data, parity])

    def decode_array(self, words: np.ndarray) -> ArrayDecode:
        """Decode a ``(rows, n)`` bit matrix with one syndrome pass."""
        words = np.asarray(words, dtype=np.uint8) & 1
        if words.ndim != 2 or words.shape[1] != self.n:
            raise ValueError(f"expected (batch, {self.n}) matrix, got {words.shape}")
        syndromes = np.bitwise_xor.reduce(
            words.astype(np.int64) * self._column_values, axis=1
        )
        position = self._position_lookup[syndromes]
        fix = np.flatnonzero(position >= 0)
        words[fix, position[fix]] ^= 1  # words is this call's own copy
        return ArrayDecode(self._status_lookup[syndromes], words[:, : self.k], position)

    def decode_batch(self, words: np.ndarray) -> list[DecodeResult]:
        """:meth:`decode_array` as one :class:`DecodeResult` per row."""
        out = self.decode_array(words)
        return [
            DecodeResult(STATUSES[s], data, (p,) if s == CORRECTED else ())
            for s, data, p in zip(out.status.tolist(), out.data, out.position.tolist())
        ]

    def decode(self, received: np.ndarray) -> DecodeResult:
        received = np.asarray(received)
        if received.shape != (self.n,):
            raise ValueError(f"expected {self.n} bits, got {received.shape}")
        return self.decode_batch(received[None, :])[0]


class HammingSEC(ColumnCode):
    """Shortened Hamming single-error-correcting code.

    Columns of the parity-check matrix are distinct nonzero ``r``-bit values;
    data columns use multi-weight values (so the code is systematic) and
    parity columns use unit vectors.  Codeword layout is data bits followed by
    parity bits.
    """

    def __init__(self, n: int, k: int):
        r = n - k
        if n > (1 << r) - 1:
            raise ValueError(f"({n},{k}) exceeds Hamming bound: n <= 2^r - 1")
        data_columns = []
        for value in range(3, 1 << r):
            if value & (value - 1):  # weight >= 2: not a parity unit column
                data_columns.append(value)
            if len(data_columns) == k:
                break
        if len(data_columns) < k:
            raise ValueError(f"cannot build ({n},{k}) Hamming code")
        self._set_columns(n, k, data_columns + [1 << j for j in range(r)])

    @property
    def d_min(self) -> int:
        return 3

    def miscorrection_fraction(self) -> float:
        """Fraction of *double*-bit errors that silently miscorrect.

        A double error produces the XOR of two columns; it miscorrects when
        that value is itself a used column.  Computed exactly by enumeration.
        """
        columns = self._columns
        used = set(columns)
        total = 0
        bad = 0
        for a, b in itertools.combinations(columns, 2):
            total += 1
            if (a ^ b) in used:
                bad += 1
        return bad / total


class HsiaoSECDED(ColumnCode):
    """Hsiao odd-weight-column SEC-DED code, e.g. the rank-level (72, 64).

    All parity-check columns have odd weight, so every double error has an
    even-weight (hence non-column) syndrome and is always detected.
    """

    def __init__(self, n: int, k: int):
        r = n - k
        odd_columns: list[int] = []
        # Prefer low weights (fewer XOR gates), the classic Hsiao heuristic.
        for weight in range(1, r + 1, 2):
            for ones in itertools.combinations(range(r), weight):
                odd_columns.append(sum(1 << j for j in ones))
        if len(odd_columns) < n:
            raise ValueError(f"cannot build ({n},{k}) Hsiao code")
        parity_columns = [1 << j for j in range(r)]
        data_columns = [c for c in odd_columns if c not in set(parity_columns)][:k]
        if len(data_columns) < k:
            raise ValueError(f"cannot build ({n},{k}) Hsiao code")
        self._set_columns(n, k, data_columns + parity_columns)

    @property
    def d_min(self) -> int:
        return 4
