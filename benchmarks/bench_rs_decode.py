"""Decode-throughput micro-benchmarks for the Reed-Solomon hot path.

Tracks the numbers the batched Monte-Carlo engine lives on, from this PR
onward (CI uploads the ``--benchmark-json`` output as ``BENCH_rs_decode.json``):

* scalar decode of a clean word (the syndrome screen),
* scalar decode of a dirty word (key equation + Chien + Forney),
* ``decode_batch`` throughput on a Monte-Carlo-shaped batch (mostly clean
  rows, a dirty minority),
* the dense syndrome screen per kernel backend (numpy / bitsliced / numba
  when installed) - the tracked number behind the bitsliced tier's >=3x
  acceptance bar, recorded with a ``backend`` tag in ``extra_info``,
* the F2 reliability sweep itself - the tentpole's headline wall-clock.

Run with ``pytest benchmarks/bench_rs_decode.py --benchmark-only
--benchmark-json=BENCH_rs_decode.json``.  CI gates these numbers against
the committed baseline via ``benchmarks/check_regression.py``.
"""

import numpy as np
import pytest

from repro.codes import SinglyExtendedRS
from repro.galois import GF256
from repro.galois.backends import BackendUnavailableError, backend_names, get_backend

BATCH = 1024
DIRTY_PER_BATCH = 32  # ~3% dirty rows, the Monte-Carlo regime
SCREEN_BATCH = 4096  # dense regime: every row dirty (burst/beyond-bound studies)


@pytest.fixture(scope="module")
def code():
    return SinglyExtendedRS(GF256, 256, 240)


@pytest.fixture(scope="module")
def dirty_word(code):
    rng = np.random.default_rng(0xD1)
    word = np.zeros(code.n, dtype=np.int64)
    pos = rng.choice(code.n, code.t, replace=False)
    word[pos] = rng.integers(1, 256, size=code.t)
    return word


@pytest.fixture(scope="module")
def mc_batch(code):
    rng = np.random.default_rng(0xBA7C)
    words = np.zeros((BATCH, code.n), dtype=np.int64)
    for i in rng.choice(BATCH, DIRTY_PER_BATCH, replace=False):
        n_err = int(rng.integers(1, code.t + 3))
        pos = rng.choice(code.n, n_err, replace=False)
        words[i, pos] = rng.integers(1, 256, size=n_err)
    return words


def test_decode_clean_word(benchmark, code):
    clean = np.zeros(code.n, dtype=np.int64)
    result = benchmark(code.decode, clean)
    assert result.corrections == 0


def test_decode_dirty_word(benchmark, code, dirty_word):
    result = benchmark(code.decode, dirty_word)
    assert result.corrections == code.t


def test_decode_batch_throughput(benchmark, code, mc_batch):
    results = benchmark(code.decode_batch, mc_batch)
    assert len(results) == BATCH
    benchmark.extra_info["batch"] = BATCH
    benchmark.extra_info["dirty_rows"] = DIRTY_PER_BATCH
    benchmark.extra_info["words_per_second"] = BATCH / benchmark.stats["mean"]


def _available_backends():
    names = []
    for name in backend_names():
        try:
            get_backend(name)
        except BackendUnavailableError:
            continue
        names.append(name)
    return names


@pytest.fixture(scope="module")
def screen_batch(code):
    rng = np.random.default_rng(0x5C4EE)
    return rng.integers(0, 256, size=(SCREEN_BATCH, code.inner.n), dtype=np.int64)


@pytest.mark.parametrize("backend_name", _available_backends())
def test_syndrome_screen_backend(benchmark, code, screen_batch, backend_name):
    """Dense-batch syndrome screen, one benchmark entry per backend.

    Every backend must be bit-identical to the numpy reference (asserted
    here on the benchmarked inputs as a last line of defence behind the
    equivalence suite); the recorded means feed the CI regression gate and
    the bitsliced >=3x speedup check.
    """
    inner = code.inner
    backend = get_backend(backend_name)
    reference = get_backend("numpy").syndromes(GF256, screen_batch, inner.r, inner.fcr)
    warm = backend.syndromes(GF256, screen_batch, inner.r, inner.fcr)  # builds tables
    assert np.array_equal(warm, reference)
    benchmark(backend.syndromes, GF256, screen_batch, inner.r, inner.fcr)
    benchmark.extra_info["backend"] = backend_name
    benchmark.extra_info["batch"] = SCREEN_BATCH
    benchmark.extra_info["rows_per_second"] = SCREEN_BATCH / benchmark.stats["mean"]


def test_f2_sweep_wall_clock(benchmark, report):
    """End-to-end wall-clock of the F2 reliability sweep (the ≥10x target).

    Cold caches each round: clears the measured bit-code conditional and
    kernel caches so the benchmark times the full pipeline the way
    ``bench_f2_reliability_sweep.py`` pays it, not a cache replay.
    """
    from repro.analysis.sweep import log_space, reliability_sweep
    from repro.galois import batch as galois_batch
    from repro.reliability import conditional
    from repro.schemes import default_schemes

    bers = log_space(1e-7, 1e-3, 9)

    def sweep():
        conditional.clear_cache()
        galois_batch.clear_cache()
        return reliability_sweep(default_schemes(), bers, samples=400, seed=0)

    result = benchmark.pedantic(sweep, rounds=3, iterations=1, warmup_rounds=1)
    assert set(result) == {s.name for s in default_schemes()}
    report(
        "RS decode micro-bench: F2 sweep wall-clock (batched engine)",
        f"samples=400, 9 BER points: {benchmark.stats['mean']:.2f}s mean "
        "(seed engine ~15.0s, batched with measured RS tables ~1.4s, "
        "closed-form RS tables ~0.15s on a 1-core host; see EXPERIMENTS.md)",
    )
