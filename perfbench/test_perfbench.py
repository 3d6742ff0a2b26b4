"""Tests of the benchmark itself: its tracer, its checks and its inputs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q

The workloads run here at a small fraction of their benchmark size.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import tracer as tr
import workloads as wl

from repro.reliability import ExactRunConfig, iid_epochs
from repro.schemes import default_schemes

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


@pytest.fixture(scope="module")
def schemes():
    return {scheme.name: scheme for scheme in default_schemes()}


def run_small(workload, schemes, seed, tmp_path, tracer=None):
    """``workload`` at a size that runs in about a second."""
    phase = wl.Phases(tracer)
    if workload == "analytic":
        return wl.run_analytic(schemes, seed, phase, sweep_samples=20, rare_trials=2000,
                               system_samples=20, system_trials=2)
    if workload == "campaign":
        return wl.run_campaign(seed, phase, tmp_path, trials=256, inline=tracer is not None)
    return wl.run_mc(workload, schemes, seed, phase, trials=16)


def test_every_wrapped_attribute_is_restored():
    before = [(owner, name, vars(owner).get(name)) for owner, name in map(tr.resolve, tr.TARGETS)]
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.active(0):
            for owner, name, original in before:
                assert vars(owner)[name] is not original
            raise RuntimeError("leave the traced run early")
    for owner, name, original in before:
        assert vars(owner).get(name) is original, f"{owner}.{name} left wrapped"


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload, schemes, tmp_path):
    plain = run_small(workload, schemes, 7, tmp_path)
    tracer = tr.Tracer()
    with tracer.active(0):
        traced = run_small(workload, schemes, 7, tmp_path, tracer)
    assert tracer.spans
    assert wl.digest(traced.outputs) == wl.digest(plain.outputs)


@pytest.mark.parametrize("workload", ["analytic", "mc_dense"])
def test_self_times_sum_to_no_more_than_wall(workload, schemes, tmp_path):
    tracer = tr.Tracer()
    with tracer.active(0):
        run_small(workload, schemes, 3, tmp_path, tracer)
    own = tr.self_times(tracer.spans)
    wall = tr.traced_wall(tracer, 0)
    assert min(own) > -1e-9
    assert sum(own) <= wall + 1e-9
    layers = tr.layer_metrics(tracer, 0)
    assert sum(v for k, v in layers.items() if k.endswith(".self_s")) <= wall


def test_nested_decode_calls_record_one_span(schemes):
    code = schemes["duo"].code
    word = np.zeros(code.n, dtype=np.int64)
    word[0] = 1
    tracer = tr.Tracer()
    with tracer.active(0):
        code.decode(word)  # decode() runs through decode_batch()
    assert [span[0] for span in tracer.spans].count("decode") == 1
    assert tracer.counts[0]["decode.words"] == 1
    assert tracer.counts[0]["decode.corrected"] == 1


def test_a_different_seed_changes_the_inputs(schemes, tmp_path):
    pair = schemes["pair"]
    assert iid_epochs(pair, ExactRunConfig(trials=64, seed=1)) != iid_epochs(
        pair, ExactRunConfig(trials=64, seed=2)
    )
    assert wl.campaign_config(1).build_plan().chunks != wl.campaign_config(2).build_plan().chunks
    for workload in ("analytic", "mc_sparse"):
        first = run_small(workload, schemes, 1, tmp_path)
        second = run_small(workload, schemes, 2, tmp_path)
        assert wl.digest(first.outputs) != wl.digest(second.outputs)


def test_a_corrupted_tally_fails_the_checks(schemes, tmp_path):
    rep = run_small("mc_dense", schemes, 5, tmp_path)
    checks = wl.Checks()
    wl.check_rep(checks, "mc_dense", rep, REFERENCE)
    assert checks.attempted and not checks.failed, checks.notes

    tally = rep.tallies["pair"]
    moved = tally.ce // 2
    tally.ce -= moved  # same total, half the corrections now silent corruption
    tally.sdc += moved
    checks = wl.Checks()
    wl.check_rep(checks, "mc_dense", rep, REFERENCE)
    assert checks.failed / checks.attempted > 0

    tally.sdc += 1  # one read too many
    checks = wl.Checks()
    wl.check_rep(checks, "mc_dense", rep, REFERENCE)
    assert any("tally total" in note for note in checks.notes)


def test_the_analytic_checks_reject_an_impossible_probability(schemes, tmp_path):
    rep = run_small("analytic", schemes, 5, tmp_path)
    rep.outputs["sweep"]["pair"]["fail"][0] = 1.5
    checks = wl.Checks()
    wl.check_rep(checks, "analytic", rep, REFERENCE)
    assert any("sweep pair.fail" in note for note in checks.notes)


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
