"""The benchmark's workloads, their output checks and their output digest.

Every workload takes its seed from the command line and hands the program
only the inputs that seed generates.  Each phase of a workload starts from
cold conditional-model and GF kernel caches, as a fresh ``python -m repro``
invocation does, so that work the program caches within a process (the
conditional-table build above all) is paid on every repetition.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import repro.galois.batch as gf_batch
from repro.analysis.sweep import log_space, reliability_sweep
from repro.campaign import CampaignConfig, Manifest, SupervisorPolicy, start_campaign
from repro.campaign.plan import ENGINE_BATCHED, execute_chunk
from repro.faults.rates import DEFAULT_RATES
from repro.reliability import (
    ExactRunConfig,
    RareEventParams,
    Tally,
    conditional,
    evaluate_system,
    run_iid_batched,
    run_rareevent_iid,
)

WORKLOADS = ("analytic", "mc_dense", "mc_sparse", "campaign")

#: analytic: the F2 sweep, the F12 rare-event runs and ``evaluate_system``.
SWEEP_BERS = log_space(1e-7, 1e-3, 9)
AT_1E4 = 6  # index of BER 1e-4 in SWEEP_BERS
SWEEP_SAMPLES = 400
RARE_BER = 1e-4
RARE_TRIALS = 200_000
RARE_SCHEMES = ("pair", "duo", "xed", "iecc-sec")
SYSTEM_SCHEMES = ("pair", "duo", "xed")

#: decoder-in-the-loop Monte Carlo: weak-cell BER and trials per scheme.
MC = {
    "mc_dense": {"ber": 1e-3, "trials": 500, "schemes": ("pair", "duo")},
    "mc_sparse": {"ber": 1e-5, "trials": 800, "schemes": ("pair", "duo", "xed")},
}

#: supervised campaign: PAIR under the full default fault process.
CAMPAIGN = {"scheme": "pair", "trials": 1500, "chunk_trials": 128, "workers": 2}

#: z of the Wilson bands that MC rates must share with the reference tallies;
#: at 4 sigma a correct program fails one band in about 30,000.
WILSON_Z = 4.0


@dataclass
class Checks:
    """Output checks of one run: ``failed`` of ``attempted`` did not hold."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass
class RepResult:
    """One repetition of a workload.

    ``wall_s`` is the timed phase; ``trials`` the trials behind
    ``trials_per_s`` (decoder-in-the-loop trials, or the count-level
    rare-event trials of the F12 phase on ``analytic``), completed in
    ``trial_s`` seconds.  ``outputs`` is the JSON-safe result the digest
    covers; ``tallies`` and ``extra`` feed the checks and per-layer ratios.
    """

    wall_s: float
    phases: dict[str, float]
    trials: int
    trial_s: float
    outputs: dict
    tallies: dict[str, Tally] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class Phases:
    """Times named phases, each from cold model and GF caches.

    With a tracer, each phase is also a root span of the traced run.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        conditional.clear_cache()
        gf_batch.clear_cache()
        with self.tracer.span(f"phase.{name}") if self.tracer else nullcontext():
            start = time.perf_counter()
            try:
                yield
            finally:
                self.seconds[name] = time.perf_counter() - start


def _tally_dict(tally: Tally) -> dict[str, int]:
    return {"ok": tally.ok, "ce": tally.ce, "due": tally.due, "sdc": tally.sdc}


def run_analytic(schemes: dict, seed: int, phase: Phases, *,
                 sweep_samples: int = SWEEP_SAMPLES, rare_trials: int = RARE_TRIALS,
                 system_samples: int = 300, system_trials: int = 24) -> RepResult:
    ordered = list(schemes.values())
    with phase("f2_sweep"):
        sweep = reliability_sweep(ordered, SWEEP_BERS, samples=sweep_samples, seed=seed)
    rare = {}
    with phase("f12_rare"):
        for name in RARE_SCHEMES:
            rare[name] = run_rareevent_iid(
                schemes[name], DEFAULT_RATES.pure_ber(RARE_BER),
                ExactRunConfig(trials=rare_trials, seed=seed),
                RareEventParams(tilt="auto", samples=sweep_samples, table_seed=seed),
            )
    system = {}
    with phase("evaluate_system"):
        for name in SYSTEM_SCHEMES:
            system[name] = evaluate_system(
                schemes[name], DEFAULT_RATES, samples=system_samples,
                trials_per_mode=system_trials, seed=seed,
            )
    estimates = {name: result.estimates() for name, result in rare.items()}
    outputs = {
        "sweep": {
            name: {key: [float(v) for v in values] for key, values in curves.items()}
            for name, curves in sweep.items()
        },
        "rare": {
            name: {"ess": est["ess"], **{o: est["outcomes"][o] for o in ("sdc", "due", "fail")}}
            for name, est in estimates.items()
        },
        "system": {
            name: {"prob_sdc_year": s.prob_sdc_year, "prob_due_year": s.prob_due_year,
                   "sdc_per_year": s.sdc_per_year, "due_per_year": s.due_per_year}
            for name, s in system.items()
        },
    }
    ess_total = sum(est["ess"] for est in estimates.values())
    return RepResult(
        wall_s=sum(phase.seconds.values()),
        phases=dict(phase.seconds),
        trials=rare_trials * len(RARE_SCHEMES),
        trial_s=phase.seconds["f12_rare"],
        outputs=outputs,
        extra={"rare.ess_frac": ess_total / (rare_trials * len(RARE_SCHEMES))},
    )


def run_mc(workload: str, schemes: dict, seed: int, phase: Phases, *,
           trials: int | None = None) -> RepResult:
    spec = MC[workload]
    trials = trials or spec["trials"]
    rates = DEFAULT_RATES.pure_ber(spec["ber"])
    tallies = {}
    for name in spec["schemes"]:
        with phase(name):
            tallies[name] = run_iid_batched(
                schemes[name], rates, ExactRunConfig(trials=trials, seed=seed)
            )
    wall = sum(phase.seconds.values())
    return RepResult(
        wall_s=wall,
        phases=dict(phase.seconds),
        trials=trials * len(spec["schemes"]),
        trial_s=wall,
        outputs={name: _tally_dict(t) for name, t in tallies.items()},
        tallies=tallies,
    )


def campaign_config(seed: int, trials: int = CAMPAIGN["trials"]) -> CampaignConfig:
    return CampaignConfig(
        scheme=CAMPAIGN["scheme"], kind="iid", trials=trials, seed=seed,
        chunk_trials=CAMPAIGN["chunk_trials"], rates=DEFAULT_RATES,
    )


def run_campaign(seed: int, phase: Phases, workdir: Path, *,
                 trials: int = CAMPAIGN["trials"], inline: bool = False) -> RepResult:
    """One supervised campaign in a fresh directory under ``workdir``.

    ``inline`` also runs the same chunk plan in this process (untimed as far
    as ``wall_s`` goes), which the traced run uses to attribute chunk time
    to layers and to separate dispatch overhead from chunk work.
    """
    config = campaign_config(seed, trials)
    directory = workdir / f"campaign-{seed}-{time.monotonic_ns()}"
    try:
        with phase("campaign"):
            result = start_campaign(
                directory, config, SupervisorPolicy(workers=CAMPAIGN["workers"])
            )
        records = list(Manifest.load(directory).chunks.values())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    wall = phase.seconds["campaign"]
    tally = result.tally
    extra = {
        "complete": result.complete,
        "dispatch.chunks": result.chunks_done,
        "dispatch.attempts_per_chunk": sum(r.attempts for r in records) / max(1, len(records)),
        "dispatch.degraded": sum(r.engine != ENGINE_BATCHED for r in records),
    }
    if inline:
        plan = config.build_plan()
        merged = Tally()
        with phase("inline_plan"):
            for spec in plan.chunks:
                merged = merged.merge(execute_chunk(
                    plan.kind, plan.scheme, plan.rates, plan.config, spec, ENGINE_BATCHED
                ))
        extra["inline_tally"] = _tally_dict(merged)
    return RepResult(
        wall_s=wall,
        phases=dict(phase.seconds),
        trials=trials,
        trial_s=wall,
        outputs={CAMPAIGN["scheme"]: _tally_dict(tally), "chunks": result.chunks_done},
        tallies={CAMPAIGN["scheme"]: tally},
        extra=extra,
    )


def run_workload(workload: str, schemes: dict, seed: int, phase: Phases, workdir: Path,
                 traced: bool = False) -> RepResult:
    if workload == "analytic":
        return run_analytic(schemes, seed, phase)
    if workload in MC:
        return run_mc(workload, schemes, seed, phase)
    if workload == "campaign":
        return run_campaign(seed, phase, workdir, inline=traced)
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")


# -- checks -------------------------------------------------------------------


def digest(outputs: dict) -> str:
    """SHA-256 of the canonical JSON of a repetition's outputs."""
    canon = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def wilson(k: int, n: int) -> tuple[float, float]:
    """Wilson score interval of ``k`` successes in ``n`` trials, at ``WILSON_Z``."""
    z = WILSON_Z
    p = k / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return centre - half, centre + half


def _is_probability(value: float) -> bool:
    return math.isfinite(value) and 0.0 <= value <= 1.0


def check_tally(checks: Checks, label: str, tally: Tally, trials: int,
                reference: dict[str, int]) -> None:
    """Tally invariants plus agreement with a stored reference tally."""
    counts = _tally_dict(tally)
    checks.expect(tally.total == trials, f"{label}: tally total {tally.total} != {trials}")
    checks.expect(all(v >= 0 for v in counts.values()), f"{label}: negative count")
    ref_total = sum(reference.values())
    for outcome, k in counts.items():
        checks.expect(_is_probability(k / trials), f"{label}: {outcome} rate not a probability")
        lo, hi = wilson(k, trials)
        ref_lo, ref_hi = wilson(reference[outcome], ref_total)
        checks.expect(lo <= ref_hi and ref_lo <= hi,
                      f"{label}: {outcome} rate {k}/{trials} disagrees with reference "
                      f"{reference[outcome]}/{ref_total}")


def _ratio(baseline: float, scheme: float) -> float:
    return baseline / scheme if scheme > 0 else math.inf


def check_analytic(checks: Checks, outputs: dict) -> None:
    sweep, rare, system = outputs["sweep"], outputs["rare"], outputs["system"]
    for name, curves in sweep.items():
        for key in ("sdc", "due", "fail"):
            checks.expect(all(_is_probability(v) for v in curves[key]),
                          f"sweep {name}.{key}: value outside [0, 1]")
    checks.expect(_ratio(sweep["xed"]["fail"][AT_1E4], sweep["pair"]["fail"][AT_1E4]) > 1e6,
                  "sweep: PAIR/XED reliability ratio at BER 1e-4 is not above 1e6")
    checks.expect(
        sweep["no-ecc"]["fail"][0] > sweep["iecc-sec"]["fail"][0] > sweep["pair"]["fail"][0],
        "sweep: no-ecc > iecc-sec > pair does not hold at BER 1e-7",
    )
    for name, est in rare.items():
        for outcome in ("sdc", "due", "fail"):
            row = est[outcome]
            checks.expect(all(_is_probability(row[k]) for k in ("p_ht", "ci_lo", "ci_hi")),
                          f"rare {name}.{outcome}: estimate outside [0, 1]")
    checks.expect(rare["pair"]["fail"]["ci_lo"] > 0.0, "F12: PAIR's CI does not exclude zero")
    checks.expect(rare["pair"]["fail"]["p_ht"] < 1e-9, "F12: PAIR's tail is not below 1e-9")
    checks.expect(_ratio(rare["xed"]["fail"]["p_ht"], rare["pair"]["fail"]["p_ht"]) > 1e6,
                  "F12: PAIR/XED reliability ratio is not above 1e6")
    for name, result in system.items():
        probs = [*result["prob_sdc_year"].values(), *result["prob_due_year"].values()]
        checks.expect(all(_is_probability(p) for p in probs),
                      f"evaluate_system {name}: probability outside [0, 1]")
        rates = [*result["sdc_per_year"].values(), *result["due_per_year"].values()]
        checks.expect(all(math.isfinite(r) and r >= 0 for r in rates),
                      f"evaluate_system {name}: negative or non-finite event rate")


def check_rep(checks: Checks, workload: str, rep: RepResult, reference: dict) -> None:
    """Every output check of one repetition."""
    if workload == "analytic":
        check_analytic(checks, rep.outputs)
        return
    per_scheme = rep.trials // len(rep.tallies)
    for name, tally in rep.tallies.items():
        check_tally(checks, f"{workload} {name}", tally, per_scheme, reference[workload][name])
    if workload == "campaign":
        checks.expect(rep.extra["complete"], "campaign: incomplete or quarantined chunks")
        if "inline_tally" in rep.extra:
            checks.expect(rep.extra["inline_tally"] == rep.outputs[CAMPAIGN["scheme"]],
                          "campaign: supervised tally differs from the inline chunk plan")
