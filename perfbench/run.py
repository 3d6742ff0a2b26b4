"""End-to-end reliability benchmark of the PAIR reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload mc_dense --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats the workload, every repetition from cold model and GF
caches, until ``--seconds`` have passed (at least three repetitions), checks
every output and prints the end-to-end metrics named in ``BENCHMARK.json``:
medians over the repetitions, plus ``setup_s``, the median over fresh
interpreters importing ``repro`` and building ``default_schemes()``, one
after each repetition so that they sample the host over the whole run.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics instead, attributing time to the program's layers by
wrapping their public functions from outside (see ``tracer.py``).  Spans
are written to ``perfbench/_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table and the ``output_digest`` of the outputs, which
is identical for every run of one seed unless the program's results change.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

MIN_REPS = 3
MIN_TRACED_REPS = 2
MIN_SETUP_PROBES = 5

#: a fresh interpreter's set-up: import the package and build every scheme,
#: which builds the GF fields their codes use.
SETUP_PROBE = """
import time
start = time.perf_counter()
import repro.schemes
repro.schemes.default_schemes()
print(time.perf_counter() - start)
"""


def probe_setup() -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def median_of(rows: list[dict], key: str) -> float:
    values = [row[key] for row in rows if key in row]
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import tracer as tr
    import workloads as wl

    from repro.galois.backends import active_backend
    from repro.schemes import default_schemes

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {', '.join(wl.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((HERE / "reference.json").read_text())

    schemes = {scheme.name: scheme for scheme in default_schemes()}
    checks = wl.Checks()
    tracer = tr.Tracer() if args.trace else None
    untraced: list = []
    traced: list = []
    layers: list[dict] = []
    digests = set()
    setups: list[float] = []
    start = time.perf_counter()
    lap = start
    laps: list[float] = []
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            run_id = len(traced)
            with tracer.active(run_id):
                rep = wl.run_workload(args.workload, schemes, args.seed,
                                      wl.Phases(tracer), OUT, traced=True)
            traced.append(rep)
            layers.append(tr.layer_metrics(tracer, run_id))
        else:
            rep = wl.run_workload(args.workload, schemes, args.seed, wl.Phases(), OUT)
            untraced.append(rep)
        wl.check_rep(checks, args.workload, rep, reference)
        digests.add(wl.digest(rep.outputs))
        setups.append(probe_setup())
        now = time.perf_counter()
        laps.append(now - lap)
        lap = now
        enough = len(traced) >= MIN_TRACED_REPS if tracer else len(untraced) >= MIN_REPS
        # stop before a repetition would run past the budget, not after
        if enough and now - start + statistics.median(laps) > args.seconds:
            break
    checks.expect(len(digests) == 1, "repetitions of one seed gave different outputs")
    setups += [probe_setup() for _ in range(MIN_SETUP_PROBES - len(setups))]

    rows = [{"wall_s": r.wall_s, "trials_per_s": r.trials / r.trial_s, **r.phases, **r.extra}
            for r in untraced]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": median_of(rows, "wall_s"),
        "trials_per_s": median_of(rows, "trials_per_s"),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        **end_to_end,
        "f2_sweep_s": median_of(rows, "f2_sweep"),
        "f12_rare_s": median_of(rows, "f12_rare"),
        "evaluate_system_s": median_of(rows, "evaluate_system"),
        "fail_frac": checks.failed / checks.attempted,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(f2_sweep_s="s", f12_rare_s="s", evaluate_system_s="s", fail_frac="ratio")
    print(f"workload {args.workload}  seed {args.seed}  backend {active_backend().name}  "
          f"reps {len(untraced)} untraced, {len(traced)} traced")
    for name, value in report.items():
        applies = value or name in end_to_end or name == "fail_frac"
        print(f"  {name:<20} {value:>14.6g} {units[name]}" if applies
              else f"  {name:<20} {'n/a':>14}")
    print(f"output_digest {digests.pop() if len(digests) == 1 else 'MISMATCH'}")
    for note in checks.notes:
        print(f"check failed: {note}")

    if tracer is None:
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: end_to_end[name] for name in wanted}
    else:
        walls = [r.wall_s for r in traced]
        per_layer = {key: statistics.median(layer[key] for layer in layers)
                     for key in layers[0]}
        traced_rows = [{**r.phases, **r.extra} for r in traced]
        per_layer.update({
            "phase.f2_sweep_s": report["f2_sweep_s"],
            "phase.f12_rare_s": report["f12_rare_s"],
            "phase.evaluate_system_s": report["evaluate_system_s"],
            "rare.ess_frac": median_of(rows, "rare.ess_frac"),
            "dispatch.chunks": median_of(rows, "dispatch.chunks"),
            "dispatch.attempts_per_chunk": median_of(rows, "dispatch.attempts_per_chunk"),
            "dispatch.degraded": median_of(rows, "dispatch.degraded"),
            "dispatch.overhead_s": statistics.median(
                row["campaign"] - row["inline_plan"] / wl.CAMPAIGN["workers"]
                for row in traced_rows
            ) if args.workload == "campaign" else 0.0,
            "trace.overhead_frac": statistics.median(walls) / end_to_end["wall_s"] - 1.0,
        })
        wall = statistics.median(tr.traced_wall(tracer, run) for run in range(len(traced)))
        print(f"per-layer self time, median of {len(traced)} traced reps "
              f"({wall:.3f} s traced):")
        for key in sorted(k for k in per_layer if k.endswith(("self_s", "total_s"))):
            if per_layer[key]:
                print(f"  {key:<28} {per_layer[key]:>10.4f} s  {per_layer[key] / wall:6.1%}")
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: per_layer[name] for name in wanted}

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
