"""Regenerate ``reference.json``: large reference tallies for the MC checks.

Run from the repository root (takes about two minutes):

    PYTHONPATH=src python3 perfbench/make_reference.py

Each workload's Monte-Carlo rates are checked against these tallies within
Wilson bands, not for bit-identity, so a deliberate change of the program's
random streams still passes as long as the rates it samples are unchanged.
The reference seed is far from any seed a benchmark run is given.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads as wl

from repro.faults.rates import DEFAULT_RATES
from repro.reliability import ExactRunConfig, run_iid_batched
from repro.schemes import default_schemes

REFERENCE_SEED = 987_654_321
REFERENCE_TRIALS = {"mc_dense": 5000, "mc_sparse": 8000, "campaign": 8000}


def main() -> None:
    schemes = {scheme.name: scheme for scheme in default_schemes()}
    runs = {
        workload: (DEFAULT_RATES.pure_ber(spec["ber"]), spec["schemes"])
        for workload, spec in wl.MC.items()
    }
    # a supervised campaign's tally equals the inline engine's, bit for bit
    runs["campaign"] = (DEFAULT_RATES, (wl.CAMPAIGN["scheme"],))
    out: dict = {"seed": REFERENCE_SEED}
    for workload, (rates, names) in runs.items():
        config = ExactRunConfig(trials=REFERENCE_TRIALS[workload], seed=REFERENCE_SEED)
        out[workload] = {
            name: wl._tally_dict(run_iid_batched(schemes[name], rates, config))
            for name in names
        }
        print(workload, out[workload], flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
