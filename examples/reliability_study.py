#!/usr/bin/env python3
"""Reliability study: compare all five schemes over a weak-cell BER sweep.

A compact version of experiment F2 (see benchmarks/ for the full harness):
builds the semi-analytic model of every scheme and prints failure
probability per 64-byte read, plus the paper's headline ratios.
"""

from repro.analysis import format_series, log_space, reliability_sweep
from repro.reliability import relative_reliability
from repro.schemes import default_schemes


def main() -> None:
    bers = log_space(1e-7, 1e-4, 7)
    print("building scheme models (measures bit-code decoder conditionals once)...")
    sweep = reliability_sweep(default_schemes(), bers, samples=300, seed=0)

    print()
    print(
        format_series(
            "ber",
            [f"{b:.0e}" for b in bers],
            {
                name: [f"{v:.2e}" for v in data["fail"]]
                for name, data in sweep.items()
            },
        )
    )

    print("\nPAIR vs the two published competitors:")
    for i, ber in enumerate(bers):
        vs_xed = relative_reliability(sweep["xed"]["fail"][i], sweep["pair"]["fail"][i])
        vs_duo = relative_reliability(sweep["duo"]["fail"][i], sweep["pair"]["fail"][i])
        print(f"  ber={ber:.0e}: {vs_xed:10.2e}x better than XED, "
              f"{vs_duo:8.1f}x vs DUO")
    print("\n(the abstract's 'up to 10^6 x XED' and '~10 x DUO on average' both"
          "\n live in this sweep; DUO overtakes PAIR above ~1e-5 - the crossover)")


if __name__ == "__main__":
    main()
