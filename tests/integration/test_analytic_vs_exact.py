"""Cross-validation: the semi-analytic models against decoder-in-the-loop MC.

These are the tests that justify trusting the F2 sweep down to 1e-20: at an
elevated BER where direct Monte Carlo has enough statistics, both engines
must agree on the failure probabilities of every scheme.

Every check uses the same band: a Wilson interval at z = 3.29 (two-sided
0.1%) over TRIALS batched MC trials, which must contain the model's
prediction.  With five checks on one seed, 95% bands would fail one of them
for about one RNG stream in four with no defect anywhere; at 0.1% that is
about one in 200, and the 2,000 trials keep the bands narrower than the old
400-trial 95% ones.
"""

from repro.faults import FaultRates
from repro.reliability import (
    ExactRunConfig,
    run_iid,
    run_iid_batched,
    wilson_interval,
)
from repro.schemes import ConventionalIecc, Duo, NoEcc, PairScheme, Xed

TRIALS = 2000
Z = 3.29


def iid_rates(ber):
    return FaultRates(
        single_cell_ber=ber, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


def agreement(get_model, scheme, ber, metric, seed=11):
    tally = run_iid_batched(scheme, iid_rates(ber), ExactRunConfig(trials=TRIALS, seed=seed))
    model = get_model(scheme, 300, seed=seed)
    predicted = model.line_probs(ber)[metric]
    lo, hi = wilson_interval(getattr(tally, metric), TRIALS, z=Z)
    return predicted, lo, hi


class TestAgreement:
    def test_no_ecc_sdc(self, get_scheme, get_model):
        predicted, lo, hi = agreement(get_model, get_scheme(NoEcc), 1.5e-3, "sdc")
        assert lo <= predicted <= hi

    def test_conventional_sdc(self, get_scheme, get_model):
        predicted, lo, hi = agreement(
            get_model, get_scheme(ConventionalIecc), 4e-3, "sdc")
        assert lo <= predicted <= hi

    def test_xed_sdc(self, get_scheme, get_model):
        predicted, lo, hi = agreement(get_model, get_scheme(Xed), 6e-3, "sdc")
        assert lo <= predicted <= hi

    def test_duo_due(self, get_scheme, get_model):
        predicted, lo, hi = agreement(get_model, get_scheme(Duo), 1e-2, "due")
        assert lo <= predicted <= hi

    def test_pair_due(self, get_scheme, get_model):
        predicted, lo, hi = agreement(get_model, get_scheme(PairScheme), 4e-3, "due")
        assert lo <= predicted <= hi

    def test_pair_correction_region_has_no_failures(self):
        """At moderate BER every weak-cell pattern stays within t = 8."""
        tally = run_iid(
            PairScheme(), iid_rates(2e-4), ExactRunConfig(trials=150, seed=12)
        )
        assert tally.failure_rate == 0.0
        assert tally.ce > 0  # but corrections did happen
