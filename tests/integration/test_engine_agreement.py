"""Engine agreement: exact datapath MC vs count-level sampling vs analytic.

The reliability story rests on independent implementations of the same
question ("what fraction of reads fail?") with very different mechanics:
the exact decoder-in-the-loop engine, the count-level rare-event samplers
and the analytic closed forms.  At a BER where all of them have
statistics, they must agree.
"""

import pytest

from repro.faults import FaultRates
from repro.reliability import (
    ExactRunConfig,
    RareEventParams,
    run_iid,
    run_rareevent_iid,
    run_splitting_iid,
    wilson_interval,
)
from repro.schemes import Duo, PairScheme


def iid_rates(ber):
    return FaultRates(
        single_cell_ber=ber, row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


@pytest.mark.parametrize(
    "scheme_factory,ber",
    [(PairScheme, 3e-3), (Duo, 1e-2)],
    ids=["pair", "duo"],
)
def test_three_engines_agree_on_due(scheme_factory, ber, get_scheme, get_model):
    """Analytic DUE sits inside the exact engine's confidence band; the
    count-level sampler joins in :func:`test_rareevent_engine_joins_the_agreement`."""
    scheme = get_scheme(scheme_factory)
    exact_trials = 300
    exact = run_iid(scheme, iid_rates(ber), ExactRunConfig(trials=exact_trials, seed=21))
    analytic = get_model(scheme, 300, seed=21).line_probs(ber)["due"]

    lo, hi = wilson_interval(exact.due, exact_trials)
    slack = 0.03
    assert lo - slack <= analytic <= hi + slack


@pytest.mark.parametrize(
    "scheme_factory,ber",
    [(PairScheme, 3e-3), (Duo, 1e-2)],
    ids=["pair", "duo"],
)
def test_rareevent_engine_joins_the_agreement(
    scheme_factory, ber, get_scheme, get_model
):
    """The tilted estimator must agree with the other engines where they
    all have statistics - not only in the deep tail it was built for."""
    scheme = get_scheme(scheme_factory)
    exact_trials = 300
    exact = run_iid(
        scheme, iid_rates(ber), ExactRunConfig(trials=exact_trials, seed=21)
    )
    analytic = get_model(scheme, 300, seed=21).line_probs(ber)
    rare = run_rareevent_iid(
        scheme, iid_rates(ber), ExactRunConfig(trials=60_000, seed=21),
        RareEventParams(tilt="auto", samples=300, table_seed=21),
    )
    fail_est = rare.estimates()["outcomes"]["fail"]

    # inside the (slightly widened) exact engine's confidence band
    lo, hi = wilson_interval(exact.due + exact.sdc, exact_trials)
    slack = 0.03
    assert lo - slack <= fail_est["p_ht"] <= hi + slack
    # and tightly on the analytic closed form (same conditional tables)
    assert fail_est["p_ht"] == pytest.approx(
        analytic["due"] + analytic["sdc"], rel=0.15
    )


def test_splitting_engine_joins_the_agreement(get_scheme, get_model):
    scheme = get_scheme(PairScheme)
    ber = 3e-3
    analytic = get_model(scheme, 300, seed=21).line_probs(ber)
    split = run_splitting_iid(scheme, iid_rates(ber), effort=4_096, seed=21,
                              samples=300, table_seed=21)
    lo, hi = split.interval(split.p_fail, z=3.0)
    assert lo <= analytic["due"] + analytic["sdc"] <= hi
