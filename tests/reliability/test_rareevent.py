"""Statistical correctness of the rare-event tier.

The importance-sampling and splitting estimators are only useful if their
unbiasedness is *proven*, not trusted: a subtly wrong likelihood ratio
produces confident garbage exactly in the tails this tier exists to
resolve.  Three lines of defense:

* agreement with the independently-validated analytic closed forms,
  within the estimator's own confidence bands, across a
  (scheme, ber, tilt) grid driven by hypothesis;
* exact finite-sample checks: the degenerate tilt reproduces the decode
  engine bit for bit, and a fixed-seed ensemble of tilted runs brackets
  the exact ``binom_tail`` answer on a scheme simple enough to have one;
* numerical guard rails: log-weights stay finite at absurd tilts, and a
  collapsed-weight run raises ``NumericalGuard`` instead of returning a
  silently meaningless tally.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NumericalGuard
from repro.faults import FaultRates
from repro.reliability import (
    ExactRunConfig,
    RareEventParams,
    at_least_one,
    binom_tail,
    line_law,
    run_iid_batched,
    run_rareevent_iid,
    run_splitting_iid,
    weighted_summary,
)
from repro.reliability.rareevent import (
    _RNG_TAG_IS,
    COMBINE_FLAG_DUE,
    COMBINE_XED,
    auto_tilt,
    rareevent_chunk_tally,
    require_pure_ber,
    resolve_tilt,
    tilted_rate,
)
from repro.reliability.stats import weighted_tally
from repro.schemes import ConventionalIecc, Duo, NoEcc, PairScheme, Xed

SETTINGS = settings(derandomize=True, deadline=None, max_examples=10)


def iid_rates(ber):
    return FaultRates(
        single_cell_ber=ber, cell_cluster_per_bit=0.0,
        row_faults_per_device=0.0, column_faults_per_device=0.0,
        pin_faults_per_device=0.0, mat_faults_per_device=0.0,
        transfer_burst_per_access=0.0,
    )


def run_is(scheme, ber, trials, seed, tilt="auto", defensive=0.05):
    return run_rareevent_iid(
        scheme, iid_rates(ber), ExactRunConfig(trials=trials, seed=seed),
        RareEventParams(tilt=tilt, defensive=defensive, samples=300),
    )


class TestTiltMath:
    def test_zero_tilt_is_identity(self):
        assert tilted_rate(1e-4, 0.0) == pytest.approx(1e-4, rel=1e-12)

    def test_tilt_shifts_log_odds(self):
        q = 1e-3
        got = tilted_rate(q, 2.0)
        odds = (q / (1 - q)) * math.exp(2.0)
        assert got == pytest.approx(odds / (1 + odds), rel=1e-12)

    def test_auto_tilt_targets_failure_radius(self, get_scheme):
        law = line_law(get_scheme(PairScheme), 1e-4, samples=50)
        q_star = tilted_rate(law.q, auto_tilt(law))
        assert q_star == pytest.approx(law.k_fail / law.n, rel=1e-9)

    def test_resolve_rejects_unknown_string(self, get_scheme):
        law = line_law(get_scheme(NoEcc), 1e-4)
        with pytest.raises(ValueError, match="'auto'"):
            resolve_tilt("steep", law)

    def test_require_pure_ber_names_offending_rates(self):
        with pytest.raises(ValueError, match="row_faults_per_device"):
            require_pure_ber(FaultRates(single_cell_ber=1e-5))
        assert require_pure_ber(iid_rates(1e-5)) == 1e-5


class TestAgreementWithClosedForms:
    """Tilted estimates sit inside their own bands around the analytic value."""

    @SETTINGS
    @given(
        scheme_ber=st.sampled_from(
            [(PairScheme, 1e-4), (PairScheme, 3e-4), (Duo, 1e-4),
             (Xed, 1e-4), (Xed, 3e-5), (NoEcc, 1e-5)]
        ),
        seed=st.integers(min_value=0, max_value=3),
        tilt_scale=st.sampled_from([0.75, 1.0, 1.25]),
    )
    def test_fail_estimate_within_band(self, scheme_ber, seed, tilt_scale,
                                       get_scheme, get_model):
        factory, ber = scheme_ber
        scheme = get_scheme(factory)
        law = line_law(scheme, ber, samples=300)
        result = run_is(scheme, ber, trials=150_000, seed=seed,
                        tilt=auto_tilt(law) * tilt_scale)
        ref = get_model(scheme, 300).line_probs(ber)
        ref_fail = ref["sdc"] + ref["due"]
        fail = result.estimates()["outcomes"]["fail"]
        # the asymptotic HT interval must cover the closed form (with a 2x
        # slack factor on the margin: the CI itself is an estimate)
        margin = 2.0 * max(fail["ci_hi"] - fail["p_ht"],
                           fail["p_ht"] - fail["ci_lo"])
        assert abs(fail["p_ht"] - ref_fail) <= margin + 1e-300
        # and the conservative Wilson-over-ESS band covers it too
        assert fail["wilson_lo"] - 1e-12 <= ref_fail <= fail["wilson_hi"] + 1e-12

    def test_deep_tail_relative_accuracy(self, get_scheme, get_model):
        # the acceptance-criterion regime: a ~4e-11 tail resolved to a few
        # percent from 2e5 count-level proposals
        scheme = get_scheme(PairScheme)
        result = run_is(scheme, 1e-4, trials=200_000, seed=0)
        ref = get_model(scheme, 300).line_probs(1e-4)
        fail = result.estimates()["outcomes"]["fail"]
        assert fail["ci_lo"] > 0.0  # CI excludes zero
        assert fail["p_ht"] == pytest.approx(ref["sdc"] + ref["due"], rel=0.1)


class TestDegenerateTilt:
    def test_tilt_zero_bit_identical_to_batched(self, get_scheme):
        scheme = get_scheme(Xed)
        config = ExactRunConfig(trials=64, seed=5)
        rates = iid_rates(2e-3)
        reference = run_iid_batched(scheme, rates, config)
        result = run_rareevent_iid(scheme, rates, config,
                                   RareEventParams(tilt=0.0))
        got = result.tally
        assert (got.ok, got.ce, got.due, got.sdc) == (
            reference.ok, reference.ce, reference.due, reference.sdc
        )
        assert result.estimator == "exact"
        # unit weights: ESS equals the trial count, SN equals HT equals
        # the plain proportion
        est = result.estimates()
        assert est["ess"] == pytest.approx(64)
        due = est["outcomes"]["due"]
        assert due["p_ht"] == pytest.approx(reference.due / 64)
        assert due["p_sn"] == pytest.approx(reference.due / 64)

    def test_structured_rates_refused_for_tilted_runs(self, get_scheme):
        with pytest.raises(ValueError, match="weak-cell"):
            run_rareevent_iid(
                get_scheme(PairScheme), FaultRates(single_cell_ber=1e-4),
                ExactRunConfig(trials=100, seed=0),
                RareEventParams(tilt=2.0),
            )


# -- dense oracle of one tilted chunk ------------------------------------------
#
# The engine classifies only the words that can fail and gathers log-weights
# from per-count tables.  This is the direct evaluation it must reproduce
# bit for bit: every word classified, every log-weight computed elementwise.


def dense_log_weights(law, counts, q_tilt, defensive):
    a = math.log(q_tilt) - math.log(law.q)
    b = math.log1p(-q_tilt) - math.log1p(-law.q)
    ell = counts * a + (law.n - counts) * b  # (trials, words)
    peak = ell.max(axis=1)
    log_mix = (
        peak
        + np.log(np.exp(ell - peak[:, None]).sum(axis=1))
        - math.log(law.words)
    )
    if defensive > 0.0:
        log_ratio = np.logaddexp(
            math.log(defensive), math.log1p(-defensive) + log_mix
        )
    else:
        log_ratio = log_mix
    return -log_ratio


def dense_word_states(rng, law, counts):
    clipped = np.minimum(counts, len(law.p_flag) - 1)
    u = rng.random(counts.shape)
    flagged = u < law.p_flag[clipped]
    bad = (~flagged) & (u < law.p_flag[clipped] + law.p_bad[clipped])
    return flagged, bad


def dense_outcomes(law, counts, flagged, bad):
    touched = counts.sum(axis=1) > 0
    if law.combine == COMBINE_FLAG_DUE:
        due = flagged.any(axis=1)
        sdc = ~due & bad.any(axis=1)
    else:
        assert law.combine == COMBINE_XED
        data = law.words - 1
        n_flags = flagged.sum(axis=1)
        due = n_flags >= 2
        one = n_flags == 1
        lane = flagged.argmax(axis=1)
        any_bad = bad.any(axis=1)
        any_data_bad = bad[:, :data].any(axis=1)
        sdc = ~due & (
            (one & (lane < data) & any_bad)
            | (one & (lane == data) & any_data_bad)
            | ((n_flags == 0) & any_data_bad)
        )
    ce = touched & ~due & ~sdc
    ok = ~touched & ~due & ~sdc
    return {"ok": ok, "ce": ce, "due": due, "sdc": sdc}


def dense_chunk(law, seed, trials, tilt, defensive):
    """(outcome counts, weighted accumulator) of chunk 0, densely."""
    q_tilt = tilted_rate(law.q, tilt)
    rng = np.random.default_rng([seed, _RNG_TAG_IS, 0])
    arm = rng.random(trials)
    word = rng.integers(law.words, size=trials)
    counts = rng.binomial(law.n, law.q, size=(trials, law.words))
    tilted = rng.binomial(law.n, q_tilt, size=trials)
    take_tilt = arm >= defensive
    counts[take_tilt, word[take_tilt]] = tilted[take_tilt]
    log_w = dense_log_weights(law, counts, q_tilt, defensive)
    masks = dense_outcomes(law, counts, *dense_word_states(rng, law, counts))
    return (
        {name: int(mask.sum()) for name, mask in masks.items()},
        weighted_tally(
            {name: int(mask.sum()) for name, mask in masks.items()},
            {name: log_w[mask] for name, mask in masks.items()},
            estimator="is", tilt=tilt, defensive=defensive,
        ),
    )


class TestSparseSamplerMatchesDenseOracle:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        factory=st.sampled_from([PairScheme, Duo, Xed, ConventionalIecc, NoEcc]),
        ber=st.floats(3e-5, 1e-3),
        tilt=st.one_of(st.just("auto"), st.floats(-4.0, 12.0)),
        defensive=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical(self, factory, ber, tilt, defensive, seed, get_scheme):
        scheme = get_scheme(factory)
        law = line_law(scheme, ber, samples=100)
        tilt = resolve_tilt(tilt, law)
        trials = 3_000
        tally = rareevent_chunk_tally(
            scheme, iid_rates(ber), ExactRunConfig(trials=trials, seed=seed),
            {"start": 0, "trials": trials, "tilt": tilt, "defensive": defensive,
             "samples": 100, "table_seed": 0},
        )
        counts, weighted = dense_chunk(law, seed, trials, tilt, defensive)
        assert counts == {"ok": tally.ok, "ce": tally.ce, "due": tally.due,
                          "sdc": tally.sdc}
        assert weighted == tally.extra["weighted"]


class TestLogWeightStability:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @SETTINGS
    @given(tilt=st.sampled_from([6.0, 9.0, 12.0, -4.0]))
    def test_extreme_tilts_keep_finite_log_weights(self, tilt, get_scheme):
        # absurd tilts must degrade ESS, never overflow: every log-sum in
        # the accumulator stays finite (None only for empty outcomes)
        scheme = get_scheme(Xed)
        tally = rareevent_chunk_tally(
            scheme, iid_rates(1e-4), ExactRunConfig(trials=2_000, seed=1),
            {"start": 0, "trials": 2_000, "tilt": tilt, "defensive": 0.05,
             "samples": 100, "table_seed": 0},
        )
        weighted = tally.extra["weighted"]
        for name, row in weighted["outcomes"].items():
            if row["count"]:
                assert math.isfinite(row["log_w"]), name
                assert math.isfinite(row["log_w2"]), name
        est = weighted_summary(weighted)
        assert math.isfinite(est["ess"]) and est["ess"] > 0

    def test_defensive_mass_bounds_weights(self, get_scheme):
        # with defensive mass lambda, no weight exceeds 1/lambda: the log-sum
        # of n weights is at most log(n/lambda)
        scheme = get_scheme(Xed)
        trials, defensive = 5_000, 0.1
        tally = rareevent_chunk_tally(
            scheme, iid_rates(1e-4), ExactRunConfig(trials=trials, seed=2),
            {"start": 0, "trials": trials, "tilt": 8.0,
             "defensive": defensive, "samples": 100, "table_seed": 0},
        )
        total = None
        for row in tally.extra["weighted"]["outcomes"].values():
            if row["log_w"] is not None:
                total = row["log_w"] if total is None else float(
                    np.logaddexp(total, row["log_w"])
                )
        assert total <= math.log(trials / defensive) + 1e-9


class TestUnbiasedness:
    def test_ensemble_mean_brackets_exact_binom_tail(self, get_scheme):
        # no-ecc is exactly solvable: p_fail = P(Bin(512, ber) >= 1).  The
        # HT estimator is unbiased, so a fixed-seed ensemble mean must land
        # within its own ensemble standard error of the truth.
        scheme = get_scheme(NoEcc)
        ber = 1e-6
        exact = binom_tail(512, 1, ber)
        estimates = [
            run_is(scheme, ber, trials=4_000, seed=seed, tilt=6.0)
            .estimates()["outcomes"]["fail"]["p_ht"]
            for seed in range(24)
        ]
        mean = float(np.mean(estimates))
        stderr = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
        assert abs(mean - exact) <= 4.0 * stderr
        assert exact == pytest.approx(at_least_one(ber, 512), rel=1e-9)

    def test_ess_floor_raises_numerical_guard(self, get_scheme):
        # a tilt far past the failure radius collapses the weights; the
        # engine must refuse, not return a silently biased tally
        with pytest.raises(NumericalGuard, match="ESS"):
            run_rareevent_iid(
                get_scheme(NoEcc), iid_rates(1e-6),
                ExactRunConfig(trials=300, seed=0),
                RareEventParams(tilt=14.0, defensive=0.0,
                                min_ess=8.0),
            )

    def test_workers_do_not_change_the_result(self, get_scheme):
        # chunk RNG streams are keyed by chunk start, so for a fixed
        # chunking the worker count is pure throughput: tallies and the
        # weighted accumulators come out bit-identical
        scheme = get_scheme(Xed)
        one = run_rareevent_iid(
            scheme, iid_rates(1e-4), ExactRunConfig(trials=40_000, seed=3),
            RareEventParams(tilt="auto", samples=300),
            workers=1, chunk_trials=10_000,
        )
        two = run_rareevent_iid(
            scheme, iid_rates(1e-4), ExactRunConfig(trials=40_000, seed=3),
            RareEventParams(tilt="auto", samples=300),
            workers=2, chunk_trials=10_000,
        )
        assert one.tally.extra["weighted"] == two.tally.extra["weighted"]
        assert (one.tally.ok, one.tally.ce, one.tally.due, one.tally.sdc) == (
            two.tally.ok, two.tally.ce, two.tally.due, two.tally.sdc
        )


class TestSplitting:
    def test_tail_matches_closed_form_ladder(self, get_scheme):
        # P(max word count >= k) has an exact closed form; the estimated
        # level-ratio product must agree within the delta-method CI
        scheme = get_scheme(PairScheme)
        result = run_splitting_iid(scheme, iid_rates(1e-4), effort=2_048,
                                   seed=3, samples=300)
        assert result.k == 9
        spread = math.exp(3.0 * result.rel_se)
        assert result.tail_closed_form / spread <= result.p_tail \
            <= result.tail_closed_form * spread

    def test_fail_matches_analytic(self, get_scheme, get_model):
        scheme = get_scheme(PairScheme)
        result = run_splitting_iid(scheme, iid_rates(1e-4), effort=2_048,
                                   seed=1, samples=300)
        ref = get_model(scheme, 300).line_probs(1e-4)
        lo, hi = result.interval(result.p_fail, z=3.0)
        assert lo <= ref["sdc"] + ref["due"] <= hi
        assert lo > 0.0

    def test_deterministic_in_seed(self, get_scheme):
        scheme = get_scheme(Duo)
        a = run_splitting_iid(scheme, iid_rates(1e-4), effort=512, seed=9,
                              samples=100)
        b = run_splitting_iid(scheme, iid_rates(1e-4), effort=512, seed=9,
                              samples=100)
        assert a.as_dict() == b.as_dict()

    def test_zero_survivors_raises_guard(self, get_scheme):
        # effort=1 cannot climb an 9-level ladder; the run must refuse
        with pytest.raises(NumericalGuard, match="survivors"):
            run_splitting_iid(get_scheme(PairScheme), iid_rates(1e-5),
                              effort=1, seed=0, samples=50)

    def test_zero_ber_short_circuits(self, get_scheme):
        result = run_splitting_iid(get_scheme(Duo), iid_rates(0.0),
                                   effort=64, seed=0, samples=50)
        assert result.p_tail == 0.0
        assert result.p_fail == 0.0
