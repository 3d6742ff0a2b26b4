"""Campaign end-to-end: supervision, degradation, checkpoint/resume.

The headline contract under test: a campaign that suffers crashes, hangs,
corrupted tallies and a mid-run kill still completes (via retry, timeout
enforcement, engine degradation and resume), and its merged tally is
bit-identical to one uninterrupted sequential run of the same seed.
"""

import multiprocessing

import pytest

from repro import obs
from repro.campaign import (
    CampaignConfig,
    ChaosSchedule,
    Manifest,
    Supervisor,
    SupervisorPolicy,
    campaign_status,
    resume_campaign,
    start_campaign,
)
from repro.campaign.plan import execute_chunk
from repro.errors import CampaignAborted, CampaignError, EngineMismatch
from repro.faults import DEFAULT_RATES, FaultType
from repro.galois.backends import active_backend
from repro.reliability import ExactRunConfig, run_iid, run_single_fault
from repro.schemes import default_schemes

RATES = DEFAULT_RATES.with_ber(3e-3)
TRIALS, SEED, CHUNK = 32, 7, 8  # -> 4 chunks


def counts(tally):
    return (tally.ok, tally.ce, tally.due, tally.sdc)


def config(**overrides):
    base = dict(scheme="pair", trials=TRIALS, seed=SEED, chunk_trials=CHUNK,
                rates=RATES)
    base.update(overrides)
    return CampaignConfig(**base)


def policy(**overrides):
    base = dict(workers=1, timeout=30.0, retries=2, backoff=0.01)
    base.update(overrides)
    return SupervisorPolicy(**base)


@pytest.fixture(scope="module")
def pair_scheme():
    return next(s for s in default_schemes() if s.name == "pair")


@pytest.fixture(scope="module")
def reference(pair_scheme):
    """The uninterrupted sequential engine run every campaign must match."""
    return run_iid(pair_scheme, RATES, ExactRunConfig(trials=TRIALS, seed=SEED))


class TestHappyPath:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_bit_identical_to_sequential(self, tmp_path, reference, workers):
        result = start_campaign(tmp_path, config(), policy(workers=workers))
        assert result.complete
        assert counts(result.tally) == counts(reference)

    def test_single_fault_kind_matches_engine(self, tmp_path, pair_scheme):
        ref = run_single_fault(
            pair_scheme, FaultType.ROW, RATES, ExactRunConfig(trials=16, seed=2)
        )
        result = start_campaign(
            tmp_path, config(kind="single:row", trials=16, seed=2), policy()
        )
        assert result.complete
        assert counts(result.tally) == counts(ref)

    def test_rerun_on_complete_campaign_is_noop(self, tmp_path, reference):
        start_campaign(tmp_path, config(), policy())
        again = start_campaign(tmp_path, config(), policy())
        assert again.complete
        assert counts(again.tally) == counts(reference)


class TestChaosRecovery:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_crash_and_hang_recovered_then_resume_bit_identical(
        self, tmp_path, reference, workers
    ):
        # Acceptance scenario: one chunk's worker crashes, another hangs past
        # its deadline, and the campaign is killed mid-run after 3 commits.
        # Retry + timeout-terminate + resume must still converge on the
        # uninterrupted reference, at workers=1 and workers=4.
        chaos = ChaosSchedule.parse("crash:1,hang:2,abort:3")
        pol = policy(workers=workers, timeout=1.0)
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), pol, chaos)
        status = campaign_status(tmp_path)
        assert 0 < status["chunks_done"] < status["total_chunks"]
        result = resume_campaign(tmp_path, policy(workers=workers))
        assert result.complete
        assert counts(result.tally) == counts(reference)
        manifest = Manifest.load(tmp_path)
        # the crashed and hung chunks took more than one attempt
        assert manifest.chunks[1].attempts >= 2 or manifest.chunks[2].attempts >= 2

    def test_batched_kernel_failure_degrades_to_sequential(
        self, tmp_path, reference
    ):
        # "raise" fires on every batched attempt: only the sequential
        # fallback can complete chunk 0.
        result = start_campaign(
            tmp_path, config(), policy(), ChaosSchedule.parse("raise:0")
        )
        assert result.complete
        assert counts(result.tally) == counts(reference)
        manifest = Manifest.load(tmp_path)
        assert manifest.chunks[0].engine == "sequential"
        assert manifest.chunks[0].attempts == 2
        assert manifest.chunks[1].engine == "batched"

    def test_corrupt_tally_is_guarded_not_merged(self, tmp_path, reference):
        result = start_campaign(
            tmp_path, config(), policy(), ChaosSchedule.parse("corrupt:2")
        )
        assert result.complete
        assert counts(result.tally) == counts(reference)
        assert Manifest.load(tmp_path).chunks[2].attempts == 2

    def test_persistent_crash_quarantines_then_resume_finishes(
        self, tmp_path, reference
    ):
        chaos = ChaosSchedule.parse("crash:1@0|1")
        result = start_campaign(tmp_path, config(), policy(retries=1), chaos)
        assert not result.complete
        assert sorted(result.quarantined) == [1]
        assert result.quarantined[1].error == "crash"
        assert result.chunks_done == 3
        # quarantine is surfaced, not silently dropped: the partial tally
        # covers exactly the other chunks' trials
        assert result.tally.total == TRIALS - CHUNK
        resumed = resume_campaign(tmp_path, policy())
        assert resumed.complete
        assert counts(resumed.tally) == counts(reference)

    def test_hang_is_classified_as_timeout(self, tmp_path):
        chaos = ChaosSchedule.parse("hang:0@0|1")
        result = start_campaign(
            tmp_path, config(), policy(retries=1, timeout=0.5), chaos
        )
        assert sorted(result.quarantined) == [0]
        assert result.quarantined[0].error == "timeout"


@pytest.fixture()
def obs_on():
    """Observability on with a clean registry; off and empty afterwards."""
    obs.reset_all()
    with obs.enabled_scope(True):
        yield
    obs.reset_all()


def supervisor_counters():
    counters = obs.snapshot()["counters"]
    return (counters.get("campaign.worker_launches", 0),
            counters.get("campaign.worker_retirements", 0))


class TestWorkerReuse:
    """One long-lived worker per slot; any failed attempt retires its worker."""

    TWELVE = dict(trials=12 * CHUNK)

    def test_clean_campaign_launches_one_worker_per_slot(self, tmp_path, obs_on):
        result = start_campaign(tmp_path, config(**self.TWELVE), policy(workers=2))
        assert result.complete
        assert supervisor_counters() == (2, 0)

    def test_crash_retires_the_worker_and_launches_a_fresh_one(
        self, tmp_path, obs_on
    ):
        result = start_campaign(tmp_path, config(**self.TWELVE), policy(workers=2),
                                ChaosSchedule.parse("crash:1"))
        assert result.complete
        assert supervisor_counters() == (3, 1)

    def test_raise_retires_the_worker_that_raised(self, tmp_path, obs_on):
        result = start_campaign(tmp_path, config(), policy(),
                                ChaosSchedule.parse("raise:0"))
        assert result.complete
        # the worker survived the raise but served a failed attempt, so the
        # sequential retry ran in a fresh process
        assert supervisor_counters() == (2, 1)

    def test_idle_worker_death_is_replaced_without_charging_a_chunk(
        self, reference
    ):
        plan = config().build_plan()
        killed = []

        def kill_idle_worker(spec, tally, attempts, engine, span):
            if not killed:  # the worker that just reported is idle now
                (child,) = multiprocessing.active_children()
                child.kill()
                child.join()
                killed.append(child)

        sup = Supervisor("iid", plan.scheme, RATES, plan.config, policy(),
                         on_success=kill_idle_worker)
        outcomes = sup.run(list(plan.chunks))
        assert killed
        assert all(o.attempts == 1 and not o.failures for o in outcomes.values())
        merged = outcomes[0].tally
        for index in range(1, len(outcomes)):
            merged = merged.merge(outcomes[index].tally)
        assert counts(merged) == counts(reference)
        assert not multiprocessing.active_children()

    def test_idle_workers_exit_on_their_own_at_the_end(self):
        # every fork closes its copies of the parent's pipe ends, so closing
        # them makes idle workers read EOF and exit 0 rather than be signalled
        plan = config().build_plan()
        seen = set()

        def remember_workers(spec, tally, attempts, engine, span):
            seen.update(multiprocessing.active_children())

        sup = Supervisor("iid", plan.scheme, RATES, plan.config,
                         policy(workers=2, term_grace=30.0),
                         on_success=remember_workers)
        sup.run(list(plan.chunks))
        assert len(seen) == 2
        assert [p.exitcode for p in seen] == [0, 0]


class TestWorkerLifecycle:
    """No exit path leaves a worker process behind."""

    def test_normal_run_reaps_workers(self, tmp_path):
        assert start_campaign(tmp_path, config(), policy(workers=2)).complete
        assert not multiprocessing.active_children()

    def test_abort_reaps_busy_and_idle_workers(self, tmp_path):
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(workers=2),
                           ChaosSchedule.parse("abort:1"))
        assert not multiprocessing.active_children()

    def test_quarantined_hang_reaps_workers(self, tmp_path):
        result = start_campaign(tmp_path, config(), policy(workers=2, retries=0,
                                                           timeout=0.5),
                                ChaosSchedule.parse("hang:0"))
        assert sorted(result.quarantined) == [0]
        assert not multiprocessing.active_children()


class TestObsWithReusedWorkers:
    """Each shipped snapshot covers exactly one chunk, so reused workers
    cannot double count, and obs never moves the tally."""

    @pytest.fixture(scope="class")
    def inline_counters(self):
        plan = config().build_plan()
        backend = active_backend().name
        obs.reset_all()
        with obs.enabled_scope(True):
            for spec in plan.chunks:
                execute_chunk("iid", plan.scheme, RATES, plan.config, spec,
                              backend=backend)
            counters = obs.snapshot()["counters"]
        obs.reset_all()
        return counters

    @pytest.mark.parametrize("workers", [1, 2])
    def test_absorbed_counters_equal_the_inline_plan(
        self, tmp_path, reference, inline_counters, workers
    ):
        with obs.enabled_scope(False):
            off = start_campaign(tmp_path / "off", config(), policy(workers=workers))
        obs.reset_all()
        with obs.enabled_scope(True):
            on = start_campaign(tmp_path / "on", config(), policy(workers=workers))
            counters = obs.snapshot()["counters"]
        obs.reset_all()
        assert counts(on.tally) == counts(off.tally) == counts(reference)
        assert inline_counters["rs.decode.words"] > 0
        absorbed = {name: value for name, value in counters.items()
                    if not name.startswith("campaign.")}
        assert absorbed == inline_counters


class TestResumeRefusals:
    def test_mismatched_config_refused(self, tmp_path):
        chaos = ChaosSchedule.parse("abort:1")
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(), chaos)
        with pytest.raises(EngineMismatch):
            start_campaign(tmp_path, config(seed=SEED + 1), policy())
        with pytest.raises(EngineMismatch):
            start_campaign(
                tmp_path, config(rates=DEFAULT_RATES.with_ber(1e-6)), policy()
            )

    def test_resume_without_manifest_refused(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign manifest"):
            resume_campaign(tmp_path)

    def test_operational_knobs_do_not_affect_fingerprint(self, tmp_path, reference):
        # workers/timeout/retries may change between run and resume freely.
        chaos = ChaosSchedule.parse("abort:2")
        with pytest.raises(CampaignAborted):
            start_campaign(tmp_path, config(), policy(workers=1), chaos)
        result = resume_campaign(
            tmp_path, policy(workers=4, timeout=10.0, retries=0)
        )
        assert result.complete
        assert counts(result.tally) == counts(reference)


class TestValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign kind"):
            config(kind="bogus")
        with pytest.raises(ValueError, match="unknown fault type"):
            config(kind="single:bogus")

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError):
            config(trials=0)

    def test_no_worker_slots_rejected(self):
        # with no slot nothing could ever run: refuse instead of waiting forever
        with pytest.raises(ValueError, match="workers must be at least 1"):
            policy(workers=0)

    def test_unknown_scheme_surfaces(self, tmp_path):
        with pytest.raises(CampaignError, match="unknown scheme"):
            start_campaign(tmp_path, config(scheme="nope"), policy())
