"""Supervised chunk execution: timeouts, retry with backoff, degradation.

Chunks run in worker *processes* (crash isolation: an OOM kill or segfault
loses one attempt, not the campaign).  Each of the ``workers`` slots keeps
one long-lived worker, forked on first use, which receives the scheme,
rates, config and chaos schedule once and then serves ``(spec, attempt,
engine)`` requests over a duplex pipe.  The supervisor blocks on the worker
pipes and process sentinels until the nearest chunk deadline or backoff
ready time, and watches each attempt through three channels:

* the pipe       - the worker reports a tally or a structured error;
* process health - a dead process with no result is a ``crash``;
* a deadline     - a worker past its per-chunk timeout is terminated
  (``timeout``), because a hung chunk must not starve the campaign.

A worker that served a failed attempt is retired, so every retry runs in a
fresh process; a worker that dies while idle is replaced without charging
any chunk.  Failed attempts are retried up to ``retries`` extra times with
exponential backoff plus deterministic jitter (seeded generator - the
REPRO101/102 rules apply here too; jitter affects only wait lengths, never
tallies).  A failure that *raised from the engine* (or produced a
numerically invalid tally) retries on the sequential fallback engine
instead - graceful degradation from the vectorized kernels to the scalar
path, which is bit-identical by the conformance contract.  Chunks that
exhaust their budget are quarantined through a callback and surfaced,
never silently dropped.

Scheduling order never affects results: chunks are deterministic and
tallies merge commutatively, so ``workers=4`` equals ``workers=1`` equals
an uninterrupted sequential run, bit for bit.
"""

from __future__ import annotations

import heapq
import multiprocessing
import multiprocessing.connection
import multiprocessing.util
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..errors import NumericalGuard, guard_tally, guard_weighted
from ..faults.rates import FaultRates
from ..galois.backends import active_backend
from ..obs import metrics as _obs
from ..obs import trace as _obs_trace
from ..reliability.exact import ExactRunConfig
from ..reliability.outcomes import Tally
from ..schemes.base import EccScheme
from .chaos import ChaosSchedule
from .plan import ENGINE_BATCHED, ENGINE_SEQUENTIAL, ChunkSpec, execute_chunk

#: failure kinds the supervisor distinguishes when deciding how to retry.
FAIL_CRASH = "crash"
FAIL_TIMEOUT = "timeout"
FAIL_RAISE = "raise"
FAIL_NUMERICAL = "numerical"

#: failure kinds that trigger engine degradation on the next attempt.
_DEGRADE_ON = frozenset({FAIL_RAISE, FAIL_NUMERICAL})

# Observability (DESIGN.md 6e).  Supervision events are rare relative to the
# decode work they wrap, so these record unconditionally interesting facts:
# retries, per-kind failures, quarantines, engine degradations, and how long
# the supervisor chose to wait before re-dispatching a failed chunk.
_C_CHUNKS_OK = _obs.counter("campaign.chunks_ok")
_C_RETRIES = _obs.counter("campaign.retries")
_C_QUARANTINES = _obs.counter("campaign.quarantines")
_C_FALLBACKS = _obs.counter("campaign.fallback_activations")
_C_FAILURES = {
    kind: _obs.counter(f"campaign.failures.{kind}")
    for kind in (FAIL_CRASH, FAIL_TIMEOUT, FAIL_RAISE, FAIL_NUMERICAL)
}
_C_KILL_ESCALATIONS = _obs.counter("campaign.kill_escalations")
_C_WORKER_LAUNCHES = _obs.counter("campaign.worker_launches")
_C_WORKER_RETIREMENTS = _obs.counter("campaign.worker_retirements")
_H_BACKOFF = _obs.histogram("campaign.backoff_wait_s", _obs.DURATION_BUCKETS_S)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Operational knobs; none of these can affect a campaign's tally."""

    workers: int = 1
    timeout: float = 300.0  # per-chunk wall budget, seconds
    retries: int = 2  # extra attempts after the first
    backoff: float = 0.5  # base backoff, seconds (doubles per attempt)
    backoff_cap: float = 30.0
    term_grace: float = 5.0  # SIGTERM -> SIGKILL escalation window, seconds
    manifest_save_every: int = 8  # manifest debounce (see Manifest.save_every)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class ChunkOutcome:
    """What happened to one chunk across all its attempts."""

    spec: ChunkSpec
    tally: Tally | None = None
    attempts: int = 0
    engine: str = ENGINE_BATCHED
    failures: list[str] = field(default_factory=list)

    @property
    def quarantined(self) -> bool:
        return self.tally is None


@dataclass
class _Job:
    """One in-flight attempt."""

    spec: ChunkSpec
    attempt: int
    engine: str
    deadline: float
    started: float  # monotonic dispatch time (for the chunk span)


@dataclass
class _Worker:
    """One slot's long-lived worker process; ``job`` is None while idle."""

    process: multiprocessing.process.BaseProcess
    conn: Any  # Connection (parent's end of the duplex pipe)
    job: _Job | None = None


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap on POSIX); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def terminate_worker(process: multiprocessing.process.BaseProcess,
                     grace: float = 5.0) -> bool:
    """Terminate ``process``, escalating SIGTERM -> SIGKILL after ``grace``.

    Returns ``True`` when the hard kill was needed (the worker ignored or
    never got to service SIGTERM).  Either way the process is joined - i.e.
    reaped - before returning, so no zombie is left behind; escalations are
    counted in the ``campaign.kill_escalations`` obs counter.
    """
    if not process.is_alive():
        process.join()  # reap an already-dead child
        return False
    process.terminate()
    process.join(timeout=grace)
    if not process.is_alive():
        return False
    process.kill()
    process.join()
    if _obs.enabled():
        _C_KILL_ESCALATIONS.add(1)
    return True


def _worker_loop(conn: Any, kind: str, scheme: EccScheme, rates: FaultRates,
                 config: ExactRunConfig, chaos: ChaosSchedule | None,
                 obs_enabled: bool, backend: str) -> None:
    """Worker-process body: serve ``(spec, attempt, engine)`` requests.

    Each request runs the chaos hooks and the chunk, then reports one frame;
    the loop ends when the supervisor closes its end of the pipe.  When the
    parent has observability on, the worker resets its (possibly
    fork-inherited) registry before each chunk, records that chunk's own
    metrics, and ships the snapshot back alongside the counts; the parent
    absorbs it, so worker metrics merge into one process-local view exactly
    like tallies merge, one chunk per snapshot.

    ``backend`` is the parent's active GF kernel backend name; the chunk
    executor pins it (leniently) so workers inherit the parent's selection
    under both fork and spawn start methods.
    """
    try:
        while True:
            try:
                spec, attempt, engine = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                return  # the supervisor closed the pipe (or ^C): shut down
            try:
                if obs_enabled:
                    _obs.reset()
                    _obs_trace.reset()
                    _obs.enable()
                if chaos is not None:
                    chaos.fire_pre_execute(spec.index, attempt, engine)
                tally = execute_chunk(kind, scheme, rates, config, spec, engine,
                                      backend)
                if chaos is not None:
                    tally = chaos.corrupt_tally(spec.index, attempt, tally)
                snap = (
                    _obs.snapshot(f"chunk-{spec.index}-attempt-{attempt}")
                    if obs_enabled
                    else None
                )
                # 4th element: engine-specific tally sidecar (the rare-event
                # engine's weighted accumulator); None for count-only chunks.
                conn.send(("ok", (tally.ok, tally.ce, tally.due, tally.sdc), snap,
                           tally.extra.get("weighted")))
            except BaseException as exc:  # report, don't propagate: parent classifies
                try:
                    conn.send(("error", type(exc).__name__, str(exc)))
                except OSError:
                    return
    finally:
        conn.close()


class Supervisor:
    """Run a set of chunks under the policy; report through callbacks."""

    def __init__(
        self,
        kind: str,
        scheme: EccScheme,
        rates: FaultRates,
        config: ExactRunConfig,
        policy: SupervisorPolicy,
        chaos: ChaosSchedule | None = None,
        on_success: Callable[[ChunkSpec, Tally, int, str, dict | None], None] | None = None,
        on_quarantine: Callable[[ChunkSpec, str, str, int], None] | None = None,
    ):
        self.kind = kind
        self.scheme = scheme
        self.rates = rates
        self.config = config
        self.policy = policy
        self.chaos = chaos
        self.on_success = on_success
        self.on_quarantine = on_quarantine
        # captured once so every worker (fork or spawn) pins the same GF
        # kernel backend the parent resolved; a perf knob, never a result knob
        self.backend = active_backend().name
        self._ctx = _mp_context()
        # deterministic jitter: affects wait lengths only, never results
        self._jitter_rng = np.random.default_rng([config.seed, 0xBAC0FF])

    # -- lifecycle -------------------------------------------------------------

    def run(self, specs: list[ChunkSpec]) -> dict[int, ChunkOutcome]:
        """Execute ``specs``; returns per-chunk outcomes (also via callbacks)."""
        outcomes = {spec.index: ChunkOutcome(spec=spec) for spec in specs}
        # ready-time priority queue: (ready_at, chunk_index, spec, attempt, engine)
        pending: list[tuple[float, int, ChunkSpec, int, str]] = [
            (0.0, spec.index, spec, 0, ENGINE_BATCHED) for spec in specs
        ]
        heapq.heapify(pending)
        pool: list[_Worker] = []
        try:
            while pending or any(w.job is not None for w in pool):
                self._dispatch(pool, pending)
                self._collect(pool, pending, outcomes, self._wait(pool, pending))
        finally:
            for worker in pool:
                self._stop(worker)
        return outcomes

    def _dispatch(self, pool: list[_Worker], pending: list) -> None:
        """Hand every ready attempt to an idle worker or a newly forked one."""
        busy = sum(w.job is not None for w in pool)
        while pending and busy < self.policy.workers and pending[0][0] <= time.monotonic():
            _, _, spec, attempt, engine = heapq.heappop(pending)
            worker = self._idle_worker(pool) or self._launch(pool)
            started = time.monotonic()
            worker.job = _Job(spec=spec, attempt=attempt, engine=engine,
                              deadline=started + self.policy.timeout,
                              started=started)
            busy += 1
            try:
                worker.conn.send((spec, attempt, engine))
            except OSError:
                pass  # died since the liveness check: its sentinel reports a crash

    def _idle_worker(self, pool: list[_Worker]) -> _Worker | None:
        """A live idle worker, retiring any that died while idle."""
        for worker in [w for w in pool if w.job is None]:
            if worker.process.is_alive():
                return worker
            self._retire(pool, worker)
        return None

    def _launch(self, pool: list[_Worker]) -> _Worker:
        conn, child_conn = self._ctx.Pipe(duplex=True)
        # every later fork (this worker and its siblings included) closes its
        # copy of the parent's end, so a worker reads EOF once the supervisor
        # closes it - or dies - instead of blocking forever
        multiprocessing.util.register_after_fork(conn, type(conn).close)
        process = self._ctx.Process(
            target=_worker_loop,
            args=(child_conn, self.kind, self.scheme, self.rates, self.config,
                  self.chaos, _obs.enabled(), self.backend),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        if _obs.enabled():
            _C_WORKER_LAUNCHES.add(1)
        worker = _Worker(process=process, conn=conn)
        pool.append(worker)
        return worker

    def _wait(self, pool: list[_Worker], pending: list) -> set:
        """Block until a worker reports or dies, a deadline passes, or a
        backed-off attempt becomes ready for a free slot."""
        busy = [w for w in pool if w.job is not None]
        wake = [w.job.deadline for w in busy if w.job is not None]
        if pending and len(busy) < self.policy.workers:
            wake.append(pending[0][0])
        timeout = max(0.0, min(wake) - time.monotonic())
        objects = [w.process.sentinel for w in pool] + [w.conn for w in busy]
        return set(multiprocessing.connection.wait(objects, timeout))

    def _stop(self, worker: _Worker) -> None:
        """Stop a worker: an idle one exits on EOF, a busy or wedged one is
        terminated (SIGTERM, bounded grace, then SIGKILL) and reaped."""
        worker.conn.close()
        if worker.job is None:
            worker.process.join(self.policy.term_grace)
        terminate_worker(worker.process, self.policy.term_grace)

    def _retire(self, pool: list[_Worker], worker: _Worker) -> None:
        """Take a failed or dead worker out of the pool before the run ends."""
        pool.remove(worker)
        self._stop(worker)
        if _obs.enabled():
            _C_WORKER_RETIREMENTS.add(1)

    # -- event handling --------------------------------------------------------

    def _collect(self, pool: list[_Worker], pending: list,
                 outcomes: dict[int, ChunkOutcome], ready: set) -> None:
        """Settle every worker that reported, died or overran its deadline."""
        for worker in list(pool):
            job = worker.job
            if job is None:
                if worker.process.sentinel in ready:
                    self._retire(pool, worker)  # died idle: no chunk to charge
                continue
            message = None
            if worker.conn in ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    pass  # died before reporting: a crash
            if message is not None:
                worker.job = None  # idle again, so an abort in a callback reaps it
                if not self._handle_message(job, message, pending, outcomes):
                    self._retire(pool, worker)
            elif worker.conn in ready or worker.process.sentinel in ready:
                self._retire(pool, worker)
                self._handle_failure(
                    job, FAIL_CRASH,
                    f"worker process died (exit code {worker.process.exitcode}) "
                    f"running chunk {job.spec.index} (seed={job.spec.seed})",
                    pending, outcomes,
                )
            elif time.monotonic() > job.deadline:
                self._retire(pool, worker)
                self._handle_failure(
                    job, FAIL_TIMEOUT,
                    f"chunk {job.spec.index} (seed={job.spec.seed}) exceeded "
                    f"its {self.policy.timeout:.1f}s budget and was terminated",
                    pending, outcomes,
                )

    def _handle_message(self, job: _Job, message: tuple, pending: list,
                        outcomes: dict[int, ChunkOutcome]) -> bool:
        """Settle a reported attempt; returns True when it succeeded."""
        if message[0] == "ok":
            _, counts, snap, weighted = message
            context = f"chunk {job.spec.index} (seed={job.spec.seed})"
            try:
                guard_tally(counts, expected_total=job.spec.trials, context=context)
                if weighted is not None:
                    guard_weighted(weighted, expected_total=job.spec.trials,
                                   context=context)
            except NumericalGuard as exc:
                self._handle_failure(job, FAIL_NUMERICAL, str(exc), pending, outcomes)
                return False
            tally = Tally(ok=counts[0], ce=counts[1], due=counts[2], sdc=counts[3],
                          extra={"weighted": weighted} if weighted else {})
            outcome = outcomes[job.spec.index]
            outcome.tally = tally
            outcome.attempts = job.attempt + 1
            outcome.engine = job.engine
            span_dict = None
            if _obs.enabled():
                _C_CHUNKS_OK.add(1)
                if snap is not None:
                    _obs.absorb(snap)
                rec = _obs_trace.record_span(
                    "campaign.chunk",
                    time.monotonic() - job.started,
                    chunk=job.spec.index,
                    attempt=job.attempt + 1,
                    engine=job.engine,
                    trials=job.spec.trials,
                )
                span_dict = rec.as_dict() if rec is not None else None
            if self.on_success is not None:
                self.on_success(job.spec, tally, job.attempt + 1, job.engine, span_dict)
            return True
        _, exc_type, exc_message = message
        self._handle_failure(
            job, FAIL_RAISE,
            f"chunk {job.spec.index} (seed={job.spec.seed}) raised "
            f"{exc_type}: {exc_message}",
            pending, outcomes,
        )
        return False

    def _handle_failure(self, job: _Job, kind: str, message: str, pending: list,
                        outcomes: dict[int, ChunkOutcome]) -> None:
        outcome = outcomes[job.spec.index]
        outcome.failures.append(f"attempt {job.attempt} [{job.engine}] {kind}: {message}")
        if _obs.enabled():
            _C_FAILURES[kind].add(1)
        attempts_done = job.attempt + 1
        if attempts_done > self.policy.retries:
            outcome.attempts = attempts_done
            if _obs.enabled():
                _C_QUARANTINES.add(1)
            if self.on_quarantine is not None:
                self.on_quarantine(job.spec, kind, message, attempts_done)
            return
        engine = ENGINE_SEQUENTIAL if kind in _DEGRADE_ON else job.engine
        delay = min(self.policy.backoff_cap, self.policy.backoff * 2**job.attempt)
        jitter = 0.5 + float(self._jitter_rng.random())  # in [0.5, 1.5)
        if _obs.enabled():
            _C_RETRIES.add(1)
            if engine != job.engine:
                _C_FALLBACKS.add(1)
            _H_BACKOFF.observe(delay * jitter)
        ready_at = time.monotonic() + delay * jitter
        heapq.heappush(
            pending, (ready_at, job.spec.index, job.spec, attempts_done, engine)
        )
