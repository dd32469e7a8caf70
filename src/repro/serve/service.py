"""The shot-parallel RTM service: a deterministic survey scheduler.

Production RTM is embarrassingly parallel across shots — Section 3.2's
image is "summed over the sources s" — so the operational problem is not
the stencil, it is the *farm*: admit surveys, shard their shots across
worker nodes, survive the workers that die mid-shot, and still produce
an image bitwise-equal to the fault-free serial stack.

:class:`SurveyScheduler` is that farm, run entirely on simulated time:

* **Dispatch** is an event loop over a bounded :class:`~repro.serve.
  queue.ShotQueue`. Each shot's outcome and duration are computed at
  dispatch (the physics runs eagerly; the *schedule* replays it on the
  simulated clock), completions retire in ``(time, worker)`` order, and
  no step of the loop consults a wall clock or unseeded RNG — the same
  seed and config reproduce the same timeline exactly.
* **Execution** wraps every worker in the resilience ladder. A worker is
  one simulated node: one card by default (shots run under
  :class:`~repro.resilience.recovery.ResilientPipeline`, whose contract
  is a bitwise-identical image under recovered faults), or a
  multi-card node (``gpus > 1``) whose node harness is a
  :class:`~repro.resilience.recovery.ResilientMultiGpu` — a dead card
  re-decomposes onto the survivors and the run is verified against the
  decomposition-free oracle. A :class:`~repro.utils.errors.
  DeviceLostError` that escapes the ladder kills the worker; its
  in-flight shot is requeued (front of queue, backoff-charged) to the
  survivors.
* **Stacking** accumulates raw shot images in canonical shot order, not
  completion order — float32 addition does not commute, so this is what
  makes the image invariant to worker count, arrival order and fault
  plan.
* **Poison shots** (:data:`~repro.resilience.faults.SHOT_POISON`) fail
  on every node; after ``quarantine_after`` failures the shot is
  quarantined and the survey degrades to the survivors' stack instead of
  poisoning the whole service.

The scheduler never deadlocks: with every worker dead and shots still
queued, the remaining jobs are counted as *stranded* and the run ends
with a degraded (but reported) result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import GPUOptions, RTMConfig
from repro.core.imaging import mute_shallow, normalize_image
from repro.core.platform import CRAY_K40, Platform
from repro.observe import runlog
from repro.observe.ledger import plan_fingerprint
from repro.observe.reduce import percentile
from repro.resilience.faults import SHOT_POISON, FaultPlan, FaultSpec
from repro.resilience.injector import FaultInjector
from repro.resilience.recovery import (
    BackoffPolicy,
    RecoveryStats,
    ResilientMultiGpu,
    ResilientPipeline,
)
from repro.serve.cache import ResultCache, ShotKey, model_hash
from repro.serve.queue import PoisonShotError, ShotJob, ShotQueue
from repro.utils.errors import ConfigurationError, DeviceLostError, ReproError

#: simulated seconds to detect a dead worker and requeue its shot (a
#: fixed deterministic charge: the failed pipeline's own clock dies with
#: the card, so the service bills a constant detection latency instead)
DEATH_DETECT_S = 1e-3
#: simulated seconds to detect a poisoned shot's failure
POISON_DETECT_S = 2.5e-4
#: the multi-card node harness per shot: a short decomposed sweep whose
#: answer is verified against the decomposition-free oracle
NODE_SHAPE = (24, 24)
NODE_NT = 8
NODE_SNAP = 4


@dataclass
class WorkerNode:
    """One simulated worker node of the farm."""

    wid: int
    gpus: int
    injector: FaultInjector
    backoff: BackoffPolicy
    alive: bool = True
    busy_until: float = 0.0
    shots_done: int = 0
    stats: RecoveryStats = field(default_factory=RecoveryStats)
    #: multi-card node harness (``gpus > 1``), built lazily
    node: ResilientMultiGpu | None = None
    #: the oracle's view of the node harness field
    node_expected: np.ndarray | None = None


@dataclass
class _InFlight:
    """One dispatched shot with its precomputed outcome."""

    job: ShotJob
    worker: WorkerNode
    done_s: float
    outcome: str  # 'ok' | 'dead' | 'poison'
    image: np.ndarray | None
    device_s: float


@dataclass
class _Survey:
    survey_id: str
    config: RTMConfig
    jobs: list[ShotJob]
    primary: bool


@dataclass
class ServiceResult:
    """One scheduler run: every job's terminal state plus the stacks."""

    workers: int
    gpus: int
    makespan_s: float
    jobs: list[ShotJob]
    surveys: dict[str, "_Survey"]
    cache: ResultCache
    queue_counters: dict
    recovery: RecoveryStats
    workers_lost: int
    quarantined: list[int]
    stranded: int
    images: dict[str, np.ndarray] = field(default_factory=dict)
    stacks: dict[str, np.ndarray] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def completed(self, survey_id: str | None = None) -> list[ShotJob]:
        out = [j for j in self.jobs if j.status == "completed"]
        if survey_id is not None:
            out = [j for j in out if j.survey == survey_id]
        return out

    def completed_shots(self, survey_id: str) -> list[int]:
        """Canonically ordered shot indices that completed for a survey."""
        return sorted(j.shot for j in self.completed(survey_id))

    # ------------------------------------------------------------------
    def latencies_s(self) -> list[float]:
        return sorted(
            j.latency_s for j in self.jobs if j.latency_s is not None
        )

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        lat = self.latencies_s()
        submitted = len(self.jobs)
        done = len(self.completed())
        out = {
            "shots_submitted": float(submitted),
            "shots_completed": float(done),
            "completed_fraction": done / submitted if submitted else 1.0,
            "quarantined": float(len(self.quarantined)),
            "stranded": float(self.stranded),
            "workers_lost": float(self.workers_lost),
            "makespan_s": self.makespan_s,
            "shots_per_hour": (
                done / self.makespan_s * 3600.0 if self.makespan_s > 0 else 0.0
            ),
            "queue_p50_s": percentile(lat, 0.50),
            "queue_p95_s": percentile(lat, 0.95),
            "queue_max_s": lat[-1] if lat else 0.0,
        }
        out.update(self.queue_counters)
        out.update(self.cache.counters())
        out.update(self.recovery.counts())
        out["recovery_requeues"] = self.queue_counters.get("requeued", 0.0)
        return out


class SurveyScheduler:
    """Deterministic shot-level scheduler over simulated worker nodes.

    Parameters
    ----------
    workers:
        Number of simulated worker nodes.
    gpus:
        Cards per node. ``1`` (default) runs each shot under
        :class:`ResilientPipeline`; ``> 1`` adds the multi-card node
        harness per shot (see the module docstring).
    capacity / policy:
        The bounded queue's size and backpressure policy
        (``reject`` | ``shed``).
    plan:
        A :class:`~repro.resilience.faults.FaultPlan`. Device-fault specs
        are routed to the worker named by their ``rank`` (``None`` means
        worker 0); :data:`SHOT_POISON` specs poison the shot index named
        by their ``rank``.
    seed:
        Seeds the per-worker backoff policies and the service-level
        requeue backoff stream.
    quarantine_after:
        Execution failures before a poisoned shot is quarantined.
    """

    def __init__(
        self,
        workers: int = 2,
        gpus: int = 1,
        capacity: int = 64,
        policy: str = "reject",
        plan: FaultPlan | None = None,
        seed: int = 0,
        quarantine_after: int = 3,
        gpu_options: GPUOptions | None = None,
        platform: Platform = CRAY_K40,
        backoff: BackoffPolicy | None = None,
        tracer=None,
    ):
        if workers < 1:
            raise ConfigurationError("need at least one worker")
        if gpus < 1:
            raise ConfigurationError("gpus per worker must be >= 1")
        if quarantine_after < 1:
            raise ConfigurationError("quarantine_after must be >= 1")
        self.gpus = int(gpus)
        self.queue = ShotQueue(capacity=capacity, policy=policy)
        self.cache = ResultCache()
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = int(seed)
        self.quarantine_after = int(quarantine_after)
        self.options = gpu_options if gpu_options is not None else GPUOptions()
        self.platform = platform
        self.tracer = tracer
        base = backoff if backoff is not None else BackoffPolicy(seed=seed)
        self.backoff = base
        self._requeue_rng = base.rng()

        self.poison_shots = frozenset(
            (s.rank if s.rank is not None else 0)
            for s in self.plan.specs
            if s.kind == SHOT_POISON
        )
        self.workers = [
            self._build_worker(w, workers, base) for w in range(workers)
        ]
        self._surveys: dict[str, _Survey] = {}
        self._jobs: list[ShotJob] = []
        self._inflight: list[_InFlight] = []
        self._inflight_keys: dict[ShotKey, list[ShotJob]] = {}
        self._shot_counter = 0
        self.workers_lost = 0
        self.quarantined: list[int] = []
        self.stranded = 0
        self.now = 0.0

    # ------------------------------------------------------------------
    def _build_worker(
        self, wid: int, nworkers: int, base: BackoffPolicy
    ) -> WorkerNode:
        """Route the plan's device specs to this worker and arm its
        injector. A spec's ``rank`` names the worker (``None`` -> worker
        0); inside the node the spec is un-ranked so it can fire on any
        of the node's cards."""
        specs = []
        for s in self.plan.specs:
            if s.kind == SHOT_POISON:
                continue
            target = (s.rank if s.rank is not None else 0) % nworkers
            if target == wid:
                specs.append(FaultSpec(s.kind, s.op_index, s.count, rank=None))
        plan = FaultPlan(seed=self.plan.seed, specs=tuple(specs))
        injector = FaultInjector(plan, tracer=self.tracer)
        backoff = BackoffPolicy(
            max_retries=base.max_retries,
            base_delay_s=base.base_delay_s,
            factor=base.factor,
            jitter=base.jitter,
            seed=base.seed + 7919 * (wid + 1),
        )
        return WorkerNode(
            wid=wid, gpus=self.gpus, injector=injector, backoff=backoff
        )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_survey(
        self,
        survey_id: str,
        config: RTMConfig,
        shot_x_indices: list[int],
        case: str | None = None,
        primary: bool = True,
    ) -> list[ShotJob]:
        """Admit one survey's shots (atomically under ``reject``).

        Raises :class:`~repro.serve.queue.SurveyRejectedError` when the
        batch does not fit under the ``reject`` policy; under ``shed``
        the overflow jobs come back with ``status == 'shed'``. Returns
        every job of the submission (admitted and shed alike) in
        canonical shot order.
        """
        if survey_id in self._surveys:
            raise ConfigurationError(f"survey '{survey_id}' already submitted")
        if config.model is None:
            raise ConfigurationError("survey config needs an EarthModel")
        case = case if case is not None else config.physics
        mhash = model_hash(config.model)
        phash = plan_fingerprint(self.options.plan)
        dropped = self.cache.begin_case(case, (mhash, phash))
        if dropped:
            runlog.emit("serve.invalidate", case=case, dropped=dropped)
        jobs = []
        for i, x in enumerate(shot_x_indices):
            key = ShotKey(
                case=case, model_hash=mhash, plan_hash=phash,
                shot_x=int(x), nt=config.nt,
            )
            shot = i if primary else self._shot_for_key(key, i)
            jobs.append(ShotJob(
                survey=survey_id, case=case, shot=shot, shot_x=int(x),
                key=key, submitted_s=self.now, eligible_s=self.now,
            ))
        accepted, overflow = self.queue.admit(jobs)
        if overflow:
            runlog.count("serve.shed", len(overflow))
        self._surveys[survey_id] = _Survey(
            survey_id=survey_id, config=config, jobs=jobs, primary=primary,
        )
        self._jobs.extend(jobs)
        runlog.emit(
            "serve.submit", survey=survey_id, case=case,
            shots=len(jobs), admitted=len(accepted), shed=len(overflow),
        )
        return jobs

    def _shot_for_key(self, key: ShotKey, default: int) -> int:
        """A duplicate submission reuses the primary's shot index for the
        same key, so poison routing applies to both."""
        for j in self._jobs:
            if j.key == key:
                return j.shot
        return default

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _shot_config(self, survey: _Survey, job: ShotJob) -> RTMConfig:
        config = survey.config
        depth = (
            config.source_depth_index
            if config.source_depth_index is not None
            else min(config.boundary_width + 4, config.model.grid.shape[0] - 1)
        )
        shot_cfg = RTMConfig(
            physics=config.physics,
            model=config.model,
            nt=config.nt,
            dt=config.dt,
            peak_freq=config.peak_freq,
            space_order=config.space_order,
            boundary_width=config.boundary_width,
            snap_period=config.snap_period,
            snapshot_decimate=config.snapshot_decimate,
            receivers=config.receivers,
            source_depth_index=depth,
            pml_variant=config.pml_variant,
            mute_cells=config.mute_cells,
            illumination_normalize=config.illumination_normalize,
        )
        shot_cfg.source_x_index = job.shot_x
        return shot_cfg

    def _run_node_harness(self, worker: WorkerNode) -> float:
        """``gpus > 1``: one short decomposed sweep on the node harness,
        verified against the decomposition-free oracle. Returns the node
        device seconds consumed. DeviceLostError propagates when the
        node's last card dies."""
        if worker.node is None:
            worker.node = ResilientMultiGpu(
                "isotropic", NODE_SHAPE, self.gpus,
                platform=self.platform,
                injector=worker.injector,
                backoff=worker.backoff,
                seed=self.seed + worker.wid,
                space_order=4,
                boundary_width=4,
                tracer=self.tracer,
            )
            worker.node_expected = worker.node.global_field.copy()
        t0 = worker.node.device_seconds()
        out = worker.node.run(NODE_NT, NODE_SNAP, mode="modeling")
        expected = worker.node_expected
        for _ in range(NODE_NT):
            expected = ResilientMultiGpu.reference_step(expected)
        worker.node_expected = expected
        if not np.array_equal(out, expected):
            raise ReproError(
                f"worker {worker.wid} node harness diverged from the "
                "decomposition-free oracle"
            )
        # the harness continues from its own output
        worker.node.global_field[...] = out
        worker.node._scatter()
        return worker.node.device_seconds() - t0

    def _execute(self, worker: WorkerNode, job: ShotJob) -> _InFlight:
        """Run one shot on one worker *eagerly*; the returned record
        carries the outcome and the simulated duration the event loop
        replays."""
        if job.shot in self.poison_shots:
            return _InFlight(
                job=job, worker=worker,
                done_s=self.now + POISON_DETECT_S,
                outcome="poison", image=None, device_s=POISON_DETECT_S,
            )
        survey = self._surveys[job.survey]
        shot_cfg = self._shot_config(survey, job)
        try:
            if self.gpus == 1:
                pipe = ResilientPipeline(
                    shot_cfg,
                    gpu_options=self.options,
                    platform=self.platform,
                    tracer=self.tracer,
                    injector=worker.injector,
                    backoff=worker.backoff,
                )
                result = pipe.run_rtm()
                worker.stats.absorb(pipe.stats)
                duration = result.gpu.total if result.gpu is not None else 0.0
                image = result.raw_image
            else:
                # node mode: the shot physics is pipeline-free (identical
                # on every node by construction); the node's behaviour
                # under faults — re-decomposition included — comes from
                # the verified harness, which also sets the duration
                from repro.core.rtm import run_rtm

                duration = self._run_node_harness(worker)
                result = run_rtm(
                    shot_cfg, gpu_options=None, platform=self.platform
                )
                image = result.raw_image
        except DeviceLostError:
            return _InFlight(
                job=job, worker=worker,
                done_s=self.now + DEATH_DETECT_S,
                outcome="dead", image=None, device_s=DEATH_DETECT_S,
            )
        return _InFlight(
            job=job, worker=worker, done_s=self.now + duration,
            outcome="ok", image=image, device_s=duration,
        )

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self) -> ServiceResult:
        """Drain the queue to a terminal state and assemble the result."""
        if not self._surveys:
            raise ConfigurationError("run() before any submit_survey()")
        while self.queue or self._inflight:
            self._dispatch()
            if self._inflight:
                self._advance_and_complete()
                continue
            if not self.queue:
                break
            # queued shots, nothing in flight
            if not any(w.alive for w in self.workers):
                self._strand()
                break
            nxt = self.queue.next_eligible_s()
            if nxt is not None and nxt > self.now:
                self.now = nxt  # backoff backpressure: wait it out
                continue
            # eligible jobs + idle alive workers would have dispatched;
            # nothing can make progress — degrade rather than spin
            self._strand()
            break
        return self._result()

    def _dispatch(self) -> None:
        """Serve cache hits, park in-flight duplicates, and assign queued
        shots to idle workers — repeatedly, until nothing changes."""
        progressed = True
        while progressed:
            progressed = False
            # cache hits and parking consume no worker
            drained: list[ShotJob] = []
            job = self.queue.pop_eligible(self.now)
            while job is not None:
                if job.key in self._inflight_keys:
                    self._inflight_keys[job.key].append(job)
                    job.status = "parked"
                    progressed = True
                elif self.cache.peek(job.key) is not None:
                    self.cache.lookup(job.key)  # counted hit
                    self._complete(job, self.now, cache_hit=True)
                    progressed = True
                else:
                    drained.append(job)
                job = self.queue.pop_eligible(self.now)
            # put misses back in order, then hand them to idle workers
            for j in reversed(drained):
                self.queue.restore(j)
            for worker in self.workers:
                if not worker.alive or worker.busy_until > self.now:
                    continue
                job = self.queue.pop_eligible(self.now)
                if job is None:
                    break
                if job.key in self._inflight_keys or (
                    self.cache.peek(job.key) is not None
                ):
                    # raced with a previous assignment this pass
                    self.queue.restore(job)
                    continue
                self.cache.lookup(job.key)  # counted miss: real compute
                record = self._execute(worker, job)
                job.status = "running"
                job.worker = worker.wid
                worker.busy_until = record.done_s
                self._inflight.append(record)
                self._inflight_keys[job.key] = []
                progressed = True

    def _advance_and_complete(self) -> None:
        """Advance simulated time to the next completion and retire every
        record due, in (time, worker) order."""
        t = min(r.done_s for r in self._inflight)
        self.now = max(self.now, t)
        due = sorted(
            (r for r in self._inflight if r.done_s <= self.now),
            key=lambda r: (r.done_s, r.worker.wid),
        )
        for record in due:
            self._inflight.remove(record)
            self._retire(record)

    def _retire(self, record: _InFlight) -> None:
        job, worker = record.job, record.worker
        parked = self._inflight_keys.pop(job.key, [])
        if record.outcome == "ok":
            self.cache.store(job.key, record.image, record.device_s)
            worker.shots_done += 1
            self._complete(job, record.done_s, cache_hit=False)
            for twin in parked:
                hit = self.cache.lookup(twin.key)
                self._complete(
                    twin, record.done_s, cache_hit=hit is not None
                )
            return
        if record.outcome == "dead":
            worker.alive = False
            self.workers_lost += 1
            job.failed_workers.append(worker.wid)
            job.requeues += 1
            delay = self.backoff.delay(job.requeues - 1, self._requeue_rng)
            self.queue.requeue(job, record.done_s + delay)
            runlog.count("serve.requeues")
            runlog.emit(
                "serve.worker_lost", worker=worker.wid, shot=job.shot,
                survey=job.survey,
            )
            worker.stats.note(
                f"requeue shot {job.shot} after worker {worker.wid} died",
                kind="requeue",
            )
            for twin in parked:
                self.queue.restore(twin)
            return
        # poison
        job.failures += 1
        job.failed_workers.append(worker.wid)
        err = PoisonShotError(job.shot, job.failures)
        if job.failures >= self.quarantine_after:
            job.status = "quarantined"
            job.completed_s = None
            self.quarantined.append(job.shot)
            runlog.count("serve.quarantined")
            runlog.emit(
                "serve.quarantine", shot=job.shot, survey=job.survey,
                failures=job.failures, error=str(err),
            )
            for twin in parked:
                twin.status = "quarantined"
                self.quarantined.append(twin.shot)
            return
        delay = self.backoff.delay(job.failures - 1, self._requeue_rng)
        self.queue.requeue(job, record.done_s + delay)
        runlog.count("serve.poison_retries")
        for twin in parked:
            self.queue.restore(twin)

    def _complete(self, job: ShotJob, at: float, cache_hit: bool) -> None:
        job.status = "completed"
        job.completed_s = at
        job.cache_hit = cache_hit
        runlog.count("serve.completed")

    def _strand(self) -> None:
        """Survey-level degrade: no worker can make progress; the queued
        remainder is counted, not deadlocked on."""
        leftovers = self.queue.drain()
        for job in leftovers:
            job.status = "stranded"
        self.stranded += len(leftovers)
        if leftovers:
            runlog.count("serve.stranded", len(leftovers))
            runlog.emit(
                "serve.degrade", stranded=len(leftovers),
                reason="no surviving workers",
            )

    # ------------------------------------------------------------------
    def _result(self) -> ServiceResult:
        recovery = RecoveryStats()
        for w in self.workers:
            recovery.absorb(w.stats)
            if w.node is not None:  # node-harness recovery (gpus > 1)
                recovery.absorb(w.node.stats)
        result = ServiceResult(
            workers=len(self.workers),
            gpus=self.gpus,
            makespan_s=self.now,
            jobs=list(self._jobs),
            surveys=dict(self._surveys),
            cache=self.cache,
            queue_counters=self.queue.counters(),
            recovery=recovery,
            workers_lost=self.workers_lost,
            quarantined=sorted(set(self.quarantined)),
            stranded=self.stranded,
        )
        for sid, survey in self._surveys.items():
            stack, image = self._stack_survey(survey)
            if stack is not None:
                result.stacks[sid] = stack
                result.images[sid] = image
        return result

    def _stack_survey(self, survey: _Survey):
        """Stack a survey's completed shots in canonical shot order —
        the float32 sum order of the serial :func:`~repro.core.survey.
        run_survey` loop — then normalise and mute exactly as it does."""
        config = survey.config
        done = sorted(
            (j for j in survey.jobs if j.status == "completed"),
            key=lambda j: j.shot,
        )
        if not done:
            return None, None
        stacked = np.zeros(config.model.grid.shape, dtype=np.float32)
        for job in done:
            entry = self.cache.peek(job.key)
            if entry is None:  # invalidated after completion: recompute?
                raise ConfigurationError(
                    f"completed shot {job.shot} lost its cache entry"
                )
            stacked += entry.image
        mute = (
            config.mute_cells
            if config.mute_cells is not None
            else config.boundary_width + 8
        )
        image = mute_shallow(normalize_image(stacked.copy()), mute)
        return stacked, image


__all__ = [
    "DEATH_DETECT_S",
    "POISON_DETECT_S",
    "WorkerNode",
    "ServiceResult",
    "SurveyScheduler",
]
