"""Recovery layer: clean-path transparency, per-fault-kind golden recovery,
checkpoint schedules, backoff determinism, decomposed degradation."""

import numpy as np
import pytest

from repro.core.config import GPUOptions, ModelingConfig, RTMConfig
from repro.core.modeling import run_modeling
from repro.core.rtm import run_rtm
from repro.model import layered_model
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.recovery import (
    BackoffPolicy,
    CheckpointStore,
    ResilientMultiGpu,
    ResilientPipeline,
)
from repro.utils.errors import DeviceLostError

SHAPE = (48, 48)
NT = 12


def _model():
    return layered_model(
        SHAPE, spacing=10.0, interfaces=[SHAPE[0] * 10.0 / 2],
        velocities=[1500.0, 2600.0], vs_ratio=0.5,
    )


def _cfg(cls, **over):
    kw = dict(
        physics="acoustic", model=_model(), nt=NT, peak_freq=12.0,
        space_order=8, boundary_width=8, snap_period=4,
    )
    kw.update(over)
    return cls(**kw)


def _same_times(a, b):
    return all(
        getattr(a, f) == getattr(b, f)
        for f in ("total", "kernel", "h2d", "d2h", "alloc", "launches")
    )


class TestBackoff:
    def test_deterministic_and_growing(self):
        pol = BackoffPolicy(seed=3)
        a = [pol.delay(i, pol.rng()) for i in range(4)]
        b = [pol.delay(i, pol.rng()) for i in range(4)]
        assert a == b
        assert a == sorted(a)
        assert a[0] >= pol.base_delay_s


class TestCheckpointStore:
    def test_periodic_schedule(self):
        ckpt = CheckpointStore(nt=16, period=4)
        due = [s for s in range(16) if ckpt.is_checkpoint_step(s)]
        assert due == [0, 4, 8, 12]

    def test_budget_thins_schedule_but_keeps_zero(self):
        full = CheckpointStore(nt=32, period=4)
        thin = CheckpointStore(nt=32, period=4, budget=2)
        assert thin.is_checkpoint_step(0)
        n_full = sum(full.is_checkpoint_step(s) for s in range(32))
        n_thin = sum(thin.is_checkpoint_step(s) for s in range(32))
        assert n_thin < n_full

    def test_save_latest_load(self):
        ckpt = CheckpointStore(nt=16, period=4)
        for step in (0, 4, 8):
            ckpt.save(step, {"step": step})
        assert ckpt.latest(11) == 8
        assert ckpt.latest(7) == 4
        assert ckpt.load(ckpt.latest(2))["step"] == 0
        assert ckpt.saves == 3


class TestCleanPathTransparency:
    """No faults armed => bitwise-identical physics AND identical modelled
    device time (checkpoint capture is pure host work)."""

    def test_modeling(self):
        ref = run_modeling(_cfg(ModelingConfig), gpu_options=GPUOptions())
        res = ResilientPipeline(_cfg(ModelingConfig)).run_modeling()
        assert np.array_equal(ref.seismogram, res.seismogram)
        assert np.array_equal(ref.final_wavefield, res.final_wavefield)
        assert _same_times(ref.gpu, res.gpu)

    def test_rtm(self):
        ref = run_rtm(_cfg(RTMConfig), gpu_options=GPUOptions())
        res = ResilientPipeline(_cfg(RTMConfig)).run_rtm()
        assert np.array_equal(ref.image, res.image)
        assert np.array_equal(ref.raw_image, res.raw_image)
        assert np.array_equal(ref.seismogram, res.seismogram)
        assert _same_times(ref.gpu, res.gpu)

    def test_stats_report_nothing(self):
        res = ResilientPipeline(_cfg(ModelingConfig))
        res.run_modeling()
        assert res.stats.detected == 0
        assert res.stats.retries == 0
        assert res.stats.restarts == 0
        assert res.stats.degraded == []


class TestFaultRecoveryGolden:
    """Each fault kind, injected mid-RTM, must reproduce the fault-free
    image bit for bit."""

    @pytest.fixture(scope="class")
    def golden(self):
        return run_rtm(_cfg(RTMConfig), gpu_options=GPUOptions())

    @pytest.mark.parametrize("spec", [
        FaultSpec("pcie-transient", op_index=3, count=2),
        FaultSpec("kernel-launch", op_index=9),
        FaultSpec("ecc", op_index=25),
        FaultSpec("oom", op_index=3),
        FaultSpec("pcie-permanent", op_index=6),
    ], ids=lambda s: s.spec_string())
    def test_kind_recovers_exactly(self, golden, spec):
        res = ResilientPipeline(
            _cfg(RTMConfig), plan=FaultPlan(specs=(spec,)),
            backoff=BackoffPolicy(seed=1),
        )
        result = res.run_rtm()
        assert len(res.injector.events) >= 1
        assert res.stats.detected >= 1
        assert np.array_equal(golden.image, result.image)
        assert np.array_equal(golden.seismogram, result.seismogram)
        assert res.stats.recovery_cost_s > 0.0

    def test_oom_degrades_via_replan(self, golden):
        res = ResilientPipeline(
            _cfg(RTMConfig),
            plan=FaultPlan(specs=(FaultSpec("oom", op_index=3),)),
        )
        result = res.run_rtm()
        assert any(d.startswith("re-plan:") for d in res.stats.degraded)
        assert np.array_equal(golden.image, result.image)

    def test_restart_budget_exhaustion_reraises(self):
        # a permanent link fault plus a zero restart budget cannot recover
        res = ResilientPipeline(
            _cfg(ModelingConfig),
            plan=FaultPlan(specs=(FaultSpec("pcie-permanent", op_index=1),)),
            max_restarts=0,
        )
        from repro.utils.errors import PCIeTransferError
        with pytest.raises(PCIeTransferError):
            res.run_modeling()


class TestResilientMultiGpu:
    SHAPE = (64, 64)
    NT = 8

    def _expected(self, seed=1234, nt=NT):
        g = np.random.default_rng(seed).standard_normal(self.SHAPE)
        g = g.astype(np.float32)
        for _ in range(nt):
            g = ResilientMultiGpu.reference_step(g)
        return g

    def _run(self, plan=None, ranks=2, mode="modeling"):
        r = ResilientMultiGpu(
            "acoustic", self.SHAPE, ranks,
            plan=plan, backoff=BackoffPolicy(seed=1),
            boundary_width=8, space_order=8,
        )
        out = r.run(self.NT, snap_period=4, mode=mode)
        return r, out

    def test_clean_matches_decomposition_free_oracle(self):
        _, out = self._run()
        assert np.array_equal(out, self._expected())

    @pytest.mark.parametrize("spec", [
        FaultSpec("mpi-drop", op_index=2),
        FaultSpec("mpi-dup", op_index=3),
        FaultSpec("mpi-delay", op_index=2),
        FaultSpec("pcie-transient", op_index=4, count=2),
        FaultSpec("ecc", op_index=6),
    ], ids=lambda s: s.spec_string())
    def test_kind_recovers_exactly(self, spec):
        r, out = self._run(plan=FaultPlan(specs=(spec,)))
        assert len(r.injector.events) >= 1
        assert np.array_equal(out, self._expected())

    def test_retries_in_different_iterations_draw_one_jitter_stream(self):
        # ops 5 and 40 fail in different forward iterations; each costs one
        # first-attempt backoff, and the two waits are successive draws of
        # the run's one RNG stream, not the same draw twice
        plan = FaultPlan(specs=(
            FaultSpec("kernel-launch", op_index=5),
            FaultSpec("kernel-launch", op_index=40),
        ))
        r, out = self._run(plan=plan)
        assert r.stats.retries == 2
        policy = BackoffPolicy(seed=1)
        rng = policy.rng()
        first, second = policy.delay(0, rng), policy.delay(0, rng)
        assert r.stats.recovery_cost_s == first + second
        assert r.stats.recovery_cost_s != 2 * first
        assert np.array_equal(out, self._expected())

    def test_dead_rank_redecomposes_and_finishes(self):
        plan = FaultPlan(specs=(FaultSpec("rank-dead", op_index=6, rank=1),))
        r, out = self._run(plan=plan)
        assert "re-decompose:2->1" in r.stats.degraded
        assert r.ngpus == 1
        assert np.array_equal(out, self._expected())

    def test_dead_rank_on_last_card_is_fatal(self):
        plan = FaultPlan(specs=(FaultSpec("rank-dead", op_index=4),))
        with pytest.raises(DeviceLostError):
            self._run(plan=plan, ranks=1)
