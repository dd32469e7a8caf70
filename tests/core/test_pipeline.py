"""The Figure-4 offload pipeline: phases, data movement, failure gates."""

import pytest

from repro.acc import CRAY_8_2_6, PGI_14_3, PGI_14_6, CompileFlags, Runtime
from repro.core import GPUOptions, OffloadPipeline
from repro.core.pipeline import run_pipeline
from repro.gpusim import Device, K40, M2090
from repro.utils.errors import ConfigurationError


def make_pipeline(physics="acoustic", shape=(128, 128), spec=K40,
                  persona=PGI_14_6, **opt_kw):
    options = GPUOptions(compiler=persona, flags=CompileFlags(maxregcount=64), **opt_kw)
    rt = Runtime(Device(spec), compiler=persona, flags=options.flags)
    return OffloadPipeline(rt, physics, shape, nreceivers=16, options=options)


class TestPhaseSequencing:
    def test_forward_before_allocate_rejected(self):
        p = make_pipeline()
        with pytest.raises(ConfigurationError):
            p.forward_step()

    def test_backward_before_swap_rejected(self):
        p = make_pipeline()
        p.allocate_forward()
        with pytest.raises(ConfigurationError):
            p.backward_step()

    def test_double_allocate_rejected(self):
        p = make_pipeline()
        p.allocate_forward()
        with pytest.raises(ConfigurationError):
            p.allocate_forward()

    def test_full_cycle_leaves_clean_device(self):
        p = make_pipeline()
        p.allocate_forward()
        p.forward_step()
        p.snapshot_to_host()
        p.swap_to_backward()
        p.load_forward_snapshot()
        p.imaging_step()
        p.backward_step()
        p.finalize(with_image=True)
        p.rt.shutdown_check()  # no present-table leaks
        assert p.rt.device.memory.used == 0


class TestDataMovement:
    def test_allocate_forward_copies_inventory(self):
        p = make_pipeline()
        p.allocate_forward()
        assert p.rt.device.times.h2d > 0
        assert p.rt.present_bytes() == sum(p.inventory.values())

    def test_swap_drops_forward_wavefields_keeps_primary(self):
        p = make_pipeline()
        p.allocate_forward()
        p.swap_to_backward()
        assert p.rt.is_present("wf:p")  # the forward wavefield is kept
        assert not p.rt.is_present("wf:qx")
        assert p.rt.is_present("bwd:p")
        assert p.rt.is_present("img:image")

    def test_materials_persist_across_phases(self):
        p = make_pipeline()
        p.allocate_forward()
        p.swap_to_backward()
        assert p.rt.is_present("mat:kappa")

    def test_snapshot_decimation_moves_fewer_bytes(self):
        # large enough that bandwidth (not per-transfer latency) dominates
        p1 = make_pipeline(shape=(512, 512))
        p1.allocate_forward()
        p1.snapshot_to_host(decimate=1)
        full = p1.rt.device.times.d2h
        p2 = make_pipeline(shape=(512, 512))
        p2.allocate_forward()
        p2.snapshot_to_host(decimate=4)
        dec = p2.rt.device.times.d2h
        assert dec < full / 4

    def test_isotropic_backward_host_updates(self):
        """Paper Section 6.2: the isotropic RTM keeps host and device
        copies consistent every backward step."""
        p = make_pipeline(physics="isotropic")
        p.allocate_forward()
        p.swap_to_backward()
        d2h0, h2d0 = p.rt.device.times.d2h, p.rt.device.times.h2d
        p.backward_step()
        assert p.rt.device.times.d2h > d2h0
        assert p.rt.device.times.h2d > h2d0

    def test_acoustic_backward_no_per_step_updates(self):
        p = make_pipeline(physics="acoustic")
        p.allocate_forward()
        p.swap_to_backward()
        d2h0 = p.rt.device.times.d2h
        p.backward_step()
        assert p.rt.device.times.d2h == d2h0


class TestReceiverInjectionLowering:
    def test_cray_inlines_single_kernel(self):
        p = make_pipeline(persona=CRAY_8_2_6)
        assert len(p.receiver_workloads) == 1
        assert p.receiver_workloads[0].points == 16

    def test_pgi_one_launch_per_receiver(self):
        p = make_pipeline(persona=PGI_14_6)
        assert len(p.receiver_workloads) == 16

    def test_pgi_backward_launch_overhead_hurts(self):
        """#receivers x #timesteps kernel launches under PGI (the paper's
        RTM complaint) cost more than CRAY's inlined kernel."""
        def backward_cost(persona):
            p = make_pipeline(persona=persona, shape=(64, 64))
            p.allocate_forward()
            p.swap_to_backward()
            t0 = p.rt.device.elapsed
            for _ in range(20):
                p.backward_step()
            p.rt.wait()
            return p.rt.device.elapsed - t0

        assert backward_cost(PGI_14_6) > backward_cost(CRAY_8_2_6)


class TestBackwardKernelChoice:
    def test_reuse_uses_forward_kernels(self):
        p = make_pipeline(reuse_forward_kernel=True)
        assert p.backward_workloads is p.forward_workloads

    def test_original_marks_uncoalesced(self):
        p = make_pipeline(reuse_forward_kernel=False)
        assert all(not w.inner_contiguous for w in p.backward_workloads)

    def test_transpose_fix_adds_copies(self):
        p = make_pipeline(reuse_forward_kernel=False, transpose_fix=True)
        assert len(p.backward_transpose) == 2

    def test_isotropic_always_shares_kernel(self):
        """'The isotropic kernel used in both phases was the same'."""
        p = make_pipeline(physics="isotropic", reuse_forward_kernel=False)
        assert p.backward_workloads is p.forward_workloads


class TestEstimateRunners:
    def test_modeling_run_times(self):
        p = make_pipeline()
        t = run_pipeline(p, "modeling", 20, 5, snapshot_decimate=4)
        assert t.success
        assert t.total > 0
        assert t.kernel > 0
        assert t.kernel <= t.total

    def test_rtm_run_times(self):
        p = make_pipeline()
        t = run_pipeline(p, "rtm", 20, 5)
        assert t.success
        assert t.h2d > 0 and t.d2h > 0

    def test_oom_reported_not_raised(self):
        p = make_pipeline(physics="elastic", shape=(448, 448, 448), spec=M2090)
        t = run_pipeline(p, "modeling", 1, 1, snapshot_decimate=4)
        assert not t.success
        assert t.failure == "oom"

    def test_cray_elastic3d_rtm_compiler_failure(self):
        """Table 4's CRAY-compiler 'x' cell."""
        p = make_pipeline(physics="elastic", shape=(64, 64, 64), persona=CRAY_8_2_6)
        t = run_pipeline(p, "rtm", 1, 1)
        assert not t.success
        assert t.failure == "compiler"

    def test_image_on_cpu_moves_more_data(self):
        """Figure 14 vs 15: host imaging pulls both wavefields per snap."""
        def d2h(image_on_gpu):
            p = make_pipeline(image_on_gpu=image_on_gpu)
            t = run_pipeline(p, "rtm", 20, 5)
            return t.d2h

        assert d2h(False) > d2h(True)
