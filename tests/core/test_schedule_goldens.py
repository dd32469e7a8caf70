"""Committed output goldens for every driver that walks the Figure-4
schedule.

Each entry is a sha256 over exact bytes: recorded directive programs
(``DirectiveProgram.sha``), modelled ``GpuTimes`` (every scalar field as
``float.hex`` plus the clock categories), images, seismograms and
wavefields (dtype, shape and raw bytes, so ``-0.0`` differs from
``+0.0``), recovery statistics and multi-rank timings. A change to the
drivers' control flow that moves any launch, transfer or physics step
shows up here.

Regenerate (only for a change that is *meant* to move outputs) with::

    PYTHONPATH=src python tests/core/test_schedule_goldens.py
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.acc.compiler import CRAY_8_2_6, PGI_14_6
from repro.bench.workloads import RECORD_SHAPES as _SHAPES, SEED_PAIRS as _INVENTORY
from repro.analyze.drivers import record_pipeline_program
from repro.core.config import GPUOptions, ModelingConfig, RTMConfig
from repro.core.modeling import estimate_modeling, run_modeling
from repro.core.multigpu import MultiGpuPipeline
from repro.core.rtm import estimate_rtm, run_rtm
from repro.model import layered_model, with_thomsen
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.recovery import (
    BackoffPolicy,
    ResilientMultiGpu,
    ResilientPipeline,
)

#: schedule shape of the recorded / estimated seed runs: nt is not a
#: multiple of snap_period, so the tail steps carry no snapshot
NT, SNAP = 10, 4
PERSONAS = {"pgi": PGI_14_6, "cray": CRAY_8_2_6}
SHORT = {"isotropic": "iso", "acoustic": "ac", "elastic": "el"}


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


def _num(x):
    return float(x).hex() if isinstance(x, float) else x


def times_doc(t) -> dict:
    return {
        "total": _num(t.total),
        "kernel": _num(t.kernel),
        "h2d": _num(t.h2d),
        "d2h": _num(t.d2h),
        "alloc": _num(t.alloc),
        "launches": t.launches,
        "success": t.success,
        "failure": t.failure,
        "categories": {k: _num(v) for k, v in t.categories.items()},
    }


def array_doc(a: np.ndarray) -> list:
    a = np.ascontiguousarray(a)
    return [str(a.dtype), list(a.shape), hashlib.sha256(a.tobytes()).hexdigest()]


def stats_doc(s) -> dict:
    return {
        "detected": s.detected,
        "retries": s.retries,
        "restarts": s.restarts,
        "degraded": list(s.degraded),
        "recovery_cost_s": _num(s.recovery_cost_s),
        "actions": list(s.actions),
    }


# ----------------------------------------------------------------------
# the runs
# ----------------------------------------------------------------------
def _seed_kwargs(physics, ndim, persona):
    return dict(
        options=GPUOptions(compiler=PERSONAS[persona]),
        space_order=4 if ndim == 3 else 8,
        boundary_width=8,
        nreceivers=16,
        pml_variant="restructured",
    )


SEED_RUNS = [
    (physics, ndim, persona, mode)
    for physics, ndim in _INVENTORY
    for persona in PERSONAS
    for mode in ("modeling", "rtm")
]


def _seed_id(physics, ndim, persona, mode):
    return f"{SHORT[physics]}{ndim}d-{persona}-{mode}"


def program_digest(physics, ndim, persona, mode):
    kw = _seed_kwargs(physics, ndim, persona)
    return record_pipeline_program(
        physics, _SHAPES[ndim], mode, nt=NT, snap_period=SNAP, **kw
    ).sha()


def estimate_digest(physics, ndim, persona, mode, shape=None, compiled=False):
    kw = _seed_kwargs(physics, ndim, persona)
    if compiled:
        kw["options"] = GPUOptions(compiler=PERSONAS[persona], compiled=True)
    shape = _SHAPES[ndim] if shape is None else shape
    fn = estimate_rtm if mode == "rtm" else estimate_modeling
    return _sha(times_doc(fn(physics, shape, NT, SNAP, **kw)))


#: (case id, physics, shape, mode): allocate-OOM and swap-OOM
OOM_RUNS = [
    ("el3d-alloc-oom", "elastic", (900, 900, 900), "rtm"),
    ("ac3d-swap-oom", "acoustic", (680, 680, 680), "rtm"),
    ("ac3d-modeling-oom", "acoustic", (720, 720, 720), "modeling"),
]


#: the executed-physics cube and its step count: the wave reaches every
#: absorbing slab, and every 3-D stencil axis (inner ones too) runs, at a
#: size the suite can afford
CUBE, CUBE_NT = (28, 28, 28), 40


def _model(physics, shape=(48, 48)):
    kw = {"vs_ratio": 0.5} if physics == "elastic" else {}
    model = layered_model(
        shape, spacing=10.0, interfaces=[shape[0] * 10.0 / 2],
        velocities=[1500.0, 2600.0], **kw,
    )
    return with_thomsen(model, 0.12, 0.05) if physics == "vti" else model


def _cfg(cls, physics, nt=18, shape=(48, 48), **over):
    kw = dict(
        physics=physics, model=_model(physics, shape), nt=nt, peak_freq=12.0,
        space_order=8, boundary_width=8, snap_period=SNAP,
    )
    kw.update(over)
    return cls(**kw)


def rtm_digest(physics, attached, shape=(48, 48), nt=18, pml_variant="branchy"):
    res = run_rtm(
        _cfg(RTMConfig, physics, nt, shape, pml_variant=pml_variant),
        gpu_options=GPUOptions() if attached else None,
    )
    return _sha({
        "image": array_doc(res.image),
        "raw_image": array_doc(res.raw_image),
        "seismogram": array_doc(res.seismogram),
        "gpu": times_doc(res.gpu) if res.gpu is not None else None,
        "extras": res.extras,
    })


def modeling_digest(physics, attached, shape=(48, 48), nt=18):
    res = run_modeling(
        _cfg(ModelingConfig, physics, nt, shape, snapshot_decimate=2),
        gpu_options=GPUOptions() if attached else None,
    )
    return _sha({
        "seismogram": array_doc(res.seismogram),
        "final": array_doc(res.final_wavefield),
        "steps": res.snapshots.steps,
        "frames": [array_doc(f) for f in res.snapshots.frames()],
        "gpu": times_doc(res.gpu) if res.gpu is not None else None,
    })


def multigpu_digest(physics, mode):
    pipe = MultiGpuPipeline(
        physics, (96, 96), 2, space_order=8, boundary_width=8, nreceivers=8,
    )
    if mode == "rtm":
        times = pipe.run_rtm(nt=NT, snap_period=SNAP)
    else:
        times = pipe.run_modeling(nt=NT, snap_period=SNAP)
    return _sha([times_doc(t) for t in times])


RESILIENT_SPECS = {
    "clean": (),
    "pcie-transient": (FaultSpec("pcie-transient", op_index=3, count=2),),
    "kernel-launch": (FaultSpec("kernel-launch", op_index=9),),
    "ecc-fwd": (FaultSpec("ecc", op_index=25),),
    "ecc-bwd": (FaultSpec("ecc", op_index=60),),
    "oom": (FaultSpec("oom", op_index=3),),
    "pcie-permanent": (FaultSpec("pcie-permanent", op_index=6),),
    "kernel-launch-bwd": (FaultSpec("kernel-launch", op_index=80),),
    "pcie-permanent-swap": (FaultSpec("pcie-permanent", op_index=14),),
    "pcie-permanent-bwd": (FaultSpec("pcie-permanent", op_index=18),),
}


def resilient_digest(mode, spec_name):
    cls = RTMConfig if mode == "rtm" else ModelingConfig
    res = ResilientPipeline(
        _cfg(cls, "acoustic", nt=12),
        plan=FaultPlan(specs=RESILIENT_SPECS[spec_name]),
        backoff=BackoffPolicy(seed=1),
        checkpoint_period=3,
    )
    out = res.run_rtm() if mode == "rtm" else res.run_modeling()
    doc = {
        "seismogram": array_doc(out.seismogram),
        "gpu": times_doc(out.gpu),
        "stats": stats_doc(res.stats),
        "injected": len(res.injector.events),
    }
    if mode == "rtm":
        doc["image"] = array_doc(out.image)
    else:
        doc["final"] = array_doc(out.final_wavefield)
    return _sha(doc)


MULTI_SPECS = {
    "clean": (),
    "mpi-drop": (FaultSpec("mpi-drop", op_index=2),),
    "pcie-transient": (FaultSpec("pcie-transient", op_index=4, count=2),),
    "ecc": (FaultSpec("ecc", op_index=6),),
    "ecc-late": (FaultSpec("ecc", op_index=30),),
    "rank-dead": (FaultSpec("rank-dead", op_index=6, rank=1),),
    "rank-dead-late": (FaultSpec("rank-dead", op_index=40, rank=1),),
}


def resilient_multi_digest(mode, spec_name):
    r = ResilientMultiGpu(
        "acoustic", (64, 64), 2,
        plan=FaultPlan(specs=MULTI_SPECS[spec_name]),
        backoff=BackoffPolicy(seed=1), boundary_width=8, space_order=8,
        checkpoint_period=3,
    )
    out = r.run(9, snap_period=SNAP, mode=mode)
    return _sha({
        "out": array_doc(out),
        "stats": stats_doc(r.stats),
        "device_s": _num(r.device_seconds()),
        "ngpus": r.ngpus,
        "times": [times_doc(rc.pipe.gpu_times()) for rc in r.mgp.ranks],
    })


# ----------------------------------------------------------------------
# golden registry: name -> (callable, args)
# ----------------------------------------------------------------------
def _cases() -> dict:
    cases = {}
    for run in SEED_RUNS:
        cases["program/" + _seed_id(*run)] = (program_digest, run)
        cases["estimate/" + _seed_id(*run)] = (estimate_digest, run)
    for name, physics, shape, mode in OOM_RUNS:
        cases["estimate/" + name] = (
            estimate_digest, (physics, 3, "pgi", mode, shape),
        )
    for physics in ("isotropic", "acoustic"):
        cases[f"compiled/{SHORT[physics]}2d-pgi-rtm"] = (
            estimate_digest, (physics, 2, "pgi", "rtm", None, True),
        )
    for physics in ("isotropic", "acoustic", "elastic"):
        for attached in (False, True):
            tag = "attached" if attached else "host"
            cases[f"run_rtm/{SHORT[physics]}2d-{tag}"] = (
                rtm_digest, (physics, attached),
            )
            cases[f"run_modeling/{SHORT[physics]}2d-{tag}"] = (
                modeling_digest, (physics, attached),
            )
        for mode in ("modeling", "rtm"):
            cases[f"multigpu/{SHORT[physics]}2d-{mode}"] = (
                multigpu_digest, (physics, mode),
            )
        cases[f"run_rtm/{SHORT[physics]}3d-host"] = (
            rtm_digest, (physics, False, CUBE, CUBE_NT),
        )
        cases[f"run_modeling/{SHORT[physics]}3d-host"] = (
            modeling_digest, (physics, False, CUBE, CUBE_NT),
        )
    for variant in ("restructured", "everywhere"):
        cases[f"run_rtm/iso2d-{variant}-host"] = (
            rtm_digest, ("isotropic", False, (48, 48), 18, variant),
        )
    cases["run_modeling/vti2d-host"] = (modeling_digest, ("vti", False))
    for mode in ("modeling", "rtm"):
        for spec in RESILIENT_SPECS:
            cases[f"resilient/{mode}-{spec}"] = (resilient_digest, (mode, spec))
        for spec in MULTI_SPECS:
            cases[f"resilient_multi/{mode}-{spec}"] = (
                resilient_multi_digest, (mode, spec),
            )
    return cases


CASES = _cases()

GOLDENS: dict[str, str] = {
    "compiled/ac2d-pgi-rtm": "06242da92bc71b540bfa84560e0f07591ea20e55150c868d0ad3e36e1f586050",
    "compiled/iso2d-pgi-rtm": "3ca27fbc0d67ab9301d980caf4a48bb3f6f3b8a94002dbccbdb024ff04381526",
    "estimate/ac2d-cray-modeling": "a03af5c23b22ebacd27a295d94c2c3c8254a219b3abf5929ec2d109afcc2f6a7",
    "estimate/ac2d-cray-rtm": "a49f2afeae575456f7ab6176ecd0463f0817c92b1ca5993226ab134fd718f5a3",
    "estimate/ac2d-pgi-modeling": "d731e45710a5085ebf8df9fcaf2dbe50e8a3e8dbac6a03b26f97f38e4a590b9e",
    "estimate/ac2d-pgi-rtm": "fed655d4c939fa3390d3212e7c2920740c5f058ce7a58b275cd961fcfa3f9200",
    "estimate/ac3d-cray-modeling": "a9b5bc363f08d9f8bd33d547ea9c814758eb355b25ceefc3065aa5a3d906f01e",
    "estimate/ac3d-cray-rtm": "bf4414806e61df3519edfcb3a8c303430636215516cada9932f130fbfbaf7103",
    "estimate/ac3d-modeling-oom": "7c6fb4fc88d34e1d3a4ce7916d30d78591692b4b6bf53853f94a249c1d62d0a8",
    "estimate/ac3d-pgi-modeling": "352331a95e10a247304665977cfab909683366bec71003b4e02549d840a43b44",
    "estimate/ac3d-pgi-rtm": "915db134a797cd56ebcb225412901bab7f1919fc08ce9d1514736ca68033a565",
    "estimate/ac3d-swap-oom": "7c6fb4fc88d34e1d3a4ce7916d30d78591692b4b6bf53853f94a249c1d62d0a8",
    "estimate/el2d-cray-modeling": "25025a05028ce293bf5e4b3349071463ec476ec9fd0b557ec7aa3b4b062f8245",
    "estimate/el2d-cray-rtm": "5d300e1c045062726e80d5b04babebec6bc2e7cf582d3d8d7c395e5622320e2f",
    "estimate/el2d-pgi-modeling": "407ee174bf316fd5cd9f640148c97c5882a52acc30d32cbdfbe4687119367748",
    "estimate/el2d-pgi-rtm": "46a52c3e4bb1b1807de4aeb59a6d43ae5e2d4f8d3cb51de1c866069dfbaa9ea8",
    "estimate/el3d-alloc-oom": "7c6fb4fc88d34e1d3a4ce7916d30d78591692b4b6bf53853f94a249c1d62d0a8",
    "estimate/el3d-cray-modeling": "2597b325f274da32b336c1cffaf3dd48fed701d8c27d5f5f5f330d013171a39f",
    "estimate/el3d-cray-rtm": "8ba245c2214b71aa10f2dc74e8da90b57a3c74ebb492b9911462a4b24bcc1d63",
    "estimate/el3d-pgi-modeling": "c0b7a69dfd09935be7e24b86ffc642c3c2ab5cdbda67263173d0ee8859963221",
    "estimate/el3d-pgi-rtm": "bd2d5c16084230295647a855111b08df5a41c1006f616ea3622c88f0bb4fbb63",
    "estimate/iso2d-cray-modeling": "0fdc3541cfeee779a97d51028b5a9b56ce7a9e096e9715e239c11bc55a56b3e9",
    "estimate/iso2d-cray-rtm": "c315f06018b816f44a9d006d654078df3882cb06a8ad85e67364f8002f52fcfb",
    "estimate/iso2d-pgi-modeling": "85ca1cd4a1b11f9786359d1465aef99732710616414851258879ecc06ccdf71e",
    "estimate/iso2d-pgi-rtm": "b31ad4910468923e0f72b4f59217574a05b2a8bd3c65c240eb3a9d5efbf141ee",
    "estimate/iso3d-cray-modeling": "190e6f503de442d628cf30640a71bed8c40a0a2c7995809349a3fffa65b3d2fd",
    "estimate/iso3d-cray-rtm": "d11f6d44788201f263ad6ff1222a809b1f162eb1126ccf00ff8228cc7a058716",
    "estimate/iso3d-pgi-modeling": "64fe1b499a0cbecb745c828facba8baed2e009f5bee14c4652b9ada10839846e",
    "estimate/iso3d-pgi-rtm": "64af07c3e3ab89819dfac43d5725162c64136d824eafc389d504524b141e9e63",
    "multigpu/ac2d-modeling": "9eb95305ebe69a261799731d21c7ba6382fc5fa0afae5e9b364ca3f526cbc74c",
    "multigpu/ac2d-rtm": "97073686493fa209c7d1290188ef0498ce70a9546ca051003141cce35c4a8ee7",
    "multigpu/el2d-modeling": "9c6bb694a8bf1d8cd17afbcb1848ba436e312965b1e793af5bf32bdc2d3085cb",
    "multigpu/el2d-rtm": "ab7caa7d167ff943577d3143809da3bbac76448395dccf58241e87674ba7b073",
    "multigpu/iso2d-modeling": "1a5276b36987aa06d99febad7ebe4432d5906d7a4799e49ab4a436f829e25b8c",
    "multigpu/iso2d-rtm": "bf47f370bea26643714567b023e9f98fc691638bcb9eea313b7de183974f45dc",
    "program/ac2d-cray-modeling": "e7b452e63e0fd456700db63b8000d66296fc9561235d9f112e028c73a54ef861",
    "program/ac2d-cray-rtm": "9528cedba30b3a264ff052ca658c576ed52f1ef52c26530d5f4105b0ac2d311f",
    "program/ac2d-pgi-modeling": "94c558b74c95e085a2e92a6cfee3c7b30d5c3cefbe16136177646f55d963bef2",
    "program/ac2d-pgi-rtm": "06f5da2938da992895ef07363d4d85fb8def21b624b60eddbe12554d8e6d36aa",
    "program/ac3d-cray-modeling": "45d592f19180c986e8d967f91855067a69fb95ad11b1c22390185dc200adc359",
    "program/ac3d-cray-rtm": "3972d5b2fe83864511efccd3e6f408753200169372c727751130c1e16f0c154f",
    "program/ac3d-pgi-modeling": "5bf067674663068e9474420028c891c3a545765b6e232f88fa6b16f61740dad2",
    "program/ac3d-pgi-rtm": "6169273fd2610428e243d4d34e64647bdf730e2b849f5db14cf14824119f4504",
    "program/el2d-cray-modeling": "5b89ad1dc2415f1f8bfe1d67f9c7c0382ce32d6791dcf018f7a2c4f7749efa81",
    "program/el2d-cray-rtm": "4b5a1709217c7ac2149aaaec406440470d7d4c7ec6822faf3f9ad6e6c9f3303c",
    "program/el2d-pgi-modeling": "4dc1eb3529008b2ab3b9b5249d4e7098c1eb5e950538b782977ad35df0331584",
    "program/el2d-pgi-rtm": "94a7ff02f3702ae61d909b778c341ba7e7c6dc5cdef5904763db4edec0667326",
    "program/el3d-cray-modeling": "4b1a0b3c7c7569f0fff0a83a927f10626ae81da1a2a5fe5bdb60766777827ba8",
    "program/el3d-cray-rtm": "c264022ac0c0cb1a4ebadffd3ae3cd15c48c2c54cdd8ce79173087e9853d07be",
    "program/el3d-pgi-modeling": "29a042379367b737ad6f030948720f32f3fde888dcb9860825a56a2281c278ed",
    "program/el3d-pgi-rtm": "78e8ffd9cc3de65dbf36201876887c334b23b9879339618586ec0fc36539401f",
    "program/iso2d-cray-modeling": "816eb9612eb224b87b713b0a65b4dde30cdfcc64719b07895a8690bc7a12a63c",
    "program/iso2d-cray-rtm": "9e7b53aeecd6581fbe387bc0dd24bdece7d1620fcf51de39ed43a750db50608e",
    "program/iso2d-pgi-modeling": "3bdcc2bac9f73886782b68b066fee5448b8568306f310bd715557b695a229f08",
    "program/iso2d-pgi-rtm": "e8ca29987ec33a7205423f759d249d4ef39dc7ba6606d476aa8d086a71f3766c",
    "program/iso3d-cray-modeling": "d988cd4dbeb018c678e44f993272a23a5e7e381ac81b9784a33f7adf7ab0a55c",
    "program/iso3d-cray-rtm": "d6c98dfb62bdd078014cf30cdb029d6e946c2c299c5bb39ac25410ed290b0d24",
    "program/iso3d-pgi-modeling": "223675d078159febc0d7b25a85933a622964f748ae347dfd3dc6439efe9f47fa",
    "program/iso3d-pgi-rtm": "ebb5602424aa50fce6e70fd4709dcc1ea7dc6eaed316e08d64c03c2bd95e790d",
    "resilient/modeling-clean": "5bf24617dbf06b248481809902d796299663f468e148730f748594b750b29568",
    "resilient/modeling-ecc-bwd": "5bf24617dbf06b248481809902d796299663f468e148730f748594b750b29568",
    "resilient/modeling-ecc-fwd": "b18c4ead0385144f8b1ebd59ba04effc67f5b8fe1962f6a2ea853db142ff4b43",
    "resilient/modeling-kernel-launch": "3b50108ecc37a1946d94f1fcdef834a85c61d684a32f853d2a61b859312585ec",
    "resilient/modeling-kernel-launch-bwd": "5bf24617dbf06b248481809902d796299663f468e148730f748594b750b29568",
    "resilient/modeling-oom": "5fc3424725a2fb4829a4a514d01d6bcf776ab54348d0f67833d5618f0d7cc192",
    "resilient/modeling-pcie-permanent": "fe24e6de9b5eb8fd1b75557e536bd32370a32590867c4a6ae0541ba93aaa639b",
    "resilient/modeling-pcie-permanent-bwd": "5bf24617dbf06b248481809902d796299663f468e148730f748594b750b29568",
    "resilient/modeling-pcie-permanent-swap": "5bf24617dbf06b248481809902d796299663f468e148730f748594b750b29568",
    "resilient/modeling-pcie-transient": "1ea966352b501f187abc07f3fad239caed6317c0ea560434229227933cb9b0f9",
    "resilient/rtm-clean": "67db25855a7996133e87bf72cad60d45eff700ad47303cae703564394d65fd13",
    "resilient/rtm-ecc-bwd": "3eea502038903ff522f302a3d3535006368dc90e3011d13e84cf3390c3f9e89a",
    "resilient/rtm-ecc-fwd": "b3bd0a667675fe0157e8adade350b941d85d02f8b866eb61c1c273970702c257",
    "resilient/rtm-kernel-launch": "5f4f3a7840ed0e804925feec13d929583260d9471079fb59ecea7770ef60fb58",
    "resilient/rtm-kernel-launch-bwd": "ff243d0c3f242a76e751e7b2012f10ae07299b73d319fc8c2dd9fff46745f705",
    "resilient/rtm-oom": "8330a6d9bd81c18d7822f49e511d4a176f036f0b548d65ec4c8e094232a0a315",
    "resilient/rtm-pcie-permanent": "da2494887f0d83c4973aecf357148509a0d2d60aa8ec411a1df2989c19b9c0d1",
    "resilient/rtm-pcie-permanent-bwd": "c5f0259c12205e38276eb67e8643d2e577d7f23b106b6ea2a2971cdaa969b682",
    "resilient/rtm-pcie-permanent-swap": "21dad1403be0c154d7f313242a082a1632e03b9f08395dc655cc151ed8bef904",
    "resilient/rtm-pcie-transient": "b3819d132b8f869c41f2aa87d76c29984f11a59a3aba0bb392aa935e45e51fce",
    "resilient_multi/modeling-clean": "50ebec68512161dde82dc9a8ce6c278aa834ad6aa9eb117c7b2c21e96663def4",
    "resilient_multi/modeling-ecc": "ee08fbce1f875c3be536e3eb8d65c7e7ed1f97da41ab354e2fab1f51c96067fc",
    "resilient_multi/modeling-ecc-late": "0f10fe1ebd85b35472da21b0ba4908fb4a568b6d937192ecf9f60a6945636fb9",
    "resilient_multi/modeling-mpi-drop": "fb34a8ef17dea1e21a2687c8a382a7b00b0e4e0c7aa9840c15a4d98f32209092",
    "resilient_multi/modeling-pcie-transient": "3584e655270cb9cfb19399e81bda1b0c2552ada94c78a8b606e9e1e04802504f",
    "resilient_multi/modeling-rank-dead": "d1ef8883afa0dcc64cf32aa573fdf403b84acc75f1d6e86ddee102d0acec8c4c",
    "resilient_multi/modeling-rank-dead-late": "50ebec68512161dde82dc9a8ce6c278aa834ad6aa9eb117c7b2c21e96663def4",
    "resilient_multi/rtm-clean": "596ecfecf0d34588742610ff5d8f8e80658f4d25641b292ca79e787def7db24c",
    "resilient_multi/rtm-ecc": "7b3ee7aa27b24b0311c7f42790858c8b670f5497baa507b87dae1d72eddc8d1c",
    "resilient_multi/rtm-ecc-late": "5c539e17de09cab9b43b9af365828128e4c8bd5f70d804b92dc7fcdc75b5b63e",
    "resilient_multi/rtm-mpi-drop": "da71819b40a65532925ca9de448804dd4b840c709f39f12149f5120ea8e4a264",
    "resilient_multi/rtm-pcie-transient": "878ba1a77c4dc754d321f5cbdfa05d04d402db86f57c1ab13818dd1ea78794f7",
    "resilient_multi/rtm-rank-dead": "615dc894e2cd2936c3cd2e2a0d4506cf80d68bf7232f7512b07195b9e70274b5",
    "resilient_multi/rtm-rank-dead-late": "68bc4ca992c528f5ef30a0eb9179f7a2671e7b763010e9a1c318ade7da500360",
    "run_modeling/ac2d-attached": "75886c6b1fdfd5989970c3405742b4f0fd63ae15ff788c6855b2afc0ba6a5e06",
    "run_modeling/ac2d-host": "99349460acadad6a9d2b9fbcb29f96218671cc2a776b94c3af788d6ed38375fe",
    "run_modeling/ac3d-host": "c7ded8959cc1f74e02ebc1bf5f713ddfd4abdfdfd23ca9251f2c82e18bcd991b",
    "run_modeling/el2d-attached": "b8529c34803b44dcc5f9cf8fc2fd9183fdbe9ab79faea6e95cda36176e8037c6",
    "run_modeling/el2d-host": "6938fcb9026aa960d262348d776122ee68c8a17a899edf572089e45285c9e3ee",
    "run_modeling/el3d-host": "6c8d8f4e70f82ea228078e851b2eef8e7f11bac45f39ac35cead280ce33f2089",
    "run_modeling/iso2d-attached": "223057516495a387bf9d8b4a006f250eeb4e1db8a2c38f454bf7217a726b8889",
    "run_modeling/iso2d-host": "e1d03f89892695c5a149d05079264492887d55b73e31b32eaf89c51fad44a6f7",
    "run_modeling/iso3d-host": "5d73f996b6a6fa35d822fef741f9efb791e2fd2624234de78ce37a61a9a7f35b",
    "run_modeling/vti2d-host": "81b8176af1677a84eee02ba9c74d24a6a1fd8325506a2dc3060bafd6e7f3c7fb",
    "run_rtm/ac2d-attached": "889b3d406c6b87d5490b9eea45793f0f1998ceb7829f560ed34c77a691a5d518",
    "run_rtm/ac2d-host": "be97af57081677118d2ca3253dc7d71ff237e515fb692b499a21d281e3ce1ab7",
    "run_rtm/ac3d-host": "6c1c503e59d8454a2d61e025b8a706417b3a0366fd28a5da616e4c20108d7bf4",
    "run_rtm/el2d-attached": "aadcbb3b1a91694dc3888a3c2f58a6a36da265b6cf02ce321673e8a7745927ec",
    "run_rtm/el2d-host": "1320283cfce3ce6923e9b0f6e52d1126ed499a29fa90a46df7c5d7a56d9db793",
    "run_rtm/el3d-host": "6847e4a243a9b05c1c13dcaea72f94b074a7515a5430496a1b756c11d3f39dd3",
    "run_rtm/iso2d-attached": "bcc29a84a4c5d759af643e68aac31ab66a6e3dd76322a56442f8240bb9e69ba0",
    "run_rtm/iso2d-everywhere-host": "6e5ac8765f3f0b4be9839c31b3c614e8ca5d74865b857d4eb90ccf43eda40768",
    "run_rtm/iso2d-host": "6e5ac8765f3f0b4be9839c31b3c614e8ca5d74865b857d4eb90ccf43eda40768",
    "run_rtm/iso2d-restructured-host": "6e5ac8765f3f0b4be9839c31b3c614e8ca5d74865b857d4eb90ccf43eda40768",
    "run_rtm/iso3d-host": "97f63ef14d8cf72cacdb89769c3da2b6c4982453c534bddf8421e6341c224204",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    fn, args = CASES[name]
    assert fn(*args) == GOLDENS[name]


def test_registry_is_complete():
    assert sorted(GOLDENS) == sorted(CASES)


if __name__ == "__main__":  # regenerate the table above
    from repro.compile import runner

    runner.clear_cache()
    print("GOLDENS: dict[str, str] = {")
    for name in sorted(CASES):
        fn, args = CASES[name]
        print(f'    "{name}": "{fn(*args)}",')
    print("}")
