"""Byte-level goldens of the sanitizer's findings and replay fingerprints.

Each digest is the sha256 of the JSON of every ``Diagnostic.to_dict()``
(message, event index, fix) one sanitized run reports, in report order:
the live fault-seeded protocols at 1, 2 and 4 ranks in both modes, and
every fault-seeded script the sanitizer tests share. The seed programs'
:func:`~repro.analyze.dataflow.replay_fingerprint` (final per-array dirty
coverage plus the finding set) is pinned the same way, since the compile
verification gate compares those fingerprints: once for the whole
program, whose arrays all leave the device clean, and once for the prefix
that ends at the last kernel before its first ``exit data``, whose
kernel writes are still device-dirty.
"""

import hashlib
import json

import pytest

from repro.analyze.dataflow import replay_fingerprint
from repro.analyze.drivers import record_pipeline_program
from repro.analyze.program import DirectiveProgram
from repro.bench.workloads import MODES, RECORD_SHAPES, SEED_PAIRS, space_order
from repro.sanitize import sanitize_pipeline, sanitize_script
from tests.sanitize.seeded import LIVE_FAULTS, SCRIPTS


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def findings(result) -> str:
    return digest([d.to_dict() for d in result.diagnostics])


def through_last_kernel(program: DirectiveProgram) -> DirectiveProgram:
    first_exit = next(e.index for e in program.events if e.kind == "exit")
    last_kernel = max(
        e.index for e in program.events[:first_exit] if e.kind == "compute"
    )
    out = DirectiveProgram(program.meta)
    out.extents = dict(program.extents)
    for e in program.events[: last_kernel + 1]:
        out.add(e)
    return out


LIVE_GOLDENS = {
    "async update with wait x1 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "async update with wait x1 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "async update with wait x2 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "async update with wait x2 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "async update with wait x4 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "async update with wait x4 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "async update without wait x1 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "async update without wait x1 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "async update without wait x2 modeling":
        "6c2df8ecbc1886a3e4fee2ce1226b2914fa310ca7634e6ac824a76ced86bb1b8",
    "async update without wait x2 rtm":
        "b641ae86648e519cdb902c15c7be475867098cbf031af4e3f0de07d42f8747bc",
    "async update without wait x4 modeling":
        "a42df58c8641bb23ccc35aa2b95c614c9a38cd791bba5a58bc19af4016ca6169",
    "async update without wait x4 rtm":
        "d80c2c4cb46d47001a40c883d9ef013342369904009b7af37b042ed0be6ea1a6",
    "clean x1 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "clean x1 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "clean x2 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "clean x2 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "clean x4 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "clean x4 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "halo_width=2 x1 modeling":
        "46b2abfd1af45e5e7e7e974ba564dfcd2fe9b4e3c99e4962a6896973582e3552",
    "halo_width=2 x1 rtm":
        "46b2abfd1af45e5e7e7e974ba564dfcd2fe9b4e3c99e4962a6896973582e3552",
    "halo_width=2 x2 modeling":
        "46b2abfd1af45e5e7e7e974ba564dfcd2fe9b4e3c99e4962a6896973582e3552",
    "halo_width=2 x2 rtm":
        "46b2abfd1af45e5e7e7e974ba564dfcd2fe9b4e3c99e4962a6896973582e3552",
    "halo_width=2 x4 modeling":
        "46b2abfd1af45e5e7e7e974ba564dfcd2fe9b4e3c99e4962a6896973582e3552",
    "halo_width=2 x4 rtm":
        "46b2abfd1af45e5e7e7e974ba564dfcd2fe9b4e3c99e4962a6896973582e3552",
    "no ghost update device x1 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "no ghost update device x1 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "no ghost update device x2 modeling":
        "9eeaea72b04bb13b98e0d7c7caa5348a4ee0e817bbd5191362fd764a8c5527a1",
    "no ghost update device x2 rtm":
        "9eeaea72b04bb13b98e0d7c7caa5348a4ee0e817bbd5191362fd764a8c5527a1",
    "no ghost update device x4 modeling":
        "3981a94e0f208a1bfde03bcdbf8c443baadd6966224b9d6cbd831a160c396db4",
    "no ghost update device x4 rtm":
        "3981a94e0f208a1bfde03bcdbf8c443baadd6966224b9d6cbd831a160c396db4",
    "no update host before send x1 modeling":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "no update host before send x1 rtm":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "no update host before send x2 modeling":
        "fcec94bc914b2c8344aa54454cf5bbfbf5b8d0d219281c4bb071aa34cd90a3c3",
    "no update host before send x2 rtm":
        "fcec94bc914b2c8344aa54454cf5bbfbf5b8d0d219281c4bb071aa34cd90a3c3",
    "no update host before send x4 modeling":
        "ee4b175a8e81640580ff45c17c8b4140e665747ed60cc6456404ad1b91b503b7",
    "no update host before send x4 rtm":
        "ee4b175a8e81640580ff45c17c8b4140e665747ed60cc6456404ad1b91b503b7",
}

SCRIPT_GOLDENS = {
    "enter-exit-only":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "ghost-transfer-out-of-bounds":
        "fc0150e833e36d3988ebe94eefd8d08b89b3ee16004fce016b70cd55f53fc3f1",
    "halo-send-before-sync":
        "a19bbeb68138b7cb23c8496515de6f36d057246bcf2a6b09cf417ea4d5d2d7e4",
    "indented-anchor":
        "60174f54a4fb94cdb9aed849531621d85b276bfb39e234772bb5f6ea76343299",
    "short-ghost-transfer":
        "477308415580b050e6302642ecb63a11d24a52abf66e7c7e97d457a212f860bf",
    "sizeless-clean":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "stale-device-read":
        "940be75d97e56291bc649d9217299f90ea93c3d32101a1fe74d6d9385cef3854",
    "stale-host-read":
        "895fe5e74851d5f1548fb1a60db4cfea31bf249ffd249c925f82fc98696f7980",
    "two-arrays-stale":
        "54959733709cd51569aa7357410440dec6961c598489160b579f3ab1f9421be7",
    "unflushed-copyout":
        "7c604ae545ceca203f2ee63e60f309c646d3d8850b7c1a17a5e5dff66a77a6bd",
    "update-device-clean":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "waited-async-update":
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
}

FINGERPRINT_GOLDENS = {
    "isotropic2d modeling":
        "2b0fd2bfeda25b1f6133adad9daf6ab146c296a64a1314404bc7b653139afe1d",
    "isotropic2d rtm":
        "2b0fd2bfeda25b1f6133adad9daf6ab146c296a64a1314404bc7b653139afe1d",
    "acoustic2d modeling":
        "d36d339be755870e8aef3372257da437ef415c59c13b653fce090cc669d79e35",
    "acoustic2d rtm":
        "d36d339be755870e8aef3372257da437ef415c59c13b653fce090cc669d79e35",
    "elastic2d modeling":
        "737db4319e9989e5469c7d062094f90fe5d952fd24ce860f91c66a806b48d6a3",
    "elastic2d rtm":
        "737db4319e9989e5469c7d062094f90fe5d952fd24ce860f91c66a806b48d6a3",
    "isotropic3d modeling":
        "cbd21cc3692be9eb5c08222899a24480cfea2a692d28d73b28f927aa40ce0b13",
    "isotropic3d rtm":
        "cbd21cc3692be9eb5c08222899a24480cfea2a692d28d73b28f927aa40ce0b13",
    "acoustic3d modeling":
        "40557484a719820018e614b2405de65acce8916375d5d623a9549a35e427ea79",
    "acoustic3d rtm":
        "40557484a719820018e614b2405de65acce8916375d5d623a9549a35e427ea79",
    "elastic3d modeling":
        "725bb1bf3097522a3a8ee54c8d5fc19f90a3ef9ac2dabbc71b609243257ce85f",
    "elastic3d rtm":
        "725bb1bf3097522a3a8ee54c8d5fc19f90a3ef9ac2dabbc71b609243257ce85f",
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ranks", [1, 2, 4])
@pytest.mark.parametrize("fault", sorted(LIVE_FAULTS))
def test_live_fault_findings(fault, ranks, mode):
    kwargs, _ = LIVE_FAULTS[fault]
    r = sanitize_pipeline(
        "isotropic", (96, 96), mode, ranks=ranks, nt=8, snap_period=4,
        **kwargs,
    )
    assert findings(r) == LIVE_GOLDENS[f"{fault} x{ranks} {mode}"]


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_findings(name):
    assert findings(sanitize_script(SCRIPTS[name])) == SCRIPT_GOLDENS[name]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("physics,ndim", SEED_PAIRS)
def test_seed_replay_fingerprint(physics, ndim, mode):
    program = record_pipeline_program(
        physics, RECORD_SHAPES[ndim], mode, nt=8,
        space_order=space_order(ndim),
    )
    got = digest([
        replay_fingerprint(program),
        replay_fingerprint(through_last_kernel(program)),
    ])
    assert got == FINGERPRINT_GOLDENS[f"{physics}{ndim}d {mode}"]
