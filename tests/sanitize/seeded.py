"""Fault-seeded inputs the sanitizer tests share.

:data:`SCRIPTS` holds the hand-written ``!$acc`` scripts, each seeding one
hazard (or its clean counterpart); :data:`LIVE_FAULTS` holds the
:class:`~repro.core.multigpu.ExchangeProtocol` fault knobs of the executed
per-rank multi-GPU path, with the rule the static interpreter proves on
their recordings.
"""

import textwrap

from repro.core.multigpu import ExchangeProtocol


def _script(text: str) -> str:
    return textwrap.dedent(text).strip() + "\n"


SCRIPTS = {
    "stale-device-read": _script("""
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint host_writes(u) bytes=768 offset=0
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$acc exit data delete(u)
    """),
    "update-device-clean": _script("""
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint host_writes(u) bytes=768 offset=0
        !$acc update device(u)
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$acc exit data delete(u)
    """),
    "stale-host-read": _script("""
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$acc wait
        !$lint send(u) to=1 bytes=384 offset=384
        !$acc exit data delete(u)
    """),
    "halo-send-before-sync": _script("""
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$lint bytes=384 offset=384
        !$acc update host(u) async(2)
        !$lint send(u) to=1 bytes=384 offset=384
        !$acc exit data delete(u)
    """),
    "waited-async-update": _script("""
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$lint bytes=384 offset=384
        !$acc update host(u) async(2)
        !$acc wait(2)
        !$lint send(u) to=1 bytes=384 offset=384
        !$acc exit data delete(u)
    """),
    "short-ghost-transfer": _script("""
        !$lint extent(u=36864)
        !$acc enter data copyin(u)
        !$lint host_writes(u) bytes=768 offset=0
        !$lint bytes=384 offset=0
        !$acc update device(u)
        !$lint name=fwd dims=96x96 reads=u writes=u halo=2
        !$acc parallel loop gang vector
        !$acc exit data delete(u)
    """),
    "ghost-transfer-out-of-bounds": _script("""
        !$lint extent(u=1024)
        !$acc enter data copyin(u)
        !$lint bytes=2048 offset=512
        !$acc update device(u)
        !$acc exit data delete(u)
    """),
    "unflushed-copyout": _script("""
        !$lint extent(u=1024)
        !$acc enter data copyin(u)
        !$lint name=k writes=u
        !$acc parallel loop
        !$lint host_reads(u)
        !$acc exit data delete(u)
    """),
    "two-arrays-stale": _script("""
        !$lint extent(u=36864)
        !$lint extent(v=36864)
        !$acc enter data copyin(u, v)
        !$lint host_writes(u) bytes=768 offset=0
        !$lint host_writes(v) bytes=512 offset=0
        !$lint name=fwd dims=96x96 reads=u,v writes=u
        !$acc parallel loop gang vector
        !$acc exit data delete(u, v)
    """),
    "indented-anchor": (
        "!$lint extent(u=1024)\n"
        "!$acc enter data copyin(u)\n"
        "    !$lint host_writes(u) bytes=64 offset=0\n"
        "    !$lint name=k dims=16x16 reads=u writes=u\n"
        "    !$acc parallel loop\n"
        "!$acc exit data delete(u)\n"
    ),
    "enter-exit-only": (
        "!$acc enter data copyin(u)\n!$acc exit data delete(u)\n"
    ),
    "sizeless-clean": _script("""
        !$acc enter data copyin(u)
        !$lint name=fwd dims=96x96 reads=u writes=u
        !$acc parallel loop gang vector
        !$acc exit data delete(u)
    """),
}

#: fault name -> (``sanitize_pipeline`` keywords, the rule the static
#: interpreter proves on the recordings, or None when it proves none)
LIVE_FAULTS = {
    "clean": ({}, None),
    "no ghost update device": (
        {"protocol": ExchangeProtocol(update_ghost_device=False)},
        "stale-device-read",
    ),
    "no update host before send": (
        {"protocol": ExchangeProtocol(update_host_before_send=False)},
        "stale-host-read",
    ),
    "async update without wait": (
        {"protocol": ExchangeProtocol(async_updates=True, sync_before_send=False)},
        "halo-send-before-sync",
    ),
    "async update with wait": (
        {"protocol": ExchangeProtocol(async_updates=True, sync_before_send=True)},
        None,
    ),
    # the short ghost is found by comparing the decomposition's halo with
    # the stencil radius, which only the sanitizer is told
    "halo_width=2": ({"halo_width": 2}, None),
}
