"""Committed goldens for what the dataflow engine and the compiler decide
on the seed programs.

For each of the 6 seed cases in both modes, three sha256 digests over
exact values:

* ``opportunities/`` — every :func:`find_opportunities` report of the
  recorded program (kind, anchor events, variable, kernels, removed
  events, insertion point and the replay verdict);
* ``loops/`` — the :func:`detect_loops` regions of that program;
* ``compile/`` — :func:`compile_case`'s selection (each applied
  opportunity, each skipped one with its reason), the per-phase launch
  counts, the cross-phase variants and the recorded program's sha.

A change to the IR, the loop detector or the selection gauntlet that
moves any verdict shows up here.

Regenerate (only for a change that is *meant* to move decisions) with::

    PYTHONPATH=src python tests/analyze/test_opportunity_goldens.py
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.analyze.cli import _INVENTORY, _SHAPES
from repro.analyze.dataflow import detect_loops, find_opportunities
from repro.analyze.drivers import record_pipeline_program
from repro.compile import CompileRequest, compile_case

#: nt is not a multiple of the snapshot period, so the tail steps carry
#: no snapshot and the loop detector sees a ragged end
NT, SNAP = 10, 4
SHORT = {"isotropic": "iso", "acoustic": "ac", "elastic": "el"}

SEED = [
    (f"{SHORT[physics]}{ndim}d", physics, ndim, mode)
    for physics, ndim in _INVENTORY
    for mode in ("modeling", "rtm")
]


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


@functools.lru_cache(maxsize=None)
def _program(physics, ndim, mode):
    return record_pipeline_program(
        physics, _SHAPES[ndim], mode, nt=NT, snap_period=SNAP,
        space_order=4 if ndim == 3 else 8, boundary_width=8,
    )


def opportunities_digest(case, physics, ndim, mode):
    report = find_opportunities(_program(physics, ndim, mode), verify=True)
    return _sha([
        [o.kind, list(o.events), o.var, list(o.kernels),
         list(o.remove_events), o.insert_at, o.verified]
        for o in report.opportunities
    ])


def loops_digest(case, physics, ndim, mode):
    return _sha([
        [r.start, r.period, r.reps]
        for r in detect_loops(_program(physics, ndim, mode))
    ])


def compile_digest(case, physics, ndim, mode):
    compiled = compile_case(CompileRequest.from_case(case, mode, nt=NT))
    return _sha({
        "program_sha": compiled.program_sha,
        "applied": [
            [a.kind, a.phase, list(a.offsets), list(a.kernels), a.var]
            for a in compiled.applied
        ],
        "skipped": [
            [kind, list(events), reason]
            for kind, events, reason in compiled.skipped
        ],
        "launches": compiled.launches,
        "cross_variants": sorted(
            [list(k), v] for k, v in compiled.cross_variants.items()
        ),
        "verified": compiled.verified,
    })


def _cases() -> dict:
    cases = {}
    for run in SEED:
        tag = f"{run[0]}-{run[3]}"
        cases["opportunities/" + tag] = (opportunities_digest, run)
        cases["loops/" + tag] = (loops_digest, run)
        cases["compile/" + tag] = (compile_digest, run)
    return cases


CASES = _cases()

GOLDENS: dict[str, str] = {
    "compile/ac2d-modeling": "2603de51e3473680fe44f71c3088ddf90dc4c69de509e15a75f506689abb0930",
    "compile/ac2d-rtm": "2951b7e2fc497c74ae86c7cb5cc8ecd06b95129e6023d2f342bd17bb8cd8d769",
    "compile/ac3d-modeling": "5c222decad1a19778e997908296180f388928aa8ce4ec495d3e1d7cb3e92ab7e",
    "compile/ac3d-rtm": "16418796adc11229fdef5e531a8ead3647a7a690efe5c0aeb7f1a0ef4b047071",
    "compile/el2d-modeling": "b9ccd4c90838dc91fb8a269d2f2cc6b20c9f81cc7a89e6adabbe8736aad5b52a",
    "compile/el2d-rtm": "8f0462143731d6f85c3c8c4f89c63fd7c3a43570021bcf2aab3608e4f2e840e6",
    "compile/el3d-modeling": "5e4d8a5e9c3809c6e9676529b68b3e7728264de67d58714b82800159d642382b",
    "compile/el3d-rtm": "1fbb2034aaf4763667a636bdfb44d1314c452492d79a450415820f940d611abb",
    "compile/iso2d-modeling": "8dd8c4c66b648cc751d108bc2c8c85011b78d262d9ac05515d908cde790a0c81",
    "compile/iso2d-rtm": "2f6f06b2ff8b41ffbdc5668ad2288263ba741f52f50d60a3c2b3f5dbdddb28e9",
    "compile/iso3d-modeling": "175ecaccba9a78dbc8974730e1e0c93cd347defc2cf7b0bb6e326b668f09c15d",
    "compile/iso3d-rtm": "fb703d69e53270bffbcf8381391282015f9d4f1459f7bbed3381ae4bfdb0b1c0",
    "loops/ac2d-modeling": "4a25b40c53e925cbf7a347b9ef58dcc6ea70d74ba2102962ba995d76c8983199",
    "loops/ac2d-rtm": "bbe2e124ee9ec3e159febc7de33947182f17fc4f9d08bc4c5c9cca206c1b0240",
    "loops/ac3d-modeling": "4a25b40c53e925cbf7a347b9ef58dcc6ea70d74ba2102962ba995d76c8983199",
    "loops/ac3d-rtm": "bbe2e124ee9ec3e159febc7de33947182f17fc4f9d08bc4c5c9cca206c1b0240",
    "loops/el2d-modeling": "4a25b40c53e925cbf7a347b9ef58dcc6ea70d74ba2102962ba995d76c8983199",
    "loops/el2d-rtm": "bbe2e124ee9ec3e159febc7de33947182f17fc4f9d08bc4c5c9cca206c1b0240",
    "loops/el3d-modeling": "0bb64539f2aec7dba854fa00ed0cf7480871c060f834262c56ae10d43cfb1ea2",
    "loops/el3d-rtm": "fca649266d1fcadf528cefea389415727d55968a43efd278025a118014680283",
    "loops/iso2d-modeling": "5ca278a0043457e630eb08c788394c89e40b8fcc333baa412b573dda89cbd33f",
    "loops/iso2d-rtm": "5245438abb13f88fe9d21dfe11aa42126489be855e381692f51dbfe2f04888fe",
    "loops/iso3d-modeling": "0bb64539f2aec7dba854fa00ed0cf7480871c060f834262c56ae10d43cfb1ea2",
    "loops/iso3d-rtm": "96bab7102d66f0565aff0fbf5a1a0bb1ef2ff9ac82d44dd57e724a9f8181dddd",
    "opportunities/ac2d-modeling": "a1c7b6b990108f3dccb486ddb29a60c39e927e471eeeb47fa61cc86dad32501b",
    "opportunities/ac2d-rtm": "332e51c0099b61584e2d6ee7dc14879d6698cefe7321c58fa2901b44fab79566",
    "opportunities/ac3d-modeling": "a1c7b6b990108f3dccb486ddb29a60c39e927e471eeeb47fa61cc86dad32501b",
    "opportunities/ac3d-rtm": "332e51c0099b61584e2d6ee7dc14879d6698cefe7321c58fa2901b44fab79566",
    "opportunities/el2d-modeling": "c4528676683cb7f6db28128def2a7ab38cb1f6ea41453899bd5ec0452177cba4",
    "opportunities/el2d-rtm": "b8f0efc067e99de1ccacb20f894ae9e977d85a626df8843d8ec6e8bc548adec5",
    "opportunities/el3d-modeling": "662a6195a8f40a7c38d66ca8c37f7ad3a877f88e0b4e5858b81095c56ef7c32e",
    "opportunities/el3d-rtm": "3de5667c7b04ceb81a5844608c9b8d74487a9c03cafda069406a7aaafc0aa159",
    "opportunities/iso2d-modeling": "3689b0a43ce35f9ebb678075c0cf897459ac760309b8e5eb4b37fab26dd15d7b",
    "opportunities/iso2d-rtm": "3cf5c429af82fc635ad3fc7bc87ae9f32607a36a2cd4c5ddc0aba23dfd435227",
    "opportunities/iso3d-modeling": "a9923dd04dd69409e8118eb20b38382a61e42c5a8615790e5a2f3ad96cc33330",
    "opportunities/iso3d-rtm": "57e554e20cf98ae7c6077e727ca158bc15002e8d8e209421dc6c97c76c5888f8",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    fn, args = CASES[name]
    assert fn(*args) == GOLDENS[name]


def test_registry_is_complete():
    assert sorted(GOLDENS) == sorted(CASES)


if __name__ == "__main__":  # regenerate the table above
    print("GOLDENS: dict[str, str] = {")
    for name in sorted(CASES):
        fn, args = CASES[name]
        print(f'    "{name}": "{fn(*args)}",')
    print("}")
