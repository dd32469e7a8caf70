"""Byte-level goldens of the case-taking subcommands' stdout.

Each command runs in-process through :func:`repro.__main__.main`; its
stdout (with the ``--out`` / ``--trace`` path masked) must hash to the
pinned sha256. A change to a label, a SARIF tool name, a target order or a
number shows up here as a changed digest. The multi-rank trace and the
single-card chaos trace also pin their written file: every timestamp in
them is simulated, so two runs must write the same bytes. The chaos trace
is the one pin on the order of the recovery spans (retry, restart,
degrade) a campaign opens.
"""

import hashlib

import pytest

from repro.__main__ import main

GOLDENS = {
    "lint all": (
        ["lint", "all", "--no-ledger"],
        "53b935e99cde57bb0f84589dde3f3941fe8bfbd8b1e5b61d6cfa712fbb465ee4",
    ),
    "lint all --deep --format json": (
        ["lint", "all", "--deep", "--format", "json", "--no-ledger"],
        "c09fa64fca7dfc6982a1076c46206223e0f07d14003b017b0642a1ef6b9f0fd8",
    ),
    "sanitize all --ranks 2 --format json": (
        ["sanitize", "all", "--ranks", "2", "--format", "json"],
        "1d41830ac280b72f7f2eb546273f58ccfaaa88512f29fbc64d441b816aa3ee3d",
    ),
    "deps all --mode both --format json --no-verify": (
        ["deps", "all", "--mode", "both", "--format", "json", "--no-verify"],
        "e09bacd9b1de6cf39df6c6648bf952108c9f45594407de43ef421fce030871de",
    ),
    "compile iso2d --format json": (
        ["compile", "iso2d", "--format", "json", "--no-ledger"],
        "c8ee7c79326dfda336ffa75ecee4148dca547905e6bf1bc957293c92f68729fb",
    ),
    "validate el3d --format sarif": (
        ["validate", "el3d", "--format", "sarif", "--no-ledger"],
        "69653a3de3ce364d9f8c2f06e4ef526d01d7360a375045812e0bf18400f3dbd0",
    ),
    "trace iso2d --nt 8": (
        ["trace", "iso2d", "--nt", "8", "--out", "{out}", "--no-ledger"],
        "0848776547a2bb0845b6e8d37b703821c74963f2039f8765bdf270ff47b84b94",
    ),
    "trace iso2d --ranks 2 --nt 8": (
        ["trace", "iso2d", "--ranks", "2", "--nt", "8", "--out", "{out}",
         "--no-ledger"],
        "c7a29a6001dbbee239efb5af26824cfc2ea356eb4b6a6d602de292275e525421",
    ),
    "chaos iso2d --format json": (
        ["chaos", "iso2d", "--format", "json", "--trace", "{out}",
         "--no-ledger"],
        "45d963d75acdf221bb38e03cd5ec6f9257dd14c76190e54ecc2bb26db443eb94",
    ),
    "chaos iso2d --ranks 2 --format json": (
        ["chaos", "iso2d", "--ranks", "2", "--format", "json", "--no-ledger"],
        "bc8d223e5088eb682539cccd677a213bd349fb1c5942648a4c611df992c25bde",
    ),
    "serve iso2d --workers 2 --gpus 2 --faults mpi-rank-dead@x1": (
        ["serve", "iso2d", "--workers", "2", "--gpus", "2", "--faults",
         "mpi-rank-dead@x1", "--format", "json", "--out", "{out}",
         "--no-ledger"],
        "54d9307cb54095c72a1b9549a1bbbccf073e8f882ad4865257c78db833684bd9",
    ),
}

#: sha256 of the ``--out`` / ``--trace`` file, for the commands whose
#: trace is pinned
TRACE_FILES = {
    "trace iso2d --ranks 2 --nt 8":
        "669c11810e83e70c4e630ba89dba87a92c225e6e89f6b470fe8992e5f011bb15",
    "chaos iso2d --format json":
        "4c400537da3c96b039af8e578015ba53eeee25ce1508199be641392b1b8fbcb8",
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_stdout_digest(name, tmp_path, capsys):
    argv, digest = GOLDENS[name]
    out_path = str(tmp_path / "trace.json")
    assert main([a.format(out=out_path) for a in argv]) == 0
    out = capsys.readouterr().out.replace(out_path, "<out>")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if name in TRACE_FILES:
        with open(out_path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == TRACE_FILES[name]
