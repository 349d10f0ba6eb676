"""Golden outputs: a fixed-seed run writes the same bytes across commits.

The ROADMAP's contract says incremental re-evaluation changes cost, never
results.  These digests pin the ``trace.json`` and ``trained.json`` of
test_portability's fixed-seed ``gen`` + ``train`` (forward differences,
two starts, a 0.2 holdout), and of the same train with central
differences, so a change to the probe or full-pass machinery that moves a
single bit fails here.  The ``bench`` digests pin the standard output of
one gradient on each one-object shaped base (flat, tree, chain), in both
modes where the ladder stays small.  A change that is meant to alter
results updates the digests and says why.
"""

import hashlib

import pytest

from cf_forge.cli import main
from test_portability import GEN, OUTPUTS, TRAIN

GOLDEN = {
    "forward": {
        "trace.json": "cd221d9fa79ed805f9d66c1b20e7ff6cd50e21cc31bd0f1e8ecf104fa6a26b9c",
        "trained.json": "4d33efd0c68b717260ec0c6224543f6854bb58deb0cecf8cc751139db74fe715",
    },
    "central": {
        "trace.json": "35180b45d9ac46372b3c7ea3dc325d91551360711f87a716cab1e533fa008c5a",
        "trained.json": "8fec2b7ac6b8ff53a0c52d3cb4c0198fa4a3c8db8f84f2d5d6ce06290b93528f",
    },
}


@pytest.mark.parametrize("scheme", sorted(GOLDEN))
def test_fixed_seed_train_writes_the_pinned_bytes(scheme, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(GEN) == 0
    assert main([*TRAIN, "--fd", scheme]) == 0
    got = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
           for name in OUTPUTS}
    assert got == GOLDEN[scheme]


BENCH_GOLDEN = {
    ("flat", "64,128", "both"): "cb8013735d44206d28cb93390e15dac04e8a23ce8efaef22536511b447568f13",
    ("tree", "63,127", "tms"): "be77ceebe22185318107e10f11a0c6fa2925cfbe8d59bb31da32ca25c0365301",
    ("chain", "16,32", "both"): "e25e74530aa18095e6378206c7b74e2d7cb1bdb9df10644371fa4b8e6ded5902",
}


@pytest.mark.parametrize("shape, ladder, mode", sorted(BENCH_GOLDEN))
def test_fixed_seed_bench_prints_the_pinned_bytes(shape, ladder, mode, capsys):
    argv = ["bench", "--seed", "1", "--shape", shape, "--ladder", ladder, "--mode", mode]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == BENCH_GOLDEN[(shape, ladder, mode)]
