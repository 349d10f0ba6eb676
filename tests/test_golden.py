"""Golden outputs: a fixed-seed run writes the same bytes across commits.

The ROADMAP's contract says incremental re-evaluation changes cost, never
results.  These digests pin the ``trace.json`` and ``trained.json`` of
test_portability's fixed-seed ``gen`` + ``train`` (forward differences,
two starts, a 0.2 holdout), and of the same train with central
differences, so a change to the probe or full-pass machinery that moves a
single bit fails here.  The ``bench`` digests pin the standard output of
one gradient on each one-object shaped base (flat, tree, chain), in both
modes where the ladder stays small.  The variant digests pin the same
train with naive probes, with a firing threshold, with one iteration (no
state keeps a walk), a train on a tree-shaped base, whose firing plan
orders its propositions otherwise than by topological position alone,
and a train of six iterations on a base with compound antecedents and a
hidden proposition (see ``compound_rules``), the one variant whose passes
evaluate antecedent expressions and read a step that input-layer and
other rules both conclude;
the ``eval`` digest pins the standard output of ``--per-object``.  A
change that is meant to alter results updates the digests and says why.
"""

import hashlib
import json

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


TREE_GEN = ["gen", "--shape", "tree", "--rules", "63", "--seed", "42", "--out", "tree"]
TREE_TRAIN = ["train", "--rules", "tree/rules.json", "--data", "tree/train.jsonl", "--out", "run",
              "--seed", "42", "--max-iters", "5"]
VARIANTS = {  # a later --max-iters overrides TRAIN's
    "no-tms": (GEN, [*TRAIN, "--no-tms", "--max-iters", "8"]),
    "tau": (GEN, [*TRAIN, "--tau", "0.3", "--max-iters", "10"]),
    "one-iteration": (GEN, [*TRAIN, "--max-iters", "1"]),
    "tree": (TREE_GEN, TREE_TRAIN),
    "compound": (GEN, [*TRAIN, "--max-iters", "6"]),
}
VARIANT_GOLDEN = {
    "compound": {
        "trace.json": "3a559409546d1236b3e1ba9a02501be7681e1c1b566da90078019f5d9dcfde04",
        "trained.json": "1c5549f4e072f710c0cc7deeb8112c0bfc004d22cbcb304490768158d479a4ef",
    },
    "no-tms": {
        "trace.json": "22b3268be11b4a98bc0856ce2f8ba0807eff0ec4a283b5dbdadfc1f3f8e06ce9",
        "trained.json": "f05b90493a6e47c20ea3aa20270dd15549be15783603520f5afd32a152a135d4",
    },
    "one-iteration": {
        "trace.json": "16836cf5d62c912f13dd05d1c9039556a5cc13367457f5214d6968d54348e9fc",
        "trained.json": "14bb97bd6dafab6114efea94934ae69f01bc382b12a60bdcc9ccb9fb6fba4eb1",
    },
    "tau": {
        "trace.json": "7634055c8f5f10baf0c82406a5728289ac67023d4fb96ea3c055004e44c146dc",
        "trained.json": "372f545acc06a510fb4d3c57c33c6ae9015f6e499a8d119fcc724f1b367a30d5",
    },
    "tree": {
        "trace.json": "5e9d3daa4239335ec12a534f6b8852e474c73077f7256499a82c579484df847a",
        "trained.json": "f28945830c56e157f495caf6473524ecf15f3627ca486677c185a82f587cd442",
    },
}


def compound_rules(path):
    """Rewrite GEN's flat base in place: c1's rules read an and, an or or an
    and-not of two features; a hidden h, concluded by two such rules, is
    read by two more rules into c0, so c0's step mixes input-layer rules
    with rules that read a derived proposition."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["propositions"].append({"id": "h", "kind": "derived", "output_class": False})
    ops = [lambda a, b: {"and": [a, b]}, lambda a, b: {"or": [a, b]},
           lambda a, b: {"and": [a, {"not": b}]}]
    c1 = [r for r in doc["rules"] if r["then"] == "c1"]
    for i, rule in enumerate(c1):
        rule["if"] = ops[i % 3](rule["if"], c1[(i + 1) % len(c1)]["if"])
    extra = [("r_h_0", {"and": ["f000", "f003"]}, "h", 0.4),
             ("r_h_1", {"or": ["f004", {"not": "f005"}]}, "h", -0.3),
             ("r_h_c0", "h", "c0", 0.3),
             ("r_hf_c0", {"and": ["h", "f009"]}, "c0", -0.2)]
    for rid, expr, then, weight in extra:
        doc["rules"].append({"id": rid, "if": expr, "then": then, "weight": weight,
                             "bounds": [-1.0, 1.0], "bound_kind": "hard", "trainable": True})
    path.write_text(json.dumps(doc), encoding="utf-8")


REWRITES = {"compound": compound_rules}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_fixed_seed_train_variants_write_the_pinned_bytes(variant, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gen, train = VARIANTS[variant]
    assert main(gen) == 0
    if variant in REWRITES:
        REWRITES[variant](tmp_path / "gen" / "rules.json")
    assert main(train) == 0
    got = {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
           for name in OUTPUTS}
    assert got == VARIANT_GOLDEN[variant]


EVAL_GOLDEN = "bf8d0bbdf996569367462ead9d874d38b76990cc83488de1b159b594eb2887c4"


def test_fixed_seed_eval_per_object_prints_the_pinned_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(GEN) == 0
    capsys.readouterr()
    assert main(["eval", "--rules", "gen/rules.json", "--data", "gen/train.jsonl", "--per-object"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == EVAL_GOLDEN
