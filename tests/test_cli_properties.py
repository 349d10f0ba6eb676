"""CLI robustness over generated argv and malformed input files: every run
of ``train``, ``eval`` or ``audit`` ends with exit 0, 1, 2 or 3, never with
a traceback, and an exit 2 says what was wrong on every error line."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from cf_forge import OptimizerConfig, SynthSpec, generate, serialize, train
from cf_forge.model import object_to_dict
from cf_forge.cli import main

EXIT_CODES = (0, 1, 2, 3)


def run_cli(argv):
    """Exit code and stderr of one in-process run; an exception that
    escapes main is left to fail the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse usage errors and --help
            rc = e.code
    return rc, err.getvalue()


def valid_texts():
    """Text of a valid rule base, dataset and trace for a 4-rule problem."""
    rb, _, objects, _ = generate(SynthSpec(features=2, classes=2, objects=4, seed=1))
    _, trace = train(rb, objects, OptimizerConfig(max_iters=2))
    return {
        "rules.json": serialize(rb),
        "data.jsonl": "".join(json.dumps(object_to_dict(o)) + "\n" for o in objects),
        "trace.json": json.dumps(trace.to_dict(), indent=2),
    }


VALID = valid_texts()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**20), 10**20)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def json_paths(doc, prefix=()):
    """Every (container path, key) inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield prefix, k
        yield from json_paths(v, prefix + (k,))


@st.composite
def malformed(draw, text, lines):
    """A corrupted version of a valid JSON document, or of a JSON Lines
    text when ``lines``, as str; or arbitrary bytes."""
    kind = draw(st.sampled_from(["truncate", "splice", "replace", "delete", "garbage", "bytes"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    if kind == "splice":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.text(max_size=8)) + text[at:]
    if kind == "garbage":
        return draw(st.text(max_size=40))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    lines = text.splitlines() if lines else [text]
    i = draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[i])
    paths = list(json_paths(doc))
    if not paths:
        return text
    path, key = draw(st.sampled_from(paths))
    target = doc
    for k in path:
        target = target[k]
    if kind == "delete":
        del target[key]
    else:
        target[key] = draw(json_values)
    lines[i] = json.dumps(doc)
    return "\n".join(lines) + "\n"


NUMBERS = ["0", "1", "2", "-1", "0.5", "1e-9", "1e400", "nan", "inf", "-inf", "abc", "", "10" * 20]
FLAGS = {
    "train": {
        "--seed": NUMBERS,
        "--fd": ["forward", "central", "backward"],
        "--fd-eps": NUMBERS,
        "--step-init": NUMBERS,
        "--max-iters": ["1", "2", "5", "0", "-1", "x", "1.5"],
        "--no-tms": None,
        "--train-only": ["r_f000_c0", "r_f000_c0,r_f001_c1", "nope", "", ","],
        "--holdout": NUMBERS,
        "--multi-start": ["1", "2", "0", "-2", "x"],
        "--mu": NUMBERS,
        "--tau": NUMBERS,
    },
    "eval": {"--mu": NUMBERS, "--tau": NUMBERS, "--per-object": None},
    "audit": {},
}
FILE_FLAGS = {
    "train": [("--rules", "rules.json"), ("--data", "data.jsonl")],
    "eval": [("--rules", "rules.json"), ("--data", "data.jsonl")],
    "audit": [("--trace", "trace.json")],
}


@st.composite
def invocations(draw):
    """(argv, files): argv over relative paths, and the input files it may
    read, at most one of them corrupted."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    files = dict(VALID)
    bad = draw(st.sampled_from([None, *sorted(files)]))
    if bad is not None:
        files[bad] = draw(malformed(files[bad], bad.endswith(".jsonl")))
    argv = [command]
    for flag, right in FILE_FLAGS[command]:
        path = draw(st.sampled_from([right] * 6 + [*sorted(files), "missing.json", ".", None]))
        if path is not None:
            argv += [flag, path]
    if command != "audit" or draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(["out", "out/deeper", "rules.json", "."]))]
    options = FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True)) if options else []:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(st.sampled_from(options[flag])))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.text(max_size=6)))
    return argv, files


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocation=invocations())
@example(invocation=(
    ["train", "--rules", "rules.json", "--data", "data.jsonl", "--out", "out", "--train-only", ","],
    VALID,
))
def test_cli_exits_with_a_documented_code(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        for name, content in files.items():
            path = Path(name)
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        rc, err = run_cli(argv)
    assert rc in EXIT_CODES, (argv, rc, err)
    assert "Traceback" not in err
    if rc == 2:
        for line in err.splitlines():
            if "error:" in line:
                assert line.partition("error:")[2].strip(), (argv, err)
