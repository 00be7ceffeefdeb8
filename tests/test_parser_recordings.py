"""The parser against recordings of an earlier implementation.

``parser_recordings.json`` holds what the parser produced before its
scanner and descent were rewritten: for the example programs and a
seeded pool of ``randprog`` programs, each parsed ``Program`` and its
tokens, and for every token-boundary prefix of those files the
``ParseError`` text; for the example programs also the outcome with
each single token left out.  The rewrite must reproduce all of it.

A program is recorded as the digest of ``repr(program.rules)``, its
universe and intensional set sorted, and ``list(signature.items())``,
whose order is part of the record; a frozenset's ``repr`` depends on
the hash seed, so it is not recorded as printed.  Long lists are
recorded as digests so the file stays small.

    PYTHONPATH=src python tests/test_parser_recordings.py

rewrites the file from the parser on the path; only do that when a
change to the parser's output is intended.
"""
import hashlib
import json
import random
import re
from pathlib import Path

import pytest

import randprog
from gqsm import Registry
from gqsm.parser import ParseError, parse_program, tokenize
from gqsm.syntax import element_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDINGS = HERE / "parser_recordings.json"
EXAMPLES = sorted((ROOT / "programs").glob("*.gq"))
# the benchmark's pinned pool (bench/workloads.py: POOL_SEED, POOL_SIZE)
POOL_SEED = 1301_1393
POOL_SIZE = 1000
# pool programs whose prefixes are recorded too
POOL_PREFIXES = 50

# every place one token may end and the next begin: around runs of
# whitespace, comments and each token
_BOUNDARY_RE = re.compile(
    r"\s+|%[^\n]*|:-|->|<=|>=|!=|-?[0-9]+|[A-Za-z][A-Za-z0-9_]*|[^\s]"
)


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:20]


def pool() -> list:
    rng = random.Random(POOL_SEED)
    return [
        (randprog.random_wild_program if i % 2 == 0 else randprog.random_in_class_program)(rng)
        for i in range(POOL_SIZE)
    ]


def program_record(prog) -> list:
    return [
        digest(repr(prog.rules)),
        sorted(prog.universe, key=element_key),
        sorted(prog.intensional),
        [list(item) for item in prog.signature.items()],
    ]


def token_record(text: str) -> list:
    return [[t.kind, t.value, t.line, t.col] for t in tokenize(text)]


def boundaries(text: str) -> list:
    cuts = {0, len(text)}
    for m in _BOUNDARY_RE.finditer(text):
        cuts.update(m.span())
    return sorted(cuts)


def outcome(text: str, registry, origin: str):
    """The recorded result of parsing ``text``: a program record, or the
    error text."""
    try:
        return program_record(parse_program(text, registry, origin))
    except ParseError as e:
        return str(e)


def prefix_outcomes(text: str, registry, origin: str) -> list:
    return [[k, outcome(text[:k], registry, origin)] for k in boundaries(text)]


def drop_outcomes(text: str, registry, origin: str) -> list:
    """The text with one token left out, for each token."""
    spans = [m.span() for m in _BOUNDARY_RE.finditer(text) if not m.group().isspace()]
    return [[i, outcome(text[:i] + text[j:], registry, origin)] for i, j in spans]


def record() -> dict:
    registry = Registry()
    texts = pool()
    examples = {}
    for path in EXAMPLES:
        text = path.read_text()
        origin = f"programs/{path.name}"
        examples[path.name] = {
            "program": outcome(text, registry, origin),
            "tokens": token_record(text),
            "prefixes": prefix_outcomes(text, registry, origin),
            "drops": drop_outcomes(text, registry, origin),
        }
    return {
        "pool": {
            "texts": digest(texts),
            "programs": [outcome(t, registry, "<string>") for t in texts],
            "tokens": [digest(token_record(t)) for t in texts],
            "prefixes": [
                digest(prefix_outcomes(t, registry, "<string>"))
                for t in texts[:POOL_PREFIXES]
            ],
        },
        "examples": examples,
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDINGS.read_text())


@pytest.fixture(scope="module")
def texts(recorded):
    texts = pool()
    assert digest(texts) == recorded["pool"]["texts"], "tests/randprog.py changed its output"
    return texts


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_programs_tokens_and_prefixes_match_the_recording(path, recorded, registry):
    want = recorded["examples"][path.name]
    text = path.read_text()
    origin = f"programs/{path.name}"
    assert outcome(text, registry, origin) == want["program"]
    assert token_record(text) == want["tokens"]
    assert prefix_outcomes(text, registry, origin) == want["prefixes"]
    assert drop_outcomes(text, registry, origin) == want["drops"]


def test_pool_programs_match_the_recording(texts, recorded, registry):
    want = recorded["pool"]["programs"]
    got = [outcome(t, registry, "<string>") for t in texts]
    wrong = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not wrong, f"pool programs parse differently: {wrong[:10]}"


def test_pool_tokens_match_the_recording(texts, recorded):
    want = recorded["pool"]["tokens"]
    wrong = [i for i, t in enumerate(texts) if digest(token_record(t)) != want[i]]
    assert not wrong, f"pool programs tokenize differently: {wrong[:10]}"


def test_pool_prefixes_match_the_recording(texts, recorded, registry):
    want = recorded["pool"]["prefixes"]
    wrong = [
        i
        for i, t in enumerate(texts[:POOL_PREFIXES])
        if digest(prefix_outcomes(t, registry, "<string>")) != want[i]
    ]
    assert not wrong, f"pool program prefixes parse differently: {wrong[:10]}"


def dump(value, indent: str = "") -> str:
    """JSON with one list entry to a line."""
    inner = indent + " "
    if isinstance(value, dict):
        rows = [f"{inner}{json.dumps(k)}: {dump(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{indent}}}"
    if isinstance(value, list) and value:
        return "[\n" + ",\n".join(inner + json.dumps(v) for v in value) + f"\n{indent}]"
    return json.dumps(value)


if __name__ == "__main__":
    RECORDINGS.write_text(dump(record()) + "\n")
