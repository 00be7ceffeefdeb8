"""The printers against recordings of an earlier implementation.

``render_recordings.json`` holds what the printers produced before the
formula and ground printers were merged into one: for the example
programs and the seeded ``randprog`` pool of
``test_parser_recordings.py``, a digest per program of every string the
commands print from it.  The merged printer must reproduce all of it.

A program's strings are ``str(program)``, each rule's head and body,
the literals of its class report, and for each ground rule its
``render_ground_rule`` text and that of its reduct, raw and simplified,
at three cuts of the sorted base: none of it, its first half and all of
it.  A step that raises records the error text instead.

    PYTHONPATH=src python tests/test_render_recordings.py

rewrites the file from the printers on the path; only do that when a
change to the printed text is intended.
"""
import json
from pathlib import Path

import pytest

from gqsm import Registry
from gqsm.ground import ground_program, herbrand_base
from gqsm.parser import parse_program
from gqsm.reduct import reduct
from gqsm.render import render_ground_rule, simplify_rule_sides
from gqsm.solver import monotone_class_report
from gqsm.syntax import GqError

from test_parser_recordings import EXAMPLES, digest, dump, pool

HERE = Path(__file__).resolve().parent
RECORDINGS = HERE / "render_recordings.json"


def printed(text: str, registry) -> list:
    """Every string printed from the program ``text``, in a fixed order."""
    prog = parse_program(text, registry)
    out = [str(prog)]
    for rule in prog.rules:
        out += [str(rule.head), str(rule.body)]
    out.append([v.literal for v in monotone_class_report(prog, registry).violations])
    try:
        rules = ground_program(prog, registry)
    except GqError as e:
        return out + [f"ground: {e}"]
    base = herbrand_base(prog)
    for g in rules:
        out.append(render_ground_rule(g))
        for cut in (0, len(base) // 2, len(base)):
            try:
                r = reduct(g, base[:cut], prog.universe, registry).formula
            except GqError as e:
                out.append(f"reduct: {e}")
                continue
            out += [render_ground_rule(r), render_ground_rule(simplify_rule_sides(r))]
    return out


def record() -> dict:
    registry = Registry()
    texts = pool()
    return {
        "pool": {
            "texts": digest(texts),
            "programs": [digest(printed(t, registry)) for t in texts],
        },
        "examples": {p.name: digest(printed(p.read_text(), registry)) for p in EXAMPLES},
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDINGS.read_text())


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_programs_print_as_recorded(path, recorded, registry):
    assert digest(printed(path.read_text(), registry)) == recorded["examples"][path.name]


def test_pool_programs_print_as_recorded(recorded, registry):
    texts = pool()
    assert digest(texts) == recorded["pool"]["texts"], "tests/randprog.py changed its output"
    want = recorded["pool"]["programs"]
    wrong = [i for i, t in enumerate(texts) if digest(printed(t, registry)) != want[i]]
    assert not wrong, f"pool programs print differently: {wrong[:10]}"


if __name__ == "__main__":
    RECORDINGS.write_text(dump(record()) + "\n")
