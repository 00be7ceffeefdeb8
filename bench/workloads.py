"""Workload programs, the request mix each program goes through, and the
output check behind ``failed``.

Every request is a ``gqsm`` command line run in-process through
``gqsm.cli.main``.  A program passes through, in order:

    solve --semantics both --route both     (corpus only)
    solve --route operator
    solve --route reduct
    solve --semantics flp
    compare
    ground
    reduct --model M                         (once per stable model M)

The stable models M are read back from the operator answer lines, as a
user would.

Three workloads:

* ``closure``   ``q(X) :- not p(X).`` over {1..n}; the gated n = 4 gives
                8 atoms.
* ``aggregate`` ``programs/sum_threshold.gq`` with a ``q`` rule added: a
                non-monotone sum under negation; size 3 gives 6 atoms,
                size 5 gives 10.
* ``corpus``    the four ``programs/*.gq`` plus a seeded, cost-matched
                slice of a pinned pool of ``tests/randprog.py`` programs.

The workload seed renames the two predicates of ``closure`` and
``aggregate`` (their cost does not depend on the names) and picks the
corpus slice.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
import string
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

GATE_SEED = 1
HELDOUT_SEED = 2

SIZES = {"closure": (3, 4, 5, 6, 7), "aggregate": (3, 5), "corpus": (10, 60)}
DEFAULT_SIZE = {"closure": 4, "aggregate": 3, "corpus": 60}

POOL_SEED = 1301_1393
POOL_SIZE = 1000
CORPUS_MAX_BASE = 4
DOC_PROGRAMS = (
    "count_guard.gq",
    "default_closure.gq",
    "majority_vote.gq",
    "sum_threshold.gq",
)

AGGREGATE_UNIVERSE = {3: "-1, 1, 2", 5: "-2, -1, 1, 2, 3"}

# Request labels, in the order a program goes through them.
BOTH = "solve_both"
OPERATOR = "solve_operator"
REDUCT = "solve_reduct"
FLP = "solve_flp"
COMPARE = "compare"
GROUND = "ground"
INSPECT = "reduct"  # one request per stable model

INSPECT_ROUND = "inspect"  # ground, then reduct per stable model

# Request kinds in pass order; the operator answers feed the inspect kind.
KINDS = (BOTH, OPERATOR, REDUCT, FLP, COMPARE, INSPECT_ROUND)

# Which per-route counters a traced request feeds.
SCOPES = {
    BOTH: "both",
    OPERATOR: "solve",
    REDUCT: "solve",
    FLP: "solve",
    COMPARE: "compare",
    GROUND: "inspect",
    INSPECT: "inspect",
}

# Extra rounds per pass for closure's fast kinds, so that they get many
# repeats in a run; aggregate and corpus passes are short or hold many
# requests.  Part of the workload: fixed here, not derived from measured
# times.
ROUNDS = {
    "closure": {REDUCT: 2, INSPECT_ROUND: 20},
    "aggregate": {},
    "corpus": {},
}

_ARGV = {
    BOTH: ["solve", "{path}", "--semantics", "both", "--route", "both"],
    OPERATOR: ["solve", "{path}", "--route", "operator"],
    REDUCT: ["solve", "{path}", "--route", "reduct"],
    FLP: ["solve", "{path}", "--semantics", "flp"],
    COMPARE: ["compare", "{path}"],
    GROUND: ["ground", "{path}"],
    INSPECT: ["reduct", "{path}", "--model", "{model}"],
}

# Outputs that README.md documents for the example programs.
README_OUTPUTS = {
    ("sum_threshold.gq", OPERATOR): "Answer 1: p(-1) p(1)\nAnswer 2: p(-1) p(1) p(2)\n",
    ("sum_threshold.gq", BOTH): (
        "== sm route=reduct\n"
        "Answer 1: p(-1) p(1)\nAnswer 2: p(-1) p(1) p(2)\n"
        "== sm route=operator\n"
        "Answer 1: p(-1) p(1)\nAnswer 2: p(-1) p(1) p(2)\n"
        "== flp route=reduct\n"
        "skipped: the flp semantics has no reduct route\n"
        "== flp route=operator\n"
        "Answer 1: p(-1) p(1)\n"
        "== agreement\n"
        "all computed model sets agree: no\n"
    ),
    ("sum_threshold.gq", COMPARE): (
        "== sm route=operator\n"
        "Answer 1: p(-1) p(1)\nAnswer 2: p(-1) p(1) p(2)\n"
        "== flp route=operator\n"
        "Answer 1: p(-1) p(1)\n"
        "== agreement\n"
        "in class: no\n"
        "  rule 1: not sum{X : p(X)} < 2: quantifier 'sum_lt' is not monotone "
        "in every position, so it cannot be negated\n"
        "difference: 1 model(s)\n"
        "  p(-1) p(1) p(2)\n"
        "agreement violated: no\n"
    ),
    ("sum_threshold.gq", GROUND): (
        "not sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } < 2 -> p(2)\n"
        "sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } > -1 -> p(-1)\n"
        "p(-1) -> p(1)\n"
    ),
    ("sum_threshold.gq", INSPECT + ":p(-1), p(1)"): (
        "bot -> bot\n"
        "sum{ -1 : p(-1); 1 : p(1); 2 : bot } > -1 -> p(-1)\n"
        "p(-1) -> p(1)\n"
    ),
    # Stable models {} and {p(a)}; FLP models {} only.
    ("count_guard.gq", OPERATOR): "Answer 1:\nAnswer 2: p(a)\n",
    ("count_guard.gq", FLP): "Answer 1:\n",
    ("default_closure.gq", OPERATOR): "Answer 1: q(1) q(2) q(3)\n",
    ("default_closure.gq", FLP): "Answer 1: q(1) q(2) q(3)\n",
}


@dataclass
class Program:
    """One workload program and what its requests must print."""

    name: str
    text: str | None  # fed on stdin; None means read from ``path``
    path: str  # "-" for stdin
    intensional_only: bool
    with_both: bool
    # label -> (exit code, exact stdout) or label -> "rc:digest"
    expected: dict
    extra_checks: list = field(default_factory=list)


def digest(rc: int, out: str) -> str:
    return f"{rc}:" + hashlib.sha256(out.encode()).hexdigest()[:16]


def argv_for(label: str, path: str, model: str = "") -> list:
    return [a.format(path=path, model=model) for a in _ARGV[label]]


def answers(out: str) -> list:
    """Model strings from answer lines, e.g. ``['p(-1) p(1)', '']``."""
    return [
        line.split(":", 1)[1].strip()
        for line in out.splitlines()
        if line.startswith("Answer ")
    ]


def sections(out: str) -> dict:
    """Split ``== header`` sections of solve/compare output."""
    got: dict = {}
    current = None
    for line in out.splitlines():
        if line.startswith("== "):
            current = line[3:]
            got[current] = []
        elif current is not None:
            got[current].append(line)
    return got


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Program texts


def closure_text(n: int) -> str:
    elems = ", ".join(str(i) for i in range(1, n + 1))
    return f"#universe {{{elems}}}.\nq(X) :- not p(X).\n"


def aggregate_text(size: int) -> str:
    return (
        f"#universe {{{AGGREGATE_UNIVERSE[size]}}}.\n"
        "p(X) :- not sum{Y : p(Y)} < 2, X != -1.\n"
        "p(-1) :- sum{Y : p(Y)} > -1.\n"
        "p(1) :- p(-1).\n"
        "q(X) :- not p(X), count{Y : p(Y)} >= 2.\n"
    )


def predicate_names(seed: int) -> dict:
    """Seeded names for p and q.  They keep p's name sorting before q's,
    so every printed model keeps its atom order."""
    rng = random.Random(seed)
    tail = lambda: "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    return {"p": "p" + tail(), "q": "q" + tail()}


def rename(text: str, names: dict) -> str:
    return re.sub(r"\b([pq])\(", lambda m: names[m.group(1)] + "(", text)


def _randprog():
    tests_dir = str(ROOT / "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    import randprog

    return randprog


def pool_programs() -> list:
    """The pinned pool: alternating wild and in-class random programs."""
    randprog = _randprog()
    rng = random.Random(POOL_SEED)
    out = []
    for i in range(POOL_SIZE):
        gen = randprog.random_wild_program if i % 2 == 0 else randprog.random_in_class_program
        out.append(gen(rng))
    return out


def texts_sha256(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def base_size(text: str) -> int:
    """Ground atoms of a pool program: its unary predicates that occur
    times its universe size."""
    universe = re.search(r"#universe \{(.*?)\}", text).group(1).split(",")
    return len(universe) * len(set(re.findall(r"\b([pq])\(", text)))


def corpus_slice(seed: int, size: int, pool: list, costs: list) -> list:
    """Pool indexes of the seeded slice, in pool order.

    Only programs of at most ``CORPUS_MAX_BASE`` ground atoms qualify.
    They are ranked by their recorded cost (``costs[i]``, the fastest
    full request mix of program i when ``expected.json`` was recorded)
    and cut into ``size`` runs of neighbouring ranks; the seed picks one
    program from each run.  So every seed gets another slice with about
    the same cost, where a plain random slice of the pool varied by
    about 20% in cost between seeds."""
    ranked = sorted(
        (i for i, text in enumerate(pool) if base_size(text) <= CORPUS_MAX_BASE),
        key=lambda i: (costs[i], i),
    )
    rng = random.Random(seed)
    picks = []
    for g in range(size):
        lo, hi = g * len(ranked) // size, (g + 1) * len(ranked) // size
        picks.append(ranked[rng.randrange(lo, hi)])
    return sorted(picks)


# ---------------------------------------------------------------------------
# Building workloads


def _canonical_expected(expected: dict, key: str, names: dict) -> dict:
    return {
        rename(label, names): (rc, rename(text, names))
        for label, (rc, text) in expected["programs"][key].items()
    }


def build(workload: str, seed: int, size: int | None = None, expected=None) -> list:
    """The workload's programs, each with its expected outputs."""
    if size is None:
        size = DEFAULT_SIZE[workload]
    if size not in SIZES[workload]:
        raise ValueError(f"{workload} supports sizes {SIZES[workload]}, not {size}")
    if expected is None:
        expected = load_expected()
    if workload == "closure":
        names = predicate_names(seed)
        want = {label: (0, rename(f"Answer 1: {' '.join(f'q({i})' for i in range(1, size + 1))}\n", names))
                for label in (OPERATOR, REDUCT, FLP)}
        return [
            Program(
                f"closure-{size}",
                rename(closure_text(size), names),
                "-",
                True,
                False,
                _canonical_expected(expected, f"closure-{size}", names),
                [("closure", want)],
            )
        ]
    if workload == "aggregate":
        names = predicate_names(seed)
        return [
            Program(
                f"aggregate-{size}",
                rename(aggregate_text(size), names),
                "-",
                True,
                False,
                _canonical_expected(expected, f"aggregate-{size}", names),
                [("aggregate", None)],
            )
        ]
    if workload == "corpus":
        pool = pool_programs()
        pinned = expected["pool"]["sha256"]
        if texts_sha256(pool) != pinned:
            raise RuntimeError(
                "the generated corpus pool no longer matches its pinned hash "
                f"{pinned}; tests/randprog.py changed what it generates"
            )
        picks = corpus_slice(seed, size, pool, expected["pool_cost_ms"])
        pinned_slice = expected["slices"].get(f"{seed}/{size}")
        if pinned_slice is not None and texts_sha256(pool[i] for i in picks) != pinned_slice:
            raise RuntimeError(f"corpus slice for seed {seed} changed")
        programs = []
        for name in DOC_PROGRAMS:
            key = f"programs/{name}"
            exp = {label: tuple(v) for label, v in expected["programs"][key].items()}
            readme = {label: (0, text) for (prog, label), text in README_OUTPUTS.items() if prog == name}
            programs.append(
                Program(key, None, str(ROOT / "programs" / name), name != "majority_vote.gq",
                        True, exp, [("readme", readme)])
            )
        for i in picks:
            programs.append(
                Program(f"pool-{i}", pool[i], "-", True, True, expected["pool_digests"][i])
            )
        return programs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# The output check


def _matches(expected, rc: int, out: str) -> bool:
    if isinstance(expected, str):
        return expected == digest(rc, out)
    return tuple(expected) == (rc, out)


def check(program: Program, results: dict) -> set:
    """Labels of the requests whose output is wrong.

    ``results`` maps request labels to (exit code, stdout).  Besides the
    recorded outputs, it checks the relations that justify them: the
    reduct and operator routes agree on all-intensional programs, the
    comparison repeats the single-route answers, an in-class program has
    no difference, and workload-specific answers hold.
    """
    bad = set()
    for label, (rc, out) in results.items():
        want = program.expected.get(label)
        if want is None or not _matches(want, rc, out):
            bad.add(label)
    missing = set(program.expected) - set(results)
    bad |= missing

    op_out = results.get(OPERATOR, (None, ""))[1]
    red_rc, red_out = results.get(REDUCT, (None, ""))
    flp_out = results.get(FLP, (None, ""))[1]
    if program.intensional_only and (red_rc != 0 or answers(red_out) != answers(op_out)):
        bad.add(REDUCT)
    cmp_rc, cmp_out = results.get(COMPARE, (None, ""))
    cmp = sections(cmp_out)
    agreement = cmp.get("agreement", [])
    if (
        cmp_rc != 0
        or answers("\n".join(cmp.get("sm route=operator", []))) != answers(op_out)
        or answers("\n".join(cmp.get("flp route=operator", []))) != answers(flp_out)
        or ("in class: yes" in agreement and "difference: none" not in agreement)
        or "agreement violated: no" not in agreement
    ):
        bad.add(COMPARE)
    if program.with_both:
        both = sections(results.get(BOTH, (None, ""))[1])
        if (
            answers("\n".join(both.get("sm route=operator", []))) != answers(op_out)
            or answers("\n".join(both.get("flp route=operator", []))) != answers(flp_out)
            or (red_rc == 0 and answers("\n".join(both.get("sm route=reduct", []))) != answers(red_out))
        ):
            bad.add(BOTH)

    for kind, want in program.extra_checks:
        if kind in ("closure", "readme"):
            for label, pair in want.items():
                if results.get(label) != pair:
                    bad.add(label)
        if kind == "closure" and "in class: yes" not in agreement:
            bad.add(COMPARE)
        if kind == "aggregate":
            sm, flp = set(answers(op_out)), set(answers(flp_out))
            if not (len(sm) == 2 and len(flp) == 1 and flp < sm):
                bad.add(OPERATOR)
            if "in class: no" not in agreement or "difference: 1 model(s)" not in agreement:
                bad.add(COMPARE)
    return bad


def model_argument(model: str) -> str:
    """An answer line's atoms as a ``--model`` argument."""
    return ", ".join(model.split())
