"""Contracts that the reference semantics cannot see.

The harness holds every route and reader to what the definitions
answer.  These tests hold the package to how it gets there: the reduct
route reads each rule once per projection of the candidate, the
grounding behind an operator or FLP solve resolves each quantifier name,
connectives included, once, no compiled form outlives its solve, the
atom cap counts the head-bounded base, and every entry point raises a
program's first static failure before it reads anything.  The values
the package builds behave as the frozen dataclasses they once were,
with only ``QuantifierDef`` still one.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from collections import Counter

import pytest

import reference_semantics as ref
from conftest import SUM_THRESHOLD
from reference_semantics import outcome
import gqsm
import gqsm.cli
from gqsm import (
    TOP, Apply, Atom, Bot, Constant, Equality, GqError, Mono, Program, QuantifierDef, Registry,
    Rule, Top, Variable, atom, conj,
)
from gqsm import solver
from gqsm.ground import (
    G_BOT, G_TOP, GApply, GBot, GroundAtom, GTop, Interpretation, PairSet, _compile_program,
    _read_set, eval_flp_transform, eval_star, flp_reduct, ground_program, herbrand_base,
    satisfies_direct, satisfies_program,
)
from gqsm.parser import Token, parse_program
from gqsm.quantifiers import UnknownQuantifierError
from gqsm.reduct import EnumerationCapError, ReductResult, reduct
from gqsm.solver import (
    ClassReport, ClassViolation, ComparisonReport, SolveResult, SolveStats,
    compare_semantics, flp_stable_models, program_to_sentence, stable_models_operator,
    stable_models_reduct,
)
from gqsm.syntax import Record

ROUTES = (stable_models_operator, stable_models_reduct, flp_stable_models)


def count_ge(x, arg, bound):
    """``count{x : arg} >= bound`` in the application form."""
    return Apply("count_ge", ((x,), ("W",)), (arg, Equality(Variable("W"), bound)))


# ---------------------------------------------------------------------------
# What the reduct route's memo reads


def test_a_read_set_holds_the_atoms_inside_quantifier_arguments():
    reg = Registry()
    prog = parse_program(
        "#universe {-1, 1, 2}.\np(2) :- not sum{X : p(X)} < 2, q.\nq.\n", reg
    )
    rule, fact = ground_program(prog, reg)
    want = {GroundAtom("p", (v,)) for v in (-1, 1, 2)} | {GroundAtom("q")}
    assert _read_set(rule) == want
    assert _read_set(fact) == {GroundAtom("q")}


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_each_rule_and_each_reduced_rule_is_read_once_per_projection(n):
    reg = Registry()
    prog = parse_program(ref.choice_text(n), reg)
    reads, reducts = Counter(), Counter()
    keep = []  # keeps every read formula alive, so ids stay unique
    real_gsat, real_reduct = solver._gsat, solver.reduct

    def gsat(g, atoms, universe, registry):
        keep.append(g)
        reads[id(g), atoms] += 1
        return real_gsat(g, atoms, universe, registry)

    def counted_reduct(g, atoms, universe, registry):
        keep.append(g)
        reducts[id(g), frozenset(atoms)] += 1
        return real_reduct(g, atoms, universe, registry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_gsat", gsat)
        mp.setattr(solver, "reduct", counted_reduct)
        result = stable_models_reduct(prog, reg)
    assert len(result.models) == 2**n
    assert set(reads.values()) == {1} and set(reducts.values()) == {1}
    rules = {gid for gid, _ in reducts}
    rule_reads = [atoms for gid, atoms in reads if gid in rules]
    reduced_reads = [atoms for gid, atoms in reads if gid not in rules]
    # 2n ground rules, each mentioning p(x) and q(x): 4 projections each
    assert len(rule_reads) <= 4 * 2 * n and len(reducts) <= 4 * 2 * n
    # a reduced rule mentions at most its head, so J is read through it
    assert reduced_reads and all(len(atoms) <= 1 for atoms in reduced_reads)


@pytest.mark.parametrize("path", ref.PROGRAMS, ids=lambda p: p.name)
def test_a_reduct_is_never_the_ground_rule_it_reduces(path):
    # a reader that tells a witness test from a model check by the
    # identity of the ground rules needs every reduct to be a new formula
    reg = Registry()
    prog = parse_program(path.read_text(), reg)
    rules = ground_program(prog, reg)
    for I in ref.subsets(herbrand_base(prog)):
        for g in rules:
            assert reduct(g, I, prog.universe, reg).formula is not g


# ---------------------------------------------------------------------------
# Quantifiers are resolved when a solve grounds its program, once per name
# and connectives included, not per candidate


class CountingRegistry(Registry):
    """Counts the lookups of each name, and the calls of every truth
    function it hands out."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()
        self.truth_calls = 0

    def resolve(self, name):
        self.calls[name] += 1
        qdef = super().resolve(name)

        def truth(universe, rels):
            self.truth_calls += 1
            return qdef.truth(universe, rels)

        return dataclasses.replace(qdef, truth=truth)


def _guarded_choice(n):
    # atmost(3) and atmost(4) are one node each, true at n <= 3; the
    # candidates grow as 4**n
    universe = ", ".join(str(v) for v in range(1, n + 1))
    return (
        f"#universe {{{universe}}}.\n"
        "p(X) :- not q(X), atmost(3){Y : p(Y)}.\n"
        "q(X) :- not p(X), atmost(4){Y : q(Y)}.\n"
    )


@pytest.mark.parametrize(
    "route", [stable_models_operator, flp_stable_models], ids=["operator", "flp"]
)
def test_one_solve_resolves_each_quantifier_a_bounded_number_of_times(route):
    seen = []
    for n in (1, 2, 3):
        reg = CountingRegistry()
        prog = parse_program(_guarded_choice(n), reg)
        reg.calls.clear()
        result = route(prog, reg)
        assert result.stats.candidates == 4**n and len(result.models) == 2**n
        seen.append(dict(reg.calls))
    # the same for 4, 16 and 64 candidates: once per name per compile,
    # connectives included
    assert seen == [{"and": 1, "impl": 1, "atmost(3)": 1, "atmost(4)": 1}] * 3


def test_compare_resolves_once_per_compare():
    reg = CountingRegistry()
    prog = parse_program(_guarded_choice(3), reg)
    reg.calls.clear()
    report = compare_semantics(prog, reg)
    assert len(report.sm.models) == len(report.flp.models) == 8
    # one compile serves both scans
    assert reg.calls == {"and": 1, "impl": 1, "atmost(3)": 1, "atmost(4)": 1}


@pytest.mark.parametrize("source", [ref.choice_text(3), _guarded_choice(2)])
def test_the_operator_route_reads_only_the_instances_that_fired(source, monkeypatch):
    # each witness is a J below the model, whose instances the compiled
    # program keeps: the FLP reduct, by rule and env, of the instances of
    # the block searched (the choice family has one block per element,
    # the guarded one a single block)
    reg = Registry()
    prog = parse_program(source, reg)
    read = []

    def spy(compiled, interp, smaller, intensional, registry):
        atoms, reduct_, _ = compiled.model
        assert atoms is interp.atoms
        assert frozenset(smaller) <= interp.atoms
        got = [(rule, env) for rule, env, _, _ in reduct_]
        block = [(rule, env) for rule, env, _, _ in compiled.instances]
        assert got == [inst for inst in flp_reduct(prog, interp, registry) if inst in block]
        read.append(len(got) < len(compiled.instances))
        return eval_star(compiled, interp, smaller, intensional, registry)

    monkeypatch.setattr(solver, "eval_star", spy)
    assert stable_models_operator(prog, reg).models == flp_stable_models(prog, reg).models
    assert read and all(read)


# 6 atoms, every one headed: 64 candidates.  Each element's p and q are
# one block with two local models, so the blocks are searched under 1, 2
# and 4 local models below them: 4 + 8 + 16 = 28 local model checks
CHOICE3 = ref.choice_text(3)
ONE_CHECK = {"_compile_program": 1, "satisfies_program": 28}
MODEL_CHECKS = {
    # both semantics read each local model's one FLP model check, and its
    # fired instances, in one scan
    "compare": (ONE_CHECK, lambda prog, reg, path: compare_semantics(prog, reg)),
    "solve --semantics both --route operator": (
        ONE_CHECK,
        lambda prog, reg, path: gqsm.cli.main(
            ["solve", path, "--semantics", "both", "--route", "operator"]
        ),
    ),
    # a single route keeps its own: the sentence's reading on the operator
    # route, the FLP model check on FLP's
    "operator": (
        {"_compile_program": 1, "_eval": 28},
        lambda prog, reg, path: stable_models_operator(prog, reg),
    ),
    "flp": (ONE_CHECK, lambda prog, reg, path: flp_stable_models(prog, reg)),
}


@pytest.mark.parametrize("entry", MODEL_CHECKS)
def test_one_compile_and_one_model_check_per_candidate(entry, monkeypatch, tmp_path, capsys):
    want, call = MODEL_CHECKS[entry]
    path = tmp_path / "choice.gq"
    path.write_text(CHOICE3)
    reg = Registry()
    prog = parse_program(CHOICE3, reg)
    calls = Counter()
    for name in ("_compile_program", "satisfies_program", "_eval"):

        def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    call(prog, reg, str(path))
    assert dict(calls) == want


@pytest.mark.parametrize(
    "route", [stable_models_operator, flp_stable_models], ids=["operator", "flp"]
)
def test_sum_and_count_over_an_atom_call_no_truth_function(route):
    # they read per-atom measures against a bound fixed when the solve
    # compiles, so only the resolving is counted
    reg = CountingRegistry()
    prog = parse_program(
        "#universe {-1, 1, 2}.\n"
        "p(X) :- not sum{Y : p(Y)} < 2, X != -1.\n"
        "p(-1) :- sum{Y : p(Y)} > -1.\n"
        "p(1) :- p(-1).\n"
        "q(X) :- not p(X), count{Y : p(Y)} >= 2.\n",
        reg,
    )
    reg.calls.clear()
    result = route(prog, reg)
    assert len(result.models) == (2 if route is stable_models_operator else 1)
    assert reg.calls == {"and": 1, "impl": 1, "sum_lt": 1, "sum_gt": 1, "count_ge": 1}
    assert reg.truth_calls == 0


def test_the_flp_transform_of_a_given_reduct_compiles_once():
    # a program is compiled once per call; a compiled program found a
    # model is read off its one compile, with no resolve or truth call
    reg = CountingRegistry()
    prog = parse_program(SUM_THRESHOLD, reg)
    interp = Interpretation(prog.universe, {GroundAtom("p", (-1,)), GroundAtom("p", (1,))})
    reg.calls.clear()
    assert eval_flp_transform(prog, interp, (), reg) is False
    assert reg.calls == {"impl": 1, "sum_lt": 1, "sum_gt": 1}
    compiled = _compile_program(prog, interp, reg)
    assert satisfies_program(interp, compiled, reg)
    assert len(compiled.model[1]) == len(flp_reduct(prog, interp, reg)) == 2
    reg.calls.clear()
    truth_calls = reg.truth_calls
    assert eval_flp_transform(compiled, interp, (), reg) is False
    assert reg.calls == {}
    assert reg.truth_calls == truth_calls


def test_no_reader_takes_the_reduct_as_an_argument():
    # a compiled program keeps its model's reduct, so no reader takes one
    reg = Registry()
    prog = parse_program(SUM_THRESHOLD, reg)
    interp = Interpretation(prog.universe, {GroundAtom("p", (-1,)), GroundAtom("p", (1,))})
    compiled = _compile_program(prog, interp, reg)
    for reader in (eval_star, eval_flp_transform, satisfies_program):
        assert "fired" not in inspect.signature(reader).parameters
    with pytest.raises(TypeError, match="fired"):
        eval_star(compiled, interp, (), prog.intensional, reg, fired=[])
    with pytest.raises(TypeError, match="fired"):
        eval_flp_transform(compiled, interp, (), reg, fired=())


def _frob_program():
    # r :- frob{X : p(X)}. and p(1) :- r.  frob holds of a nonempty set
    body = Apply("frob", (("X",),), (atom("p", "X"),))
    rules = (Rule(atom("r"), body), Rule(atom("p", 1), atom("r")))
    return Program(rules, frozenset({1, 2}))


@pytest.mark.parametrize(
    "route",
    [stable_models_operator, flp_stable_models, compare_semantics],
    ids=["operator", "flp", "compare"],
)
def test_no_compiled_form_outlives_its_solve(route):
    reg = Registry()
    prog = _frob_program()
    with pytest.raises(UnknownQuantifierError, match="unknown quantifier 'frob'"):
        route(prog, reg)
    reg.register(QuantifierDef("frob", (1,), lambda u, rels: bool(rels[0]), (Mono.MONOTONE,)))
    result = route(prog, reg)
    # r and p(1) only support each other, so the empty set is the one model
    models = result.models if route is not compare_semantics else result.sm.models
    assert models == (frozenset(),)


# ---------------------------------------------------------------------------
# The cap counts the head-bounded base


def test_the_cap_counts_the_bounded_base():
    reg = Registry()
    prog = parse_program("#universe {1, 2, 3}.\nq(X) :- not p(X).\n", reg)
    for route in ROUTES:
        res = route(prog, reg, 3)
        assert [sorted(map(str, m)) for m in res.models] == [["q(1)", "q(2)", "q(3)"]]
        assert res.stats.candidates == 8
        with pytest.raises(EnumerationCapError) as info:
            route(prog, reg, 2)
        assert (info.value.size, info.value.cap) == (3, 2)
        assert str(info.value).startswith("3 atoms would mean 2**3 candidate sets")
    # the full base, which the cap of 3 would refuse, holds p as well
    assert len(ref.herbrand_base(prog)) == 6


# ---------------------------------------------------------------------------
# Static failures: every entry point raises grounding's first error before
# it reads anything


class OddAtom(Atom):
    """Passes the checks of ``Rule``, but grounding and the compiler read
    only the five formula types themselves."""


ODD = OddAtom("p", (1,))
UNBOUND = ("GroundingError", "unbound free variable V")
UNKNOWN = ("UnknownQuantifierError", "unknown quantifier 'frob'")
MISSHAPEN = (
    "GroundingError",
    "quantifier 'and' binds 0 variable(s) per argument in this position, got 1",
)
P1 = atom("p", 1)

# kind: (the failing conjunct, the head of its rule, the error)
STATIC = {
    "unbound-variable": (ref.ESCAPING, P1, UNBOUND),
    "constant-without-value": (
        Atom("p", (Constant("c"),)), P1, ("GroundingError", "constant 'c' has no value")
    ),
    "unknown-quantifier": (ref.FROB, P1, UNKNOWN),
    "misshapen-application": (ref.MISSHAPEN_AND, P1, MISSHAPEN),
    "non-formula": (ODD, P1, ("GqError", f"not a formula: {ODD!r}")),
    # two failures: the first in grounding order wins
    "unknown-before-unbound": (conj(ref.FROB, ref.ESCAPING), P1, UNKNOWN),
    "body-before-head": (ref.ESCAPING, ref.MISSHAPEN_AND, UNBOUND),
}

ENTRY_POINTS = {
    "reduct": lambda prog, reg, frame: stable_models_reduct(prog, reg),
    "operator": lambda prog, reg, frame: stable_models_operator(prog, reg),
    "flp": lambda prog, reg, frame: flp_stable_models(prog, reg),
    "compare": lambda prog, reg, frame: compare_semantics(prog, reg),
    "satisfies_direct": lambda prog, reg, frame: satisfies_direct(
        frame, program_to_sentence(prog), reg
    ),
    "eval_star": lambda prog, reg, frame: eval_star(
        program_to_sentence(prog), frame, (), prog.intensional, reg
    ),
    "satisfies_program": lambda prog, reg, frame: satisfies_program(frame, prog, reg),
    "eval_flp_transform": lambda prog, reg, frame: eval_flp_transform(prog, frame, (), reg),
    # the solver's way in: compile, then read the compiled program
    "eval_flp_transform-fired": lambda prog, reg, frame: eval_flp_transform(
        _compile_program(prog, frame, reg), frame, (), reg
    ),
    "flp_reduct": lambda prog, reg, frame: flp_reduct(prog, frame, reg),
}

# A route reads its program under the identity valuation, in which every
# constant of a Program names a universe element, so only a reader given
# a valuation meets a constant without a value.
STATIC_CASES = [
    (kind, entry)
    for kind in STATIC
    for entry in ENTRY_POINTS
    if kind != "constant-without-value" or entry not in ("reduct", "operator", "flp", "compare")
]


@pytest.mark.parametrize(
    "kind, entry", STATIC_CASES, ids=[f"{k}-{e}" for k, e in STATIC_CASES]
)
def test_a_static_failure_raises_before_any_read(kind, entry):
    # h heads no rule, so no candidate of the head-bounded base, and not
    # the empty interpretation, reaches the failing conjunct; the count
    # rule before it is read by every candidate and every reader
    risky, head, want = STATIC[kind]
    universe = frozenset({1, 2, "c"})
    prog = Program(
        (
            Rule(atom("q"), count_ge("X", atom("p", "X"), Constant(1))),
            Rule(head, conj(atom("h", 1), risky)),
            Rule(atom("p", 2), atom("q")),
        ),
        universe,
    )
    frame = Interpretation(universe, constants={1: 1, 2: 2})
    reg = CountingRegistry()
    assert outcome(lambda: ground_program(prog, reg, frame)) == want
    assert outcome(lambda: ref.ground_program(prog, reg, frame)) == want
    assert outcome(lambda: ENTRY_POINTS[entry](prog, reg, frame)) == want
    assert reg.truth_calls == 0


# ---------------------------------------------------------------------------
# The values: every former frozen dataclass keeps its equality, hash, repr,
# construction and immutability


def _records():
    """One value of each record class: (value, its compared fields, its
    repr)."""
    p_x = Atom("p", ("X",))
    rule = Rule(Atom("p"), TOP)
    rule_repr = "Rule(head=Atom(pred='p', args=()), body=Top())"
    ps = PairSet((((1,), G_TOP),))
    ps_repr = "PairSet(entries=(((1,), GTop()),))"
    stats = SolveStats(candidates=4)
    stats_repr = "SolveStats(candidates=4)"
    result = SolveResult("sm", "operator", (frozenset({GroundAtom("p")}),), stats)
    result_repr = (
        "SolveResult(semantics='sm', route='operator', "
        f"models=(frozenset({{GroundAtom(pred='p', args=())}}),), stats={stats_repr})"
    )
    violation = ClassViolation(0, "p", "why")
    violation_repr = "ClassViolation(rule_index=0, literal='p', reason='why')"
    report = ClassReport(False, (violation,))
    report_repr = f"ClassReport(in_class=False, violations=({violation_repr},))"
    return [
        (Variable("X"), ("name",), "Variable(name='X')"),
        (Constant(1), ("value",), "Constant(value=1)"),
        (Atom("p", (1,)), ("pred", "args"), "Atom(pred='p', args=(Constant(value=1),))"),
        (
            Equality("X", 1),
            ("left", "right"),
            "Equality(left=Variable(name='X'), right=Constant(value=1))",
        ),
        (Top(), (), "Top()"),
        (Bot(), (), "Bot()"),
        (
            Apply("exists", (("X",),), (p_x,)),
            ("quantifier", "var_lists", "args"),
            "Apply(quantifier='exists', var_lists=(('X',),), "
            "args=(Atom(pred='p', args=(Variable(name='X'),)),))",
        ),
        (rule, ("head", "body"), rule_repr),
        (
            Program((rule,), {1}),
            ("rules", "universe", "intensional"),
            f"Program(rules=({rule_repr},), universe=frozenset({{1}}), "
            "intensional=frozenset({'p'}))",
        ),
        (
            Interpretation({1}, {GroundAtom("p", (1,))}),
            ("universe", "atoms", "constants"),
            "Interpretation(universe=frozenset({1}), "
            "atoms=frozenset({GroundAtom(pred='p', args=(1,))}), constants=None)",
        ),
        (GTop(), (), "GTop()"),
        (GBot(), (), "GBot()"),
        (ps, ("entries",), ps_repr),
        (
            GApply("exists", (ps,)),
            ("quantifier", "sets"),
            f"GApply(quantifier='exists', sets=({ps_repr},))",
        ),
        (
            Token("NAME", "p", 1, 2),
            ("kind", "value", "line", "col"),
            "Token(kind='NAME', value='p', line=1, col=2)",
        ),
        (
            ReductResult(G_BOT, 1),
            ("formula", "replaced"),
            "ReductResult(formula=GBot(), replaced=1)",
        ),
        (stats, ("candidates",), stats_repr),
        (result, ("semantics", "route", "models", "stats"), result_repr),
        (violation, ("rule_index", "literal", "reason"), violation_repr),
        (report, ("in_class", "violations"), report_repr),
        (
            ComparisonReport(result, result, (), report, False),
            ("sm", "flp", "difference", "class_report", "agreement_violated"),
            f"ComparisonReport(sm={result_repr}, flp={result_repr}, difference=(), "
            f"class_report={report_repr}, agreement_violated=False)",
        ),
    ]


RECORDS = _records()
RECORD_IDS = [type(value).__name__ for value, _, _ in RECORDS]


@pytest.mark.parametrize("value, fields, text", RECORDS, ids=RECORD_IDS)
def test_a_record_prints_equals_and_hashes_by_its_fields(value, fields, text):
    assert repr(value) == text
    values = tuple(getattr(value, name) for name in fields)
    assert hash(value) == hash(values)
    # by position and by keyword, in the same order and with the same names
    assert type(value)(*values) == value
    again = type(value)(**dict(zip(fields, values)))
    assert again == value and hash(again) == hash(value) and again is not value
    assert not value != again


PLAIN_RECORDS = [
    (value, fields) for value, fields, _ in RECORDS if type(value).__init__ is Record.__init__
]


def test_the_plain_records_share_one_constructor():
    assert {type(value).__name__ for value, _ in PLAIN_RECORDS} == {
        "Top", "Bot", "GTop", "GBot", "Token", "ReductResult", "SolveStats", "SolveResult",
        "ClassViolation", "ClassReport", "ComparisonReport",
    }


@pytest.mark.parametrize(
    "value, fields", PLAIN_RECORDS, ids=[type(value).__name__ for value, _ in PLAIN_RECORDS]
)
def test_the_record_constructor_refuses_a_missing_extra_or_repeated_field(value, fields):
    cls, values = type(value), [getattr(value, name) for name in fields]
    name = cls.__name__
    with pytest.raises(TypeError, match=rf"^{name}\(\) takes {len(fields)} fields, got "):
        cls(*values, None)
    with pytest.raises(TypeError, match=rf"^{name}\(\) has no field 'extra'$"):
        cls(*values, extra=None)
    if not fields:
        return
    with pytest.raises(TypeError, match=rf"^{name}\(\) is missing field\(s\) {fields[-1]}$"):
        cls(*values[:-1])
    missing = ", ".join(fields)
    with pytest.raises(TypeError, match=rf"^{name}\(\) is missing field\(s\) {missing}$"):
        cls()
    with pytest.raises(TypeError, match=rf"^{name}\(\) got field '{fields[0]}' twice$"):
        cls(*values, **{fields[0]: values[0]})
    # by name, in any order
    assert cls(**dict(reversed(list(zip(fields, values))))) == value


@pytest.mark.parametrize("value, fields, text", RECORDS, ids=RECORD_IDS)
def test_a_record_cannot_be_changed(value, fields, text):
    for name in fields or ("x",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("value, fields, text", RECORDS, ids=RECORD_IDS)
def test_a_record_survives_copy_and_pickle(value, fields, text):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == text
        assert vars(twin) == vars(value)


def test_records_of_different_classes_are_unequal():
    pairs = [
        (Top(), Bot()),
        (GTop(), GBot()),
        (Top(), GTop()),
        (Atom("p"), GroundAtom("p", ())),
        (Constant(1), Variable("X")),
    ]
    for a, b in pairs:
        assert a != b and b != a
        assert not a == b and not b == a
    assert TOP == Top() and G_TOP == GTop() and GroundAtom("p", ()) == ("p", ())
    assert OddAtom("p", (1,)) != Atom("p", (1,)) != OddAtom("p", (1,))


def test_derived_attributes_stay_out_of_equality_hash_and_repr():
    p, q = Atom("p", ("X",)), Atom("q", ("X",))
    rule = Rule(head=p, body=q)
    assert rule.variables == ("X",) and "variables" not in repr(rule)
    prog = Program(rules=(rule,), universe={1, 2})
    assert prog.intensional == frozenset({"p", "q"}) and prog.signature == {"p": 1, "q": 1}
    assert prog == Program((rule,), frozenset({1, 2}), frozenset({"p", "q"}))
    assert "signature" not in repr(prog)
    interp = Interpretation({2, 1})
    assert interp.atoms == frozenset() and interp.constants is None
    assert interp.universe_sorted == (1, 2) and "universe_sorted" not in repr(interp)
    assert interp == Interpretation(frozenset({1, 2}))
    assert hash(interp) == hash((interp.universe, frozenset(), None))
    assert Atom("p").args == ()


def test_only_quantifier_definitions_are_dataclasses():
    # the values are records, which import without generating code; a
    # QuantifierDef stays a dataclass so that dataclasses.replace works
    classes = {
        cls
        for info in pkgutil.iter_modules(gqsm.__path__)
        for _, cls in inspect.getmembers(
            importlib.import_module(f"gqsm.{info.name}"), inspect.isclass
        )
        if cls.__module__.startswith("gqsm.")
    }
    assert {value.__class__ for value, _, _ in RECORDS} <= classes
    assert [cls for cls in classes if hasattr(cls, "__dataclass_fields__")] == [QuantifierDef]
