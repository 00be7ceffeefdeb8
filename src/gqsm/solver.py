"""Model enumeration under the two stable semantics, and the syntactic
class on which they are guaranteed to agree.

All three definitions have one shape, so one scan, ``_search``, serves
them, one or several at once.  It tries every subset I of the program's
head-bounded base (its ground atoms, less those of the intensional
predicates that head no rule, which no stable or FLP model holds;
``_checked_base`` says why), and keeps a model I when no proper subset J
of its intensional atoms is a witness against it.  The routes differ
only in their model and witness tests:

* ``stable_models_reduct``    grounds once; I is a model of the ground
  rules, and J is a model of their reduct relative to I, so a kept I is
  a minimal model of its reduct.  Each rule is read once per projection
  of I onto its atoms, and each reduced rule once per projection of J.
  Sound only when every predicate is intensional.
* ``stable_models_operator``  I satisfies the program's sentence F, and
  J satisfies F*(J), the stability transformation.
* ``flp_stable_models``       I satisfies every rule instance, and J
  satisfies the rule-wise transformation ``B and B(u) -> H(u)``.

Both read one compiled program (``ground._compile_program``), built with
the checked base once per solve (``_setup``): the nodes of every rule
instance's body and head, with F read as the conjunction of their
implications.  A true model check keeps I's FLP reduct, the instances
whose body holds in I, in the compiled program, and both witness tests
read only those: FLP's always, and F*(J)'s since J is below I, where
B*(J) implies B, so every other instance holds starred.
``stable_and_flp_models`` runs both in one scan.

``compare_semantics`` runs them so and checks the outcome against
``monotone_class_report``: inside the class, any disagreement is a bug.
"""
from __future__ import annotations

from typing import Optional

from .syntax import (
    Apply,
    Formula,
    GqError,
    Program,
    Record,
    conj,
    flatten_spine,
    forall,
    impl,
    is_atomic,
    is_bot,
    predicates_in,
)
from .quantifiers import Registry
from .ground import (
    Interpretation,
    _compile_program,
    _eval,
    _gsat,
    _read_set,
    atom_set_key,
    atom_strings,
    eval_flp_transform,
    eval_star,
    ground_program,
    herbrand_base,
    satisfies_program,
)
from .reduct import (
    EnumerationCapError,
    _subsets_ascending,
    reduct,
    resolve_cap,
)


class ReductRouteError(GqError):
    pass


class SolveStats(Record):
    _fields = ("candidates",)


class SolveResult(Record):
    """``semantics`` is "sm" or "flp", ``route`` "reduct" or "operator"."""

    _fields = ("semantics", "route", "models", "stats")

    def to_json(self) -> dict:
        return {
            "semantics": self.semantics,
            "route": self.route,
            "models": [atom_strings(m) for m in self.models],
            "stats": {"candidates": self.stats.candidates},
        }


def program_to_sentence(program: Program) -> Formula:
    """The program as one sentence: the left-nested conjunction of the
    universal closures of ``body -> head``, ``top`` for no rules."""
    closures = []
    for rule in program.rules:
        f = impl(rule.body, rule.head)
        for x in reversed(rule.variables):
            f = forall(x, f)
        closures.append(f)
    return conj(*closures)


def _checked_base(program: Program, cap: Optional[int]) -> tuple:
    """The head-bounded base, checked against the atom cap: every ground
    atom of the program except those of an intensional predicate that
    occurs in no rule head.  Extensional predicates are free inputs and
    stay, headed or not.

    Dropping the others loses no stable model under any of the three
    semantics.  Let I be a model holding an atom of a headless
    intensional predicate, and J be I without those atoms, so J < I on
    the intensional part.  Take any rule instance B -> H.  If B*(J)
    holds then B holds in I, since F*(J) implies F when J <= I, so H
    holds in I.  H mentions no headless predicate, so H*(J) = H*(I) = H
    (F*(I) is equivalent to F), which is true.  So F*(J) holds and I is
    not SM-stable (Ferraris, Lee and Lifschitz, *Stable models and
    circumscription*, AIJ 2011).  For FLP, every instance in the reduct
    of I has H(J) = H(I), which is true, so I is not FLP-stable.  The
    reduct route agrees with the operator route on the all-intensional
    programs it accepts, so the same holds there.
    """
    headed = set()
    for rule in program.rules:
        headed.update(predicates_in(rule.head))
    free = headed | (set(program.signature) - program.intensional)
    base = tuple(a for a in herbrand_base(program) if a.pred in free)
    limit = resolve_cap(cap)
    if len(base) > limit:
        raise EnumerationCapError(len(base), limit)
    return base


def _setup(program: Program, registry: Registry, cap: Optional[int]) -> tuple:
    """An operator or FLP solve's head-bounded base, the interpretation
    with no atoms, and the compiled program.  The base's atoms need no
    check: ``herbrand_base`` built them over this universe."""
    base = _checked_base(program, cap)
    empty = Interpretation(program.universe)
    return base, empty, _compile_program(program, empty, registry)


def _search(scans: tuple, base: tuple, intensional, model_test) -> tuple:
    """The one stability search behind all three routes: a ``SolveResult``
    per ``(semantics, route)`` of ``scans``.  Candidates I are the subsets
    of ``base``, smallest first.  ``model_test(I)`` is None when I is not
    a model, and otherwise a test ``witness(J)`` per scan, true when J
    rules I out.  Each scan in turn tries the proper subsets of I's
    intensional atoms, as tuples, smallest first; a model that none rules
    out is kept.  All results share one ``SolveStats``."""
    kept = [[] for _ in scans]
    for combo in _subsets_ascending(base):
        s = frozenset(combo)
        witnesses = model_test(s)
        if witnesses is None:
            continue
        # the base is in atom order, as herbrand_base gives it, and
        # combinations keeps that order, so the pool needs no sort
        pool = [a for a in combo if a.pred in intensional]
        for witness, models in zip(witnesses, kept):
            if not any(witness(j) for j in _subsets_ascending(pool, len(pool) - 1)):
                models.append(s)
    stats = SolveStats(2 ** len(base))
    return tuple(SolveResult(sem, route, tuple(sorted(models, key=atom_set_key)), stats)
                 for (sem, route), models in zip(scans, kept))


def stable_models_reduct(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> SolveResult:
    """Stable models via grounding and reducts: a model is stable when
    it is a minimal model of its own reduct.

    Sound only when every predicate is intensional, since the reduct
    minimizes over whole atom sets; otherwise this raises
    ``ReductRouteError`` and the operator route must be used.
    """
    if not program.all_intensional:
        extensional = sorted(set(program.signature) - program.intensional)
        raise ReductRouteError(
            "the reduct route requires every predicate to be intensional; "
            f"extensional here: {', '.join(extensional)}"
        )
    base = _checked_base(program, cap)
    universe = program.universe
    rules = ground_program(program, registry)
    # A rule reads only the atoms it mentions, so its truth and its
    # reduct are kept per projection of the candidate onto them, and a
    # reduced formula's truth per projection of J onto its own atoms.
    # A projection is read the first time it is met, which is where an
    # unmemoised scan first reads it, so a truth function's error
    # surfaces there too.
    reads = [_read_set(g) for g in rules]
    truths = [{} for _ in rules]
    reducts = [{} for _ in rules]

    def model_test(s):
        keys = []
        for g, read, memo in zip(rules, reads, truths):
            k = s & read
            v = memo.get(k)
            if v is None:
                v = memo[k] = _gsat(g, k, universe, registry)
            if not v:
                return None
            keys.append(k)
        reduced = []
        for g, k, memo in zip(rules, keys, reducts):
            entry = memo.get(k)
            if entry is None:
                f = reduct(g, k, universe, registry).formula
                entry = memo[k] = (f, _read_set(f), {})
            _, read, held = entry
            # A reduced rule that reads no atom, once known to hold,
            # holds for every J.
            if read or held.get(read) is not True:
                reduced.append(entry)

        def witness(j):
            j = frozenset(j)
            for f, read, memo in reduced:
                k = read & j
                v = memo.get(k)
                if v is None:
                    v = memo[k] = _gsat(f, k, universe, registry)
                if not v:
                    return False
            return True

        return (witness,)

    return _search((("sm", "reduct"),), base, program.intensional, model_test)[0]


def stable_models_operator(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> SolveResult:
    """Stable models via the stability transformation: a model is stable
    when no proper subvaluation of its intensional slice satisfies the
    starred sentence, read over the instances whose body the model
    satisfies."""
    base, empty, compiled = _setup(program, registry, cap)
    intensional = program.intensional

    def model_test(s):
        interp = empty.with_atoms(s, checked=True)
        if not _eval(compiled, interp, registry, {}):
            return None
        return (lambda j: eval_star(compiled, interp, j, intensional, registry),)

    return _search((("sm", "operator"),), base, intensional, model_test)[0]


def flp_stable_models(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> SolveResult:
    """Stable models in the FLP sense: a model is stable when no proper
    subvaluation of its intensional slice satisfies every rule instance
    read as ``B and B(u) -> H(u)``."""
    base, empty, compiled = _setup(program, registry, cap)

    def model_test(s):
        interp = empty.with_atoms(s, checked=True)
        if not satisfies_program(interp, compiled, registry):
            return None
        return (lambda j: eval_flp_transform(compiled, interp, j, registry),)

    return _search((("flp", "operator"),), base, program.intensional, model_test)[0]


def stable_and_flp_models(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> tuple:
    """SM's and FLP's results from one setup and one FLP model check per
    candidate, whose kept reduct both read.  SM's J's go first: FLP's read
    plain nodes off I, which evicts the plain answers F*(J) reads."""
    base, empty, compiled = _setup(program, registry, cap)
    intensional = program.intensional

    def model_test(s):
        interp = empty.with_atoms(s, checked=True)
        if not satisfies_program(interp, compiled, registry):
            return None
        return (
            lambda j: eval_star(compiled, interp, j, intensional, registry),
            lambda j: eval_flp_transform(compiled, interp, j, registry),
        )

    return _search((("sm", "operator"), ("flp", "operator")), base, intensional, model_test)


# ---------------------------------------------------------------------------
# The agreement class


class ClassViolation(Record):
    """``rule_index`` is the 0-based position of the rule in the program."""

    _fields = ("rule_index", "literal", "reason")


class ClassReport(Record):
    _fields = ("in_class", "violations")

    def to_json(self) -> dict:
        return {
            "in_class": self.in_class,
            "violations": [
                {"rule": v.rule_index, "literal": v.literal, "reason": v.reason}
                for v in self.violations
            ],
        }


def _negated(f: Formula):
    """The formula under an outermost negation, or None."""
    if (
        isinstance(f, Apply)
        and f.quantifier == "impl"
        and f.var_lists == ((), ())
        and is_bot(f.args[1])
    ):
        return f.args[0]
    return None


def _literal_violation(part: Formula, registry: Registry) -> Optional[str]:
    """Why a body literal is outside the agreement class, or None.

    A literal that is not atomic is an application, since ``Rule``
    accepts no other formula."""
    inner = _negated(part)
    app = part if inner is None else inner
    if is_atomic(app):
        return None
    if not all(is_atomic(a) for a in app.args):
        if inner is None:
            return "quantifier argument is not atomic"
        return "negated quantifier has a non-atomic argument"
    if inner is None or registry.resolve(app.quantifier).monotone_everywhere:
        return None
    return (
        f"quantifier {app.quantifier!r} is not monotone in every "
        "position, so it cannot be negated"
    )


def monotone_class_report(program: Program, registry: Registry) -> ClassReport:
    """Check rules against the shape on which both semantics coincide:
    disjunctions of atomics in the head; bodies built from literals that
    are atomic or apply a quantifier to atomic arguments, where any
    negated quantifier must be monotone in every argument position."""
    violations = []
    for i, rule in enumerate(program.rules):
        for part in flatten_spine(rule.head, "or"):
            if not is_atomic(part):
                violations.append(
                    ClassViolation(i, str(part), "head disjunct is not atomic")
                )
        for part in flatten_spine(rule.body, "and"):
            reason = _literal_violation(part, registry)
            if reason is not None:
                violations.append(ClassViolation(i, str(part), reason))
    return ClassReport(not violations, tuple(violations))


class ComparisonReport(Record):
    """``difference`` holds the models in exactly one of the two."""

    _fields = ("sm", "flp", "difference", "class_report", "agreement_violated")

    def to_json(self) -> dict:
        """The document ``gqsm compare --format json`` prints."""
        return {
            "results": [self.sm.to_json(), self.flp.to_json()],
            "agreement": {
                **self.class_report.to_json(),
                "difference": [atom_strings(m) for m in self.difference],
                "agreement_violated": self.agreement_violated,
            },
        }


def compare_semantics(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> ComparisonReport:
    """``stable_and_flp_models``, checked against the agreement class."""
    sm, flp = stable_and_flp_models(program, registry, cap)
    diff = set(sm.models) ^ set(flp.models)
    difference = tuple(sorted(diff, key=atom_set_key))
    report = monotone_class_report(program, registry)
    return ComparisonReport(
        sm=sm,
        flp=flp,
        difference=difference,
        class_report=report,
        agreement_violated=report.in_class and bool(difference),
    )
