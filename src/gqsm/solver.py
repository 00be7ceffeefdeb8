"""Model enumeration under the two stable semantics, and the syntactic
class on which they are guaranteed to agree.

All three definitions have one shape: a model I of the program is kept
when no proper subset J of its intensional atoms is a witness against
it.  The candidates are the subsets of the program's head-bounded base
(its ground atoms, less those of the intensional predicates that head no
rule, which no stable or FLP model holds; ``_checked_base`` says why).
The routes differ in their model and witness tests:

* ``stable_models_reduct``    grounds once; I is a model of the ground
  rules, and J is a model of their reduct relative to I, so a kept I is
  a minimal model of its reduct.  Each rule is read once per projection
  of I onto its atoms, and each reduced rule once per projection of J.
  Sound only when every predicate is intensional.
* ``stable_models_operator``  I satisfies the program's sentence F, and
  J satisfies F*(J), the stability transformation.
* ``flp_stable_models``       I satisfies every rule instance, and J
  satisfies the rule-wise transformation ``B and B(u) -> H(u)``.

All three run one search (``_block_search``, which says why it is
exact).  Past a few atoms it takes the strongly connected blocks of the
ground dependency graph one by one, dependencies first, so a block's
local models and witnesses are read over its own atoms, with the lower
blocks as chosen; otherwise it tries every candidate and every J below
each model (``_search``).  The reduct route reads the graph off its
ground rules, and their truth only through ``_gsat`` and ``reduct``, as
the independent check of the other two.  Those read one compiled
program (``ground._compile_program``), built with the checked base once
per solve (``_setup``): the nodes of every rule instance's body and
head, with F read as the conjunction of their implications, and what
each instance reads.  A true model check keeps I's FLP reduct, the
instances whose body holds in I, in the compiled program, and both
witness tests read only those: FLP's always, and F*(J)'s since J is
below I, where B*(J) implies B, so every other instance holds starred.
``stable_and_flp_models`` runs both in one search.

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
    iter_subformulas,
    predicates_in,
)
from .quantifiers import Registry, is_builtin_name
from .ground import (
    Interpretation,
    _Program,
    _compile_program,
    _eval,
    _gsat,
    _read_set,
    _sides,
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
    """The stability search over a whole base: a ``SolveResult`` per
    ``(semantics, route)`` of ``scans``.  Candidates I are the subsets of
    ``base``, smallest first.  ``model_test(I)`` is None when I is not
    a model, and otherwise a test ``witness(J)`` per scan, true when J
    rules I out.  Each scan in turn tries the proper subsets of I's
    intensional atoms, as tuples, smallest first; a model that none rules
    out is kept.  Every route runs it through ``_block_search`` when the
    base is small, the program is one block or it applies a quantifier
    outside the built-ins."""
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
    return _results(scans, kept, base)


def _results(scans: tuple, kept: list, base: tuple) -> tuple:
    """A ``SolveResult`` per scan, of its kept models, sorted; all share
    one ``SolveStats``, counting the subsets of the whole base."""
    stats = SolveStats(2 ** len(base))
    return tuple(SolveResult(sem, route, tuple(sorted(models, key=atom_set_key)), stats)
                 for (sem, route), models in zip(scans, kept))


def _components(succ: list) -> list:
    """The strongly connected components, each a sorted list, of the
    graph in which node ``v`` has the successors ``succ[v]``, in an order
    in which every component comes after the components it reaches:
    Tarjan's, with its own stack, so a graph of any depth is fine.  A
    node whose component is out gets the order ``len(succ)``, above any
    low link, so an edge to it lowers none."""
    done = len(succ)
    order = [-1] * done
    low = [0] * done
    stack, out = [], []
    count = 0
    for root in range(done):
        if order[root] >= 0:
            continue
        order[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if order[w] < 0:
                    order[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if low[v] == order[v]:
                    i = stack.index(v)
                    component = sorted(stack[i:])
                    del stack[i:]
                    for w in component:
                        order[w] = done
                    out.append(component)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return out


def _blocks(items, reads, heads, base: tuple, intensional) -> Optional[list]:
    """The blocks of the ground dependency graph, dependencies first,
    each as its atoms, in base order, and the list of its items; None
    when the program is one block.  ``items`` are a program's rule
    instances, compiled or ground, and ``reads`` and ``heads`` name, per
    item, the atoms it reads and the intensional atoms of its head.

    The nodes are the intensional atoms of the base.  An edge goes from
    each intensional head atom of an item, all of which are in the base,
    to every node the item reads: body and head, negated or not,
    quantifier arguments included.  So the head atoms of one item share
    a block, which holds the item, and every node it reads is in that
    block or below.  An item with no intensional head atom, a
    constraint, goes to the block of the last node it reads, or to the
    first."""
    atoms = [a for a in base if a.pred in intensional]
    if len(atoms) < 2:
        return None
    index = {a: i for i, a in enumerate(atoms)}
    get = index.get
    succ = [set() for _ in atoms]
    for read, head in zip(reads, heads):
        if head:
            read = set(map(get, read))
            for a in head:
                succ[index[a]] |= read
    for i, nodes in enumerate(succ):
        nodes.discard(None)
        nodes.discard(i)  # a loop joins no two nodes
    components = _components(succ)
    if len(components) == 1:
        return None
    block_of = {atoms[i]: k for k, component in enumerate(components) for i in component}
    members = [[] for _ in components]
    for item, read, head in zip(items, reads, heads):
        if head:
            members[block_of[head[0]]].append(item)
        else:
            members[max([block_of.get(a, 0) for a in read], default=0)].append(item)
    return [
        (tuple([atoms[i] for i in component]), part)
        for component, part in zip(components, members)
    ]


# The largest base read over whole even when it splits: at up to 16
# candidates the graph and the search block by block cost about what
# they save.  Timed in-process (Python 3.11, 2 CPUs), one solve block by
# block took 1.1-1.2 times as long as over the whole base on programs
# of 2 and 3 atoms, 0.9-1.2 times on 4, and 0.6-0.9 times on 5 and 6.
_WHOLE_BASE_ATOMS = 4


def _splits(base: tuple, names) -> bool:
    """Whether a search may go block by block: the base has more than
    ``_WHOLE_BASE_ATOMS`` atoms, and every quantifier the program applies,
    of the names ``names``, is a built-in.  A program that applies
    another is scanned over its whole base, so a truth function that
    raises does so where that scan reads it."""
    return len(base) > _WHOLE_BASE_ATOMS and all(map(is_builtin_name, names))


def _block_search(scans: tuple, base: tuple, intensional, whole, blocks, model_test) -> tuple:
    """The stability search of all three routes: a ``SolveResult`` per
    ``(semantics, route)`` of ``scans``.  ``model_test(part, s)`` is None
    when the atom set ``s`` is not a model of ``part``, the items of a
    block or the ``whole`` program, and otherwise a test ``witness(J)``
    per scan, true when J rules ``s`` out.

    With ``blocks`` None (``_splits``, ``_blocks``) the whole program is
    read by ``_search`` over the whole base.  Otherwise, after each
    subset E of the extensional atoms, smallest first, the blocks are
    searched depth first, dependencies first.  With L the intensional
    atoms chosen below a block, its local models are the subsets S of its
    atoms, smallest first, for which E, L and S are a model of the
    block's items.  The local witnesses against S are the J < S for which
    ``witness(L | J)`` holds, tried smallest first.  A scan keeps a local
    model that none of its witnesses rules out, and an I that it kept in
    every block.  One model test serves every scan, and a local model is
    followed up while any scan keeps it.

    This is exact, for SM by F*(J), for SM by reduct and for FLP.  Let I
    be a model, so a model of every block's items, and let S_k be its
    atoms in block k.  The items of block k read only atoms of blocks up
    to k, and their head atoms are in block k.  Every J below is a set of
    intensional atoms of I.  The reduct route's test reads P^I, the
    reduct of the ground rules relative to I: each g^I reads only atoms
    of g, and I satisfies g^I whenever it satisfies g.

    * A local witness lifts.  Let J_k < S_k be a witness in block k,
      with the lower atoms as in I, and let J be the intensional atoms
      of I with J_k in place of S_k, so the upper atoms are as in I
      too.  An item below block k reads J where J is I, and ``F*(I)``
      is equivalent to F, so it holds starred; g^I holds in I; FLP reads
      ``B and B(I) -> H(I)``, true in a model.  In block k the items
      hold by the witness.  An item above k has its head atoms as in I,
      so ``H*(J)`` is ``H*(I)``, which is H, and H^I holds in J as in I.
      If H holds in I, so do the starred instance and g^I.  If not, B is
      false in I, and ``B*(J)`` implies B for J below I, so ``B*(J)`` is
      false, and B^I is ``bot``.  In FLP, an instance in I's reduct has
      ``H(J) = H(I)``, true, and one outside it holds.  A constraint's
      head reads no intensional atom, so it keeps its value in I for the
      same reasons.  So J is a witness against I.
    * A witness gives a local one.  Let J < I be a witness, and k the
      lowest block in which J differs from I.  Below k, J is I, so the
      items of block k read J as ``L | J_k``, with J_k < S_k, and J_k is
      a local witness in block k.

    So I is stable exactly when it is stable in every block, with the
    lower blocks as in I: the splitting set theorem (Lifschitz and
    Turner, ICLP 1994), for first-order SM by Ferraris, Lee, Lifschitz
    and Palla (IJCAI 2009).  A constraint is read once every node it
    reads is chosen, so I is a model exactly when it is a local model
    in every block.  The candidate count is still that of the whole
    base."""
    if blocks is None:
        return _search(scans, base, intensional, lambda s: model_test(whole, s))
    kept = [[] for _ in scans]
    last = len(blocks) - 1

    def local_models(k, below, lower, live):
        # block k's local models over the chosen atoms ``below``, whose
        # intensional part is ``lower``, each with the scans of ``live``
        # that keep it; the last block's go to ``kept``
        atoms, part = blocks[k]
        for combo in _subsets_ascending(atoms):
            s = below.union(combo)
            witnesses = model_test(part, s)
            if witnesses is None:
                continue
            keeps = [
                keep and not any(witness(lower.union(j))
                                 for j in _subsets_ascending(combo, len(combo) - 1))
                for keep, witness in zip(live, witnesses)
            ]
            if k == last:
                for keep, models in zip(keeps, kept):
                    if keep:
                        models.append(s)
            elif any(keeps):
                yield k + 1, s, lower.union(combo), keeps

    extensional = [a for a in base if a.pred not in intensional]
    for combo in _subsets_ascending(extensional):
        stack = [local_models(0, frozenset(combo), frozenset(), [True] * len(scans))]
        while stack:
            found = next(stack[-1], None)
            if found is None:
                stack.pop()
            else:
                stack.append(local_models(*found))
    return _results(scans, kept, base)


def _compiled_search(scans: tuple, program: Program, registry: Registry,
                     cap: Optional[int], model_test) -> tuple:
    """The operator and FLP routes' search, ``_block_search`` over the
    compiled program (``_setup``) and its instances: a ``SolveResult``
    per ``(semantics, route)`` of ``scans``.  ``model_test(compiled,
    interp)`` is None when ``interp`` is not a model of the compiled
    program ``compiled``, and otherwise a test ``witness(J)`` per scan."""
    base, empty, compiled = _setup(program, registry, cap)
    intensional = program.intensional
    blocks = None
    if _splits(base, compiled.quantifiers):
        blocks = _blocks(compiled.instances, compiled.reads, compiled.heads, base, intensional)
    if blocks is not None:
        blocks = [(atoms, _Program(compiled.intensional, tuple(part))) for atoms, part in blocks]
    return _block_search(
        scans, base, intensional, compiled, blocks,
        lambda part, s: model_test(part, empty.with_atoms(s, checked=True)),
    )


def _applied_names(program: Program):
    """The names of the quantifiers the rules of ``program`` apply,
    connectives included, one per application, lazily: those a compile
    of it records (``_Program.quantifiers``)."""
    return (
        f.quantifier
        for rule in program.rules
        for side in (rule.body, rule.head)
        for f in iter_subformulas(side)
        if type(f) is Apply
    )


def _head_atoms(g, intensional) -> list:
    """The intensional atoms of the head of the ground rule ``g``, its
    right side: those a compile records as the instance's ``heads``."""
    return [a for a in _read_set(_sides(g)[1]) if a.pred in intensional]


def stable_models_reduct(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> SolveResult:
    """Stable models via grounding and reducts: a model is stable when
    it is a minimal model of its own reduct.  The ground rules are
    searched by ``_block_search``, block by block as the compiled
    routes' instances are, with truth read only by ``_gsat`` and
    ``reduct``.

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
    intensional = program.intensional
    rules = ground_program(program, registry)
    # A rule reads only the atoms it mentions, so its truth and its
    # reduct are kept per projection of the candidate onto them, and a
    # reduced formula's truth per projection of J onto its own atoms.
    # A projection is read the first time it is met, which is where an
    # unmemoised scan first reads it, so a truth function's error
    # surfaces there too.  An entry per rule holds it, its read set and
    # its two memos.
    reads = [_read_set(g) for g in rules]
    entries = [(g, read, {}, {}) for g, read in zip(rules, reads)]
    blocks = None
    if _splits(base, _applied_names(program)):
        heads = [_head_atoms(g, intensional) for g in rules]
        blocks = _blocks(entries, reads, heads, base, intensional)

    def model_test(part, s):
        keys = []
        for g, read, memo, _ in part:
            k = s & read
            v = memo.get(k)
            if v is None:
                v = memo[k] = _gsat(g, k, universe, registry)
            if not v:
                return None
            keys.append(k)
        reduced = []
        for (g, _, _, memo), k in zip(part, keys):
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

    scans = (("sm", "reduct"),)
    return _block_search(scans, base, intensional, entries, blocks, model_test)[0]


def stable_models_operator(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> SolveResult:
    """Stable models via the stability transformation: a model is stable
    when no proper subvaluation of its intensional slice satisfies the
    starred sentence, read over the instances whose body the model
    satisfies."""
    intensional = program.intensional

    def model_test(compiled, interp):
        if not _eval(compiled, interp, registry, {}):
            return None
        return (lambda j: eval_star(compiled, interp, j, intensional, registry),)

    return _compiled_search((("sm", "operator"),), program, registry, cap, model_test)[0]


def flp_stable_models(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> SolveResult:
    """Stable models in the FLP sense: a model is stable when no proper
    subvaluation of its intensional slice satisfies every rule instance
    read as ``B and B(u) -> H(u)``."""

    def model_test(compiled, interp):
        if not satisfies_program(interp, compiled, registry):
            return None
        return (lambda j: eval_flp_transform(compiled, interp, j, registry),)

    return _compiled_search((("flp", "operator"),), program, registry, cap, model_test)[0]


def stable_and_flp_models(
    program: Program, registry: Registry, cap: Optional[int] = None
) -> tuple:
    """SM's and FLP's results from one setup and one FLP model check per
    local model, or per candidate of a base scanned whole, whose kept
    reduct both read.  SM's J's go first: FLP's read plain nodes off I,
    which evicts the plain answers F*(J) reads."""
    intensional = program.intensional

    def model_test(compiled, interp):
        if not satisfies_program(interp, compiled, registry):
            return None
        return (
            lambda j: eval_star(compiled, interp, j, intensional, registry),
            lambda j: eval_flp_transform(compiled, interp, j, registry),
        )

    scans = (("sm", "operator"), ("flp", "operator"))
    return _compiled_search(scans, program, registry, cap, model_test)


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
