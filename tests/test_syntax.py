"""Construction and validation of terms, formulas, rules, programs."""

import pytest

from gqsm.syntax import (
    TOP,
    BOT,
    Apply,
    GqError,
    Atom,
    Bot,
    Constant,
    Equality,
    Program,
    Rule,
    Top,
    Variable,
    as_term,
    conj,
    constants_in,
    disj,
    exists,
    forall,
    free_variables,
    impl,
    is_atomic,
    iter_subformulas,
    neg,
    predicates_in,
)


def test_as_term_coercion():
    assert as_term(3) == Constant(3)
    assert as_term("a") == Constant("a")
    # leading uppercase means variable
    assert as_term("X") == Variable("X")
    assert as_term(Variable("X")) == Variable("X")
    assert as_term(Constant(-1)) == Constant(-1)


def test_atom_coerces_its_arguments():
    a = Atom("p", (1, "X", "b"))
    assert a.args == (Constant(1), Variable("X"), Constant("b"))


def test_atom_rejects_keyword_and_malformed_names():
    for bad in ("top", "bot", "not", "forall", "exists", "Sum", "p-q", ""):
        with pytest.raises(GqError):
            Atom(bad, ())


def test_sum_and_count_are_usable_as_predicate_names():
    # only the brace syntax treats them specially
    assert Atom("sum", (1,)).pred == "sum"
    assert Atom("count", ()).pred == "count"


def test_conj_disj_fold_left_and_handle_empty():
    assert conj() is TOP
    assert disj() is BOT
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    f = conj(p, q, r)
    # left fold: (p & q) & r
    assert f.quantifier == "and"
    assert f.args[1] == r
    assert f.args[0].args == (p, q)
    assert conj(p) is p
    assert disj(p) is p


def test_neg_and_impl_shapes():
    p = Atom("p")
    n = neg(p)
    assert n.quantifier == "impl"
    assert n.args == (p, BOT)
    assert impl(p, TOP).args == (p, TOP)


def test_binder_variables_are_bound_in_every_argument():
    # the binder covers all argument positions, not just its own
    f = Apply(
        "sum_lt",
        (("X",), ("Y",)),
        (Atom("p", ("X",)), Equality(Variable("Y"), Constant(2))),
    )
    assert free_variables(f) == frozenset()
    g = Apply("forall", (("X",),), (Atom("p", ("X", "Z")),))
    assert free_variables(g) == frozenset({"Z"})


def test_free_variables_of_classic_quantifiers():
    f = forall("X", impl(Atom("p", ("X",)), Atom("q", ("X",))))
    assert free_variables(f) == frozenset()
    assert free_variables(Atom("p", ("X", 1))) == frozenset({"X"})
    assert free_variables(exists("X", Atom("p", ("X", "Y")))) == frozenset({"Y"})


def test_apply_validates_binder_and_argument_counts():
    with pytest.raises(GqError):
        Apply("forall", (("X",), ("Y",)), (Atom("p"),))
    with pytest.raises(GqError):
        Apply("forall", (("X", "X"),), (Atom("p"),))


def test_is_atomic():
    assert is_atomic(Atom("p", (1,)))
    assert is_atomic(Equality(Constant(1), Constant(2)))
    assert is_atomic(TOP) and is_atomic(BOT)
    assert not is_atomic(neg(Atom("p")))
    assert not is_atomic(conj(Atom("p"), Atom("q")))


def test_iter_subformulas_walks_everything():
    f = impl(conj(Atom("p"), Atom("q")), Atom("r"))
    kinds = [type(g).__name__ for g in iter_subformulas(f)]
    assert kinds.count("Atom") == 3
    assert kinds.count("Apply") == 2


def test_constants_and_predicates_collection():
    f = impl(Atom("p", (1, "a")), Atom("q", ("X",)))
    assert constants_in(f) == frozenset({1, "a"})
    assert predicates_in(f) == {"p": 2, "q": 1}  # pred name to arity


def test_program_validates_constants_against_universe():
    with pytest.raises(GqError, match="constants outside the universe"):
        Program((Rule(Atom("p", (5,)), TOP),), frozenset({1, 2}))


def test_program_rejects_conflicting_arities():
    with pytest.raises(GqError, match="arities 1 and 0"):
        Program((Rule(Atom("p", (1,)), Atom("p", ())),), frozenset({1}))


def test_program_rejects_empty_universe():
    with pytest.raises(GqError, match="universe must not be empty"):
        Program((Rule(Atom("p", (1,)), TOP),), frozenset())


def test_program_rejects_unknown_intensional_predicate():
    with pytest.raises(GqError, match="not used in any rule"):
        Program(
            (Rule(Atom("p", (1,)), TOP),),
            frozenset({1}),
            intensional=frozenset({"q"}),
        )


def test_program_defaults_to_all_predicates_intensional():
    prog = Program((Rule(Atom("p", (1,)), Atom("q", (1,))),), frozenset({1}))
    assert prog.intensional == frozenset({"p", "q"})
    assert prog.all_intensional


def test_program_with_extensional_predicates():
    prog = Program(
        (Rule(Atom("p", (1,)), Atom("q", (1,))),),
        frozenset({1}),
        intensional=frozenset({"p"}),
    )
    assert not prog.all_intensional


def test_universe_sorted_orders_ints_before_symbols():
    prog = Program(
        (Rule(Atom("p", (1,)), TOP),),
        frozenset({"b", 2, "a", 1}),
    )
    assert prog.universe_sorted() == (1, 2, "a", "b")


def test_rule_free_variables():
    r = Rule(Atom("p", ("X",)), Atom("q", ("X", "Y")))
    assert r.free_variables() == frozenset({"X", "Y"})


def test_rule_equality_hash_and_repr_ignore_the_cached_variables():
    head, body = Atom("p", ("X",)), Atom("q", ("Y", "X"))
    r = Rule(head, body)
    assert r.variables == ("X", "Y")
    assert r == Rule(head, body) and hash(r) == hash(Rule(head, body))
    assert r != Rule(head, Atom("q", ("X", "Y")))
    assert repr(r) == f"Rule(head={head!r}, body={body!r})"
    with pytest.raises(TypeError):
        Rule(head, body, ("X",))


def _nested_body(depth):
    f = Atom("p", ("X",))
    for i in range(depth):
        f = conj(f, Atom("q", (i % 3,))) if i % 2 else exists("Y", conj(f, Atom("q", ("Y",))))
    return f


def test_walks_keep_their_own_stack():
    deep = _nested_body(10_000)
    assert free_variables(deep) == frozenset({"X"})
    # the atom p(X), then 5,000 conj layers of 2 nodes and 5,000 exists layers of 3
    assert sum(1 for _ in iter_subformulas(deep)) == 1 + 5_000 * 2 + 5_000 * 3
    long_body = conj(*[neg(Atom("q", ())) for _ in range(10_000)])
    assert Rule(Atom("p", ()), long_body).variables == ()
    assert predicates_in(long_body) == {"q": 0}


def test_iter_subformulas_is_preorder_left_to_right():
    a, b, c = Atom("a", ()), Atom("b", ()), Atom("c", ())
    f = impl(conj(a, b), exists("X", c))
    assert list(iter_subformulas(f)) == [f, conj(a, b), a, b, exists("X", c), c]
