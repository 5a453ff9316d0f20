from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtypes.positions import EPS
from seqtypes.terms import (
    Abs,
    App,
    NotARedexError,
    PositionError,
    Term,
    TermSyntaxError,
    Var,
    alpha_eq,
    beta_reduce_at,
    binders_above,
    child,
    free_vars,
    parse_term,
    print_term,
    redexes,
    replace_at,
    subterm_at,
    support,
)

from samples import (
    make_argument_redex,
    make_brothers,
    make_self_app,
    make_shadowed_redex,
    make_tracked_redex,
    make_two_choice_redex,
    make_wide,
)

DELTA = Abs("x", App(Var("x"), Var("x")))


def test_parse_delta():
    assert parse_term("\\x. x x") == DELTA


def test_parse_variable_and_redex():
    assert parse_term("x") == Var("x")
    assert parse_term("(\\x.x) y") == App(Abs("x", Var("x")), Var("y"))


def test_parse_multi_binder_and_assoc():
    assert parse_term("\\x y. x") == Abs("x", Abs("y", Var("x")))
    assert parse_term("x y z") == App(App(Var("x"), Var("y")), Var("z"))
    assert parse_term("x (y z)") == App(Var("x"), App(Var("y"), Var("z")))


def test_parse_errors_carry_offset():
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("x $")
    assert exc.value.offset == 2
    with pytest.raises(TermSyntaxError):
        parse_term("(x")


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("\\. x", "expected binder after '\\'", 1),
        ("\\x y x", "expected '.' after binders", 6),
        ("(x y", "expected ')'", 4),
        ("f (\\x. x x) y)", "trailing input ')'", 13),
        ("x \\y. y", "trailing input '\\\\'", 2),
        ("(x .)", "expected ')'", 3),
        (")", "unexpected token ')'", 0),
        ("", "unexpected token ''", 0),
    ],
)
def test_parse_error_messages_and_offsets(text, message, offset):
    with pytest.raises(TermSyntaxError) as exc:
        parse_term(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{message} (at offset {offset})"


def test_print_round_trip():
    for text in ["\\x. x x", "x", "(\\x. x) y", "\\x y. x (y z)", "x y z"]:
        t = parse_term(text)
        assert parse_term(print_term(t)) == t


def test_support():
    assert support(Abs("x", App(Var("y"), Var("x")))) == frozenset(
        {EPS, (0,), (0, 1), (0, 2)}
    )
    assert support(Var("x")) == frozenset({EPS})
    assert support(App(Var("x"), Var("y"))) == frozenset({EPS, (1,), (2,)})


def test_subterm_and_constructor():
    t = Abs("x", App(Var("y"), Var("x")))
    assert subterm_at(t, (0,)) == App(Var("y"), Var("x"))
    assert subterm_at(t, EPS) == t
    assert subterm_at(DELTA, (0, 5)) == Var("x")  # track 5 collapses to 2
    with pytest.raises(PositionError):
        subterm_at(t, (1,))


def test_child_reads_every_letter():
    t = App(DELTA, Var("y"))
    assert [child(DELTA, k) for k in (0, 1, 2)] == [DELTA.body, None, None]
    assert [child(t, k) for k in (0, 1, 2, 9)] == [None, DELTA, Var("y"), Var("y")]
    assert [child(Var("y"), k) for k in (0, 1, 2)] == [None, None, None]


def test_replace_at_and_position_errors():
    t = parse_term("\\z. f (\\x. x) z")
    assert replace_at(t, (0, 1, 2), Var("g")) == parse_term("\\z. f g z")
    assert replace_at(t, (0, 7), Var("g")) == parse_term("\\z. f (\\x. x) g")
    assert replace_at(t, EPS, Var("g")) == Var("g")
    assert binders_above(t, (0, 1, 2, 0)) == {"z", "x"}
    assert binders_above(t, (0, 1, 2)) == {"z"}
    for walk in (subterm_at, binders_above, beta_reduce_at):
        with pytest.raises(PositionError, match="position 0.0 outside the support"):
            walk(t, (0, 0))
    with pytest.raises(PositionError, match="position 1 outside the support"):
        replace_at(t, (1,), Var("g"))
    with pytest.raises(NotARedexError, match="no redex at 0.1"):
        beta_reduce_at(t, (0, 1))


def test_beta_reduce():
    assert beta_reduce_at(parse_term("(\\x.x) y"), EPS) == Var("y")
    assert beta_reduce_at(parse_term("(\\x.x x) y"), EPS) == App(Var("y"), Var("y"))
    assert beta_reduce_at(parse_term("\\z.(\\x.x) z"), (0,)) == Abs("z", Var("z"))
    with pytest.raises(NotARedexError):
        beta_reduce_at(parse_term("x y"), EPS)


def test_beta_reduce_capture_avoiding():
    # (\x. \y. x) y  ->  \y1. y, not \y. y
    t = parse_term("(\\x. \\y. x) y")
    reduced = beta_reduce_at(t, EPS)
    assert alpha_eq(reduced, Abs("z", Var("y")))
    assert not alpha_eq(reduced, Abs("y", Var("y")))


def test_redexes():
    omega = App(DELTA, DELTA)
    assert redexes(omega) == [EPS]
    assert redexes(Var("x")) == []
    assert redexes(parse_term("(\\x.x) ((\\y.y) z)")) == [EPS, (2,)]


def test_alpha_eq():
    assert alpha_eq(parse_term("\\x. x"), parse_term("\\y. y"))
    assert not alpha_eq(parse_term("\\x. x"), parse_term("\\x. y"))


names = st.sampled_from(["x", "y", "z", "w"])
terms_st = st.recursive(
    names.map(Var),
    lambda sub: st.one_of(
        st.builds(Abs, names, sub),
        st.builds(App, sub, sub),
    ),
    max_leaves=6,
)


def nested_redex(depth: int) -> Term:
    """v (v (... ((\\x. x) u))) with the redex at the given depth, built
    directly."""
    t: Term = App(Abs("x", Var("x")), Var("u"))
    for _ in range(depth):
        t = App(Var("v"), t)
    return t


def test_support_and_redexes_at_depth_2000():
    # support and redexes walk an explicit stack
    t = nested_redex(2000)
    positions = support(t)
    assert len(positions) == 2 * 2000 + 4
    assert (2,) * 2000 + (1, 0) in positions
    assert redexes(t) == [(2,) * 2000]
    # deeper, redexes alone: one walk, no lookup from the root per position
    assert redexes(nested_redex(6000)) == [(2,) * 6000]


DEEP = 10_000


def test_positions_at_depth_10000():
    # results are compared through print_term: `==` on terms recurses
    t, b = nested_redex(DEEP), (2,) * DEEP
    assert print_term(subterm_at(t, b)) == "(\\x. x) u"
    assert print_term(subterm_at(t, (5,) * DEEP + (1,))) == "\\x. x"
    reduced = beta_reduce_at(t, b)
    assert print_term(reduced) == "v (" * (DEEP - 1) + "v u" + ")" * (DEEP - 1)
    assert print_term(beta_reduce_at(t, (3,) * DEEP)) == print_term(reduced)
    chain: Term = Var("u")
    for i in reversed(range(DEEP)):
        chain = Abs(f"x{i}", chain)
    assert binders_above(chain, (0,) * DEEP) == {f"x{i}" for i in range(DEEP)}
    assert binders_above(chain, (0,) * 3) == {"x0", "x1", "x2"}


def deep_term(shape: str) -> tuple[str, Term]:
    """A text nested DEEP times and its term, built directly."""
    if shape == "right application":  # v (v (... (v u)))
        text = "v (" * (DEEP - 1) + "v u" + ")" * (DEEP - 1)
        term: Term = Var("u")
        for _ in range(DEEP):
            term = App(Var("v"), term)
    elif shape == "left application":  # (\x. (\x. (... x) x) x) x
        text = "(\\x. " * DEEP + "x" + ") x" * DEEP
        term = Var("x")
        for _ in range(DEEP):
            term = App(Abs("x", term), Var("x"))
    else:  # \x. x (\x. x (... (\x. x x)))
        text = "\\x. x (" * (DEEP - 1) + "\\x. x x" + ")" * (DEEP - 1)
        term = Var("x")
        for _ in range(DEEP):
            term = Abs("x", App(Var("x"), term))
    return text, term


def same_term(t: Term, u: Term) -> bool:
    """Structural equality by a walk on an explicit stack: `==` on the term
    dataclasses recurses."""
    stack = [(t, u)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            if a.name != b.name:
                return False
        elif isinstance(a, Abs):
            if a.binder != b.binder:
                return False
            stack.append((a.body, b.body))
        else:
            stack += [(a.left, b.left), (a.right, b.right)]
    return True


@pytest.mark.parametrize("shape", ["right application", "left application", "abstraction chain"])
def test_parse_and_print_at_depth_10000(shape):
    text, term = deep_term(shape)
    parsed = parse_term(text)
    assert same_term(parsed, term)
    assert not same_term(parsed, App(Var("v"), Var("u")))
    assert print_term(parsed) == text


def brute_force_redexes(t: Term) -> list:
    """Every support position whose subterm, looked up from the root, is a
    redex, sorted."""
    found = [a for a in support(t) if is_redex(subterm_at(t, a))]
    return sorted(found)


def is_tree(positions: frozenset) -> bool:
    """A support of a term: a frozenset holding EPS and every prefix."""
    return (
        isinstance(positions, frozenset)
        and EPS in positions
        and all(a[:-1] in positions for a in positions if a)
    )


def is_redex(u: Term) -> bool:
    return isinstance(u, App) and isinstance(u.left, Abs)


def test_redexes_match_brute_force_on_samples():
    samples = [
        make_self_app(),
        make_brothers(),
        make_two_choice_redex(),
        make_tracked_redex(),
        make_argument_redex(),
        make_shadowed_redex(),
        make_wide(3),
    ]
    terms = [d.term for d in samples] + [
        parse_term("(\\x. x x) ((\\y. y) ((\\z. z) w))"),
        parse_term("\\f. (\\x. f (x x)) (\\x. f (x x))"),
        parse_term("((\\x y. y x) u) ((\\z. z) v)"),
    ]
    assert sum(map(len, map(redexes, terms))) > 8
    for t in terms:
        assert redexes(t) == brute_force_redexes(t)


@settings(max_examples=80, deadline=None)
@given(terms_st)
def test_redexes_match_brute_force(t):
    assert redexes(t) == brute_force_redexes(t)


@settings(max_examples=80, deadline=None)
@given(terms_st)
def test_support_is_a_tree_and_round_trip(t):
    assert is_tree(support(t))
    assert parse_term(print_term(t)) == t


@settings(max_examples=80, deadline=None)
@given(terms_st)
def test_reduction_properties(t):
    for b in redexes(t):
        reduced = beta_reduce_at(t, b)
        assert is_tree(support(reduced))
        if not free_vars(t):
            assert not free_vars(reduced)
