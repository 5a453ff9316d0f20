"""Differential test: `free_vars` and `substitute`, which run on explicit
stacks, against their recursive versions (`reference_terms`), and
`alpha_eq`, a lockstep walk, against equality of the reference's
`alpha_key`s.

They are compared on every term of the acceptance corpus and its redexes,
and on hypothesis terms over few names, where substitution captures and
renames binders often.  Outputs must be equal, binder names included.
`alpha_eq` is compared on pairs of such terms, on alpha-variants (every
binder renamed) and on near misses (one variable renamed).  Deeper than
the recursive versions reach, the results are checked against terms built
directly.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from seqtypes.corpus import sr_corpus
from seqtypes.terms import (
    Abs,
    App,
    Term,
    Var,
    alpha_eq,
    free_vars,
    preorder,
    print_term,
    redexes,
    subterm_at,
    substitute,
)

import reference_terms as ref

CORPUS_SEED = 20250809

names = st.sampled_from(["x", "y", "x1", "y1", "z"])
terms_st = st.recursive(
    names.map(Var),
    lambda sub: st.one_of(st.builds(Abs, names, sub), st.builds(App, sub, sub)),
    max_leaves=12,
)


def assert_same(t: Term, x: str, s: Term) -> bool:
    """Compare the two functions on t, and t[s/x]; returns whether the
    substitution renamed a binder."""
    assert free_vars(t) == ref.free_vars(t)
    out = substitute(t, x, s)
    assert out == ref.substitute(t, x, s), (print_term(t), x, print_term(s))
    binders = [u.binder for _, u in preorder(t) if isinstance(u, Abs)]
    return binders != [u.binder for _, u in preorder(out) if isinstance(u, Abs)]


def variant(t: Term, rng: random.Random, miss: bool = False) -> Term:
    """A new object for t with every binder renamed to a fresh name, an
    alpha-variant; with `miss`, one variable, drawn by rng, also gets a name
    no binder or free variable has, so the result is not alpha-equivalent.
    Recursive: the terms are small."""
    occurrences = [a for a, u in preorder(t) if isinstance(u, Var)]
    missed = rng.choice(occurrences) if miss else None

    def go(u: Term, a: tuple, env: dict[str, str]) -> Term:
        if isinstance(u, Var):
            return Var("missed" if a == missed else env.get(u.name, u.name))
        if isinstance(u, Abs):
            fresh = f"b{len(env)}_{rng.randrange(10**6)}"
            return Abs(fresh, go(u.body, a + (0,), {**env, u.binder: fresh}))
        return App(go(u.left, a + (1,), env), go(u.right, a + (2,), env))

    return go(t, (), {})


def assert_same_alpha_eq(t: Term, u: Term) -> bool:
    """`alpha_eq` against equal keys, both ways; returns the verdict."""
    want = ref.alpha_key(t) == ref.alpha_key(u)
    assert alpha_eq(t, u) == want and alpha_eq(u, t) == want, (print_term(t), print_term(u))
    return want


def test_alpha_eq_matches_equal_keys_on_the_corpus():
    """Each corpus term and redex against an alpha-variant, a near miss and
    the term or redex before it."""
    rng = random.Random(CORPUS_SEED)
    equal = count = 0
    previous: Term = Var("x")
    for checked in sr_corpus(CORPUS_SEED, 500, size=7, width=2):
        t = checked.term
        for u in [t] + [subterm_at(t, b) for b in redexes(t)]:
            assert assert_same_alpha_eq(u, variant(u, rng))
            assert not assert_same_alpha_eq(u, variant(u, rng, miss=True))
            equal += assert_same_alpha_eq(previous, u)
            previous = u
            count += 1
    assert count > 500 and equal > 0


@settings(max_examples=400)
@given(terms_st, terms_st, st.integers(0, 2**16))
def test_alpha_eq_matches_equal_keys_on_hypothesis_terms(t, u, seed):
    rng = random.Random(seed)
    assert_same_alpha_eq(t, u)
    assert assert_same_alpha_eq(t, variant(t, rng))
    assert not assert_same_alpha_eq(t, variant(t, rng, miss=True))


def test_corpus_terms_and_redexes_match_the_recursive_versions():
    renamed = count = 0
    for checked in sr_corpus(CORPUS_SEED, 500, size=7, width=2):
        t = checked.term
        for _, u in preorder(t):
            if isinstance(u, Abs):
                # the body under its own binder, and under every free variable
                for x in sorted(free_vars(u.body) | {u.binder}):
                    renamed += assert_same(u.body, x, Var(u.binder))
                    count += 1
        for b in redexes(t):
            r = subterm_at(t, b)
            renamed += assert_same(r.left.body, r.left.binder, r.right)
            count += 1
    assert count > 1000 and renamed > 0


@settings(max_examples=400)
@given(terms_st, names, terms_st)
def test_hypothesis_terms_match_the_recursive_versions(t, x, s):
    assert_same(t, x, s)


def test_a_capture_renames_the_binder():
    # \y. x y with y y1 for x renames y to y2
    t = Abs("y", App(Var("x"), Var("y")))
    assert assert_same(t, "x", App(Var("y"), Var("y1")))
    assert print_term(substitute(t, "x", App(Var("y"), Var("y1")))) == "\\y2. y y1 y2"


DEEP = 10_000


def test_the_functions_at_depth_10000():
    # \x0. \x1. ... (x0 (x1 (... w))): every variable bound at its own depth
    body: Term = Var("w")
    for i in reversed(range(DEEP)):
        body = App(Var(f"x{i}"), body)
    t: Term = body
    for i in reversed(range(DEEP)):
        t = Abs(f"x{i}", t)
    assert free_vars(t) == {"w"}
    assert free_vars(body) == {"w"} | {f"x{i}" for i in range(DEEP)}
    assert alpha_eq(t, t)
    # the innermost variable replaced, under every binder, with no capture
    out = substitute(t, "w", Var("u"))
    assert print_term(out) == print_term(t)[: -len("w" + ")" * (DEEP - 1))] + "u" + ")" * (DEEP - 1)
    # capture: w replaced by x0 renames the outermost binder, and the
    # renamed binder's variable follows it all the way down
    renamed = substitute(Abs("x0", body), "w", Var("x0"))
    assert print_term(renamed).startswith("\\x01. x01 (x1 (x2 (")
    assert print_term(renamed).endswith("x9999 x0" + ")" * (DEEP - 1))


def test_alpha_eq_on_two_terms_10000_deep():
    """Two objects for one term, and an alpha-variant and a near miss, each
    built separately: \\x0. ... \\x9999. v (v (... (x0 u)))."""

    def deep(binder: str, last: str) -> Term:
        t: Term = App(Var(f"{binder}0"), Var(last))
        for _ in range(DEEP):
            t = App(Var("v"), t)
        for i in reversed(range(DEEP)):
            t = Abs(f"{binder}{i}", t)
        return t

    t = deep("x", "u")
    assert alpha_eq(t, deep("x", "u"))
    assert alpha_eq(t, deep("y", "u"))
    assert not alpha_eq(t, deep("x", "w"))
    assert not alpha_eq(t, Abs("x0", deep("x", "u")))
