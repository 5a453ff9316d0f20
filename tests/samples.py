"""Small hand-built derivations shared across the test suite."""

from __future__ import annotations

import itertools

from seqtypes.derivations import (
    AbsNode,
    AppNode,
    AxNode,
    Derivation,
    RAbsD,
    RAxD,
    RDerivation,
    check_derivation,
    rapp,
)
from seqtypes.positions import EPS, ZeroOneIso
from seqtypes.reduction import OperableDerivation
from seqtypes.stypes import RAtom, SArrow, SAtom, parse_type, seq
from seqtypes.terms import App, Var, parse_term

O = SAtom("o")
OP = SAtom("o'")
A = SAtom("A")

S_INNER = SArrow(seq({8: O, 3: OP, 2: O}), OP)


def make_self_app() -> Derivation:
    """A derivation of \\x. x x with argument tracks 2, 3, 8."""
    term = parse_term("\\x. x x")
    nodes = {
        EPS: AbsNode(),
        (0,): AppNode(frozenset({2, 3, 8})),
        (0, 1): AxNode(4, S_INNER),
        (0, 2): AxNode(9, O),
        (0, 3): AxNode(2, OP),
        (0, 8): AxNode(5, O),
    }
    return Derivation(term, "S", nodes)


SELF_APP_COLLAPSE = RDerivation(
    parse_term("\\x. x x"),
    RAbsD(
        rapp(
            RAxD(S_INNER.collapse),
            [RAxD(RAtom("o")), RAxD(RAtom("o'")), RAxD(RAtom("o"))],
        )
    ),
)


def make_brothers() -> Derivation:
    """A derivation of (((\\y x. x y) z) (a x)) b with two brother threads
    labelled 8 and 9 running through it."""
    term = parse_term("(((\\y x. x y) z) (a x)) b")
    sx = parse_type("(8:o) -> (8:o, 9:o) -> o'")
    sa = parse_type("() -> (3:o) -> (2:o, 7:o) -> o'")
    nodes = {
        EPS: AppNode(frozenset({3, 5})),
        (3,): AxNode(4, O),
        (5,): AxNode(9, O),
        (1,): AppNode(frozenset({6})),
        (1, 6): AppNode(frozenset()),
        (1, 6, 1): AxNode(2, sa),
        (1, 1): AppNode(frozenset({3})),
        (1, 1, 3): AxNode(4, O),
        (1, 1, 1): AbsNode(),
        (1, 1, 1, 0): AbsNode(),
        (1, 1, 1, 0, 0): AppNode(frozenset({2})),
        (1, 1, 1, 0, 0, 1): AxNode(5, sx),
        (1, 1, 1, 0, 0, 2): AxNode(3, O),
    }
    return Derivation(term, "Sh", nodes)


def brothers_operable() -> OperableDerivation:
    """The brother-threads derivation with interfaces 8 -> 3, 9 -> 5 at the
    root and, inside the nested application, the inner 8 -> 2 and 9 -> 7."""
    checked = check_derivation(make_brothers())
    interface = {
        EPS: ZeroOneIso({(8,): (3,), (9,): (5,)}),
        (1,): ZeroOneIso(
            {
                (5,): (6,),
                (5, 8): (6, 3),
                (5, 1): (6, 1),
                (5, 1, 8): (6, 1, 2),
                (5, 1, 9): (6, 1, 7),
                (5, 1, 1): (6, 1, 1),
            }
        ),
        (1, 1): ZeroOneIso({(3,): (3,)}),
        (1, 6): ZeroOneIso({}),
        (1, 1, 1, 0, 0): ZeroOneIso({(8,): (2,)}),
    }
    return OperableDerivation(checked, interface)


def make_two_choice_redex() -> Derivation:
    """(\\x. (f x) x) (g w): the redex variable typed twice with o, the two
    argument premises distinct but collapse-equal."""
    term = parse_term("(\\x. (f x) x) (g w)")
    d_width1 = {
        (2,): AppNode(frozenset({4})),
        (2, 1): AxNode(6, SArrow(seq({4: O}), O)),
        (2, 4): AxNode(8, O),
    }
    d_width0 = {
        (3,): AppNode(frozenset()),
        (3, 1): AxNode(9, SArrow(seq({}), O)),
    }
    nodes = {
        EPS: AppNode(frozenset({2, 3})),
        (1,): AbsNode(),
        (1, 0): AppNode(frozenset({3})),
        (1, 0, 3): AxNode(7, O),
        (1, 0, 1): AppNode(frozenset({2})),
        (1, 0, 1, 2): AxNode(2, O),
        (1, 0, 1, 1): AxNode(5, SArrow(seq({2: O}), SArrow(seq({3: O}), A))),
        **d_width1,
        **d_width0,
    }
    return Derivation(term, "Sh", nodes)


def make_tracked_redex() -> Derivation:
    """Redex variable on axiom tracks {2, 7}, arguments on tracks {5, 8}."""
    term = parse_term("(\\x. (f x) x) y")
    nodes = {
        EPS: AppNode(frozenset({5, 8})),
        (1,): AbsNode(),
        (1, 0): AppNode(frozenset({4})),
        (1, 0, 4): AxNode(2, O),
        (1, 0, 1): AppNode(frozenset({6})),
        (1, 0, 1, 6): AxNode(7, O),
        (1, 0, 1, 1): AxNode(10, SArrow(seq({6: O}), SArrow(seq({4: O}), A))),
        (5,): AxNode(11, O),
        (8,): AxNode(12, O),
    }
    return Derivation(term, "Sh", nodes)


def make_argument_redex() -> Derivation:
    """v ((\\x. x) u) with the redex on track 3: at term position 2 and
    derivation position 3."""
    nodes = {
        EPS: AppNode(frozenset({3})),
        (1,): AxNode(4, SArrow(seq({3: O}), O)),
        (3,): AppNode(frozenset({2})),
        (3, 1): AbsNode(),
        (3, 1, 0): AxNode(2, O),
        (3, 2): AxNode(5, O),
    }
    return Derivation(parse_term("v ((\\x. x) u)"), "S", nodes)


def make_shadowed_redex() -> Derivation:
    """(\\x. x (\\x. x)) v: the inner abstraction rebinds the redex variable,
    so only the head axiom belongs to the redex."""
    head_type = parse_type("(2:(3:B) -> B) -> A")
    nodes = {
        EPS: AppNode(frozenset({5})),
        (1,): AbsNode(),
        (1, 0): AppNode(frozenset({2})),
        (1, 0, 1): AxNode(5, head_type),
        (1, 0, 2): AbsNode(),
        (1, 0, 2, 0): AxNode(3, SAtom("B")),
        (5,): AxNode(7, head_type),
    }
    return Derivation(parse_term("(\\x. x (\\x. x)) v"), "S", nodes)


def make_bound_then_free() -> Derivation:
    """(\\x. x) x: one name bound in the head and free in the argument."""
    arrow = parse_type("(4:p) -> o")
    nodes = {
        EPS: AppNode(frozenset({2})),
        (1,): AbsNode(),
        (1, 0): AxNode(2, arrow),
        (2,): AxNode(5, arrow),
    }
    return Derivation(parse_term("(\\x. x) x"), "S", nodes)


def make_free_then_bound() -> Derivation:
    """x (\\x. x): one name free in the head and bound in the argument."""
    nodes = {
        EPS: AppNode(frozenset({2})),
        (1,): AxNode(5, parse_type("(2:(3:B) -> B) -> A")),
        (2,): AbsNode(),
        (2, 0): AxNode(3, SAtom("B")),
    }
    return Derivation(parse_term("x (\\x. x)"), "S", nodes)


def make_nested(n: int) -> Derivation:
    """v (v (... u)), n applications deep, each v on its own track: the
    context entry of v holds n - d axioms at depth d, so a derivation with
    every context written out holds about n^2 left edges."""
    o = SAtom("o")
    v_type = SArrow(seq({2: o}), o)
    term, nodes = Var("u"), {(2,) * n: AxNode(2, o)}
    for i in range(n):
        term = App(Var("v"), term)
        nodes[(2,) * i] = AppNode(frozenset({2}))
        nodes[(2,) * i + (1,)] = AxNode(i + 2, v_type)
    return Derivation(term, "S", nodes)


def make_wide(m: int) -> Derivation:
    """The flavor-S derivation of v (w u)^m with two copies of every argument
    and two copies of u inside each copy: 9m + 1 nodes, fresh atoms and
    fresh tracks everywhere.  Its edge count grows as m^2."""
    nodes: dict = {}
    tracks = itertools.count(2)
    atoms = (SAtom(f"o{i}") for i in itertools.count(1))
    arg_seqs = []
    for j in range(1, m + 1):
        app = (1,) * (m - j)
        entries = {}
        for _ in range(2):
            copy = app + (next(tracks),)
            inner = {}
            for _ in range(2):
                k = next(tracks)
                inner[k] = next(atoms)
                nodes[copy + (k,)] = AxNode(next(tracks), inner[k])
            entries[copy[-1]] = next(atoms)
            nodes[copy + (1,)] = AxNode(next(tracks), SArrow(seq(inner), entries[copy[-1]]))
            nodes[copy] = AppNode(frozenset(inner))
        nodes[app] = AppNode(frozenset(entries))
        arg_seqs.append(seq(entries))
    head = next(atoms)
    for entries in reversed(arg_seqs):
        head = SArrow(entries, head)
    nodes[(1,) * m] = AxNode(next(tracks), head)
    return Derivation(parse_term("v" + " (w u)" * m), "S", nodes)


def make_equal_typed(k: int) -> Derivation:
    """The flavor-S derivation of v u with k copies of u, every atom o: the
    two sides of the root application are equal and have k! interfaces."""
    args = range(2, 2 + k)
    nodes: dict = {
        EPS: AppNode(frozenset(args)),
        (1,): AxNode(2, SArrow(seq({i: O for i in args}), O)),
    }
    for i in args:
        nodes[(i,)] = AxNode(i, O)
    return Derivation(parse_term("v u"), "S", nodes)
