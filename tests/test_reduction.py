from __future__ import annotations

import time
from collections import Counter
from functools import cached_property

import pytest

from seqtypes.derivations import (
    AbsNode,
    AppNode,
    AxNode,
    CheckedDerivation,
    Derivation,
    check_derivation,
    check_R,
    collapse_derivation,
    format_judgment,
    generate_normal_form_derivations,
    print_type,
)
from seqtypes.corpus import make_tower, reduction_path
from seqtypes.positions import EPS, ZeroOneIso
from seqtypes.reduction import (
    ChoiceError,
    InterfaceError,
    OperableDerivation,
    RChoice,
    ReductionChoice,
    ReductionError,
    build_operable_from_choices,
    collapse_choice,
    default_interface,
    enumerate_r_choices,
    extend_root_interface,
    hybridize,
    interfaces_at,
    make_operable,
    realize_r_choice,
    reduce_operable,
    reduce_R,
    reduce_S,
    reduce_Sh,
    residual_maps,
    root_interfaces_at,
)
from seqtypes.stypes import SArrow, SAtom, check_type_iso, equiv, seq
from seqtypes.terms import parse_term, redexes

import reference_judgment_isos as ref_isos
from samples import (
    make_argument_redex,
    make_brothers,
    make_equal_typed,
    make_self_app,
    make_shadowed_redex,
    make_tracked_redex,
    make_two_choice_redex,
)
from test_reduction_differential import count_fires

O = SAtom("o")
A = SAtom("A")


def sequent(checked):
    j = checked.conclusion()
    ctx = ", ".join(f"{x}:{print_type(f)}" for x, f in j.context.entries)
    return (ctx, print_type(j.stype))


def make_identity_redex():
    # (\x. x) y with the argument on track 3
    term = parse_term("(\\x. x) y")
    nodes = {
        EPS: AppNode(frozenset({3})),
        (1,): AbsNode(),
        (1, 0): AxNode(3, O),
        (3,): AxNode(6, O),
    }
    return Derivation(term, "S", nodes)


def test_reduce_S_identity_redex():
    checked = check_derivation(make_identity_redex())
    before = sequent(checked)
    reduced = reduce_S(checked, EPS)
    assert sequent(reduced) == before
    assert reduced.term == parse_term("y")
    assert format_judgment(reduced.conclusion()) == "y:(6:o) |- y : o"


def test_reduce_S_erasing_redex():
    # (\x. y) z with the argument untyped (K = {}) and no axioms of x
    term = parse_term("(\\x. y) z")
    nodes = {
        EPS: AppNode(frozenset()),
        (1,): AbsNode(),
        (1, 0): AxNode(4, O),
    }
    checked = check_derivation(Derivation(term, "S", nodes))
    reduced = reduce_S(checked, EPS)
    assert sequent(reduced) == sequent(checked)
    assert reduced.term == parse_term("y")


def test_reduce_S_untyped_redex():
    # the redex sits in an untyped argument: only the subject changes
    term = parse_term("(\\x. y) ((\\z. z) w)")
    nodes = {
        EPS: AppNode(frozenset()),
        (1,): AbsNode(),
        (1, 0): AxNode(4, O),
    }
    checked = check_derivation(Derivation(term, "S", nodes))
    reduced = reduce_S(checked, (2,))
    assert reduced.term == parse_term("(\\x. y) w")
    assert reduced.nodes == nodes
    assert sequent(reduced) == sequent(checked)


def test_residual_positions_tracked_redex():
    checked = check_derivation(make_tracked_redex())
    rho = {EPS: {2: 8, 7: 5}}
    maps = residual_maps(checked, EPS, rho)
    assert maps.ax_pos[EPS] == {2: (1, 0, 4), 7: (1, 0, 1, 6)}
    # paradigm club: the argument on track 8 replaces the axiom with track 2
    assert maps.res[(8,)] == (4,)
    assert maps.res[(5,)] == (1, 6)
    # paradigm heart: judgments nested in the body lose the prefix 1.0
    assert maps.res[(1, 0, 1, 1)] == (1, 1)
    assert maps.res[(1, 0, 1)] == (1,)
    assert maps.res[(1, 0)] == EPS
    # the redex application, abstraction and variable axioms have no residual
    for dead in (EPS, (1,), (1, 0, 4), (1, 0, 1, 6)):
        assert dead not in maps.res
    assert maps.qres[EPS] == EPS
    assert maps.qres[(1, 0, 4)] == (4,)
    assert maps.qres[(1, 0, 1, 6)] == (1, 6)


def test_reduce_Sh_tracked_redex():
    checked = check_derivation(make_tracked_redex())
    before = sequent(checked)
    choice = ReductionChoice(EPS, {EPS: {2: 8, 7: 5}})
    reduced = reduce_Sh(checked, EPS, choice)
    assert reduced.term == parse_term("(f y) y")
    assert sequent(reduced)[0] == before[0]
    assert equiv(reduced.conclusion().stype, checked.conclusion().stype)


def test_reduce_Sh_brothers():
    checked = check_derivation(make_brothers())
    b = (1, 1)
    for rho in root_interfaces_at(checked, (1, 1)):
        choice = ReductionChoice(b, {(1, 1): rho})
        reduced = reduce_Sh(checked, b, choice)
        assert equiv(reduced.conclusion().stype, checked.conclusion().stype)
        assert reduced.conclusion().context == checked.conclusion().context


def test_interface_counts_brothers():
    checked = check_derivation(make_brothers())
    assert len(interfaces_at(checked, (1,))) == 2
    assert len(interfaces_at(checked, EPS)) == 2
    assert len(interfaces_at(checked, (1, 6))) == 1
    assert interfaces_at(checked, (1, 6))[0].mapping == {}


def test_extend_root_interface():
    checked = check_derivation(make_brothers())
    phi = extend_root_interface(checked, EPS, {8: 3, 9: 5})
    assert phi.mapping == {(8,): (3,), (9,): (5,)}
    assert check_type_iso(checked.left_seq(EPS), checked.right_seq(EPS), phi)


@pytest.mark.parametrize(
    "rho",
    [
        {2: 2},  # the left track 3 is missing
        {2: 2, 3: 7},  # the node has no right track 7
        {2: 2, 3: 2},  # two left tracks share an image
        {2: 2, 3: 3, 4: 4},  # the node has no left track 4
    ],
)
def test_extend_root_interface_rejects_a_malformed_root_mapping(rho):
    checked = check_derivation(make_equal_typed(2))
    with pytest.raises(ChoiceError, match="at eps is not a bijection") as info:
        extend_root_interface(checked, EPS, rho)
    assert info.value.position == EPS


def test_reduce_operable_trivial_matches_reduce_S():
    checked = check_derivation(make_identity_redex())
    op = make_operable(checked)
    reduced_op, _, _ = reduce_operable(op, EPS)
    plain = reduce_S(checked, EPS)
    assert reduced_op.checked.derivation.nodes == plain.derivation.nodes
    assert reduced_op.checked.term == plain.term


def test_residual_interface_is_bijection_onto_reduct_interfaces():
    checked = check_derivation(make_two_choice_redex())
    for phi_eps in interfaces_at(checked, EPS):
        op = make_operable(checked, {EPS: phi_eps})
        reduced_op, maps, types = reduce_operable(op, EPS)
        for alpha in checked.app_positions():
            if alpha == EPS:
                continue
            alpha2 = maps.res[alpha]
            image = {types.conjugate(alpha, phi).key() for phi in interfaces_at(checked, alpha)}
            target = {phi.key() for phi in interfaces_at(reduced_op.checked, alpha2)}
            assert image == target


def test_commutation_on_two_choice_redex():
    checked = check_derivation(make_two_choice_redex())
    collapsed = collapse_derivation(checked)
    reducts = set()
    for rho in root_interfaces_at(checked, EPS):
        reduced = reduce_Sh(checked, EPS, ReductionChoice(EPS, {EPS: rho}))
        rchoice = collapse_choice(checked, EPS, {EPS: rho})
        expected = reduce_R(collapsed, EPS, rchoice)
        assert collapse_derivation(reduced) == expected
        reducts.add(expected)
    assert len(reducts) == 2  # the two reduction choices give distinct collapses


def test_enumerate_r_choices_and_six_reducts():
    # three axiom occurrences of x, all typed o, facing three distinct premises
    term = parse_term("(\\x. ((f x) x) x) (g w)")
    d1 = {
        (2,): AppNode(frozenset({4})),
        (2, 1): AxNode(12, SArrow(seq({4: O}), O)),
        (2, 4): AxNode(13, O),
    }
    d2 = {
        (3,): AppNode(frozenset()),
        (3, 1): AxNode(14, SArrow(seq({}), O)),
    }
    d3 = {
        (4,): AppNode(frozenset({4, 5})),
        (4, 1): AxNode(15, SArrow(seq({4: O, 5: O}), O)),
        (4, 4): AxNode(16, O),
        (4, 5): AxNode(17, O),
    }
    nodes = {
        EPS: AppNode(frozenset({2, 3, 4})),
        (1,): AbsNode(),
        (1, 0): AppNode(frozenset({6})),
        (1, 0, 6): AxNode(2, O),
        (1, 0, 1): AppNode(frozenset({7})),
        (1, 0, 1, 7): AxNode(3, O),
        (1, 0, 1, 1): AppNode(frozenset({8})),
        (1, 0, 1, 1, 8): AxNode(4, O),
        (1, 0, 1, 1, 1): AxNode(
            5, SArrow(seq({8: O}), SArrow(seq({7: O}), SArrow(seq({6: O}), A)))
        ),
        **d1,
        **d2,
        **d3,
    }
    checked = check_derivation(Derivation(term, "Sh", nodes))
    collapsed = collapse_derivation(checked)
    choices = enumerate_r_choices(collapsed, EPS)
    assert len(choices) == 6
    reducts = {reduce_R(collapsed, EPS, ch) for ch in choices}
    assert len(reducts) == 6
    for rd in reducts:
        check_R(rd)


def test_reduce_R_rejects_bad_choice():
    checked = check_derivation(make_two_choice_redex())
    collapsed = collapse_derivation(checked)
    good = enumerate_r_choices(collapsed, EPS)[0]
    (path, assignment), = good.assignments.items()
    swapped = {p: (5 - j) for p, j in assignment.items()}
    bad_keys = {p + (0,): j for p, j in assignment.items()}
    with pytest.raises(ChoiceError, match="choice at eps does not cover the axioms of 'x'"):
        reduce_R(collapsed, EPS, type(good)(EPS, {path: bad_keys}))
    # swapping is fine here (types agree); a non-bijection is not
    reduce_R(collapsed, EPS, type(good)(EPS, {path: swapped}))
    not_bijective = dict(assignment)
    not_bijective[next(iter(assignment))] = 5
    with pytest.raises(ChoiceError):
        reduce_R(collapsed, EPS, type(good)(EPS, {path: not_bijective}))


def test_hybridize_round_trip():
    for deriv in (make_self_app(), make_two_choice_redex(), make_brothers()):
        checked = check_derivation(deriv)
        collapsed = collapse_derivation(checked)
        hybrid = hybridize(collapsed)
        rechecked = check_derivation(hybrid)
        assert collapse_derivation(rechecked) == collapsed


def test_hybridize_axiom():
    deriv = Derivation(parse_term("x"), "S", {EPS: AxNode(5, O)})
    collapsed = collapse_derivation(check_derivation(deriv))
    hybrid = hybridize(collapsed)
    node = hybrid.nodes[EPS]
    assert isinstance(node, AxNode) and node.track == 2


def test_hybridize_rebuilds_an_axiom_type_2000_deep():
    # the recursive rebuild raised RecursionError at depth 500; the check
    # compares S-types, whose == walks an explicit stack
    t = O
    for i in range(2000):
        t = SArrow(seq({2: t}), O) if i % 2 else SArrow(seq({2: O}), t)
    deriv = Derivation(parse_term("v"), "S", {EPS: AxNode(2, t)})
    assert hybridize(collapse_derivation(check_derivation(deriv))).nodes[EPS] == AxNode(2, t)


def test_build_operable_from_choices_length_zero():
    checked = check_derivation(make_two_choice_redex())
    collapsed = collapse_derivation(checked)
    op = build_operable_from_choices(collapsed, checked, [])
    for a in checked.app_positions():
        assert op.interface[a].key() == default_interface(checked, a).key()


def test_build_operable_from_choices_reproduces_each_choice():
    checked = check_derivation(make_two_choice_redex())
    collapsed = collapse_derivation(checked)
    for rchoice in enumerate_r_choices(collapsed, EPS):
        expected = reduce_R(collapsed, EPS, rchoice)
        op = build_operable_from_choices(collapsed, checked, [(EPS, rchoice)])
        reduced_op, _, _ = reduce_operable(op, EPS)
        assert collapse_derivation(reduced_op.checked) == expected


def count_computations(monkeypatch, name: str) -> Counter:
    """Count, per checked derivation, the computations of one of its cached
    properties."""
    computed = Counter()
    compute = CheckedDerivation.__dict__[name].func

    def counting(self):
        computed[id(self)] += 1
        return compute(self)

    prop = cached_property(counting)
    prop.__set_name__(CheckedDerivation, name)
    monkeypatch.setattr(CheckedDerivation, name, prop)
    return computed


def two_step_tower() -> tuple:
    """A redex tower of height 2, the first R-choice at each of its two
    steps, and the `reduce_R` chain they give."""
    body = generate_normal_form_derivations(parse_term("x w"))[0]
    checked = make_tower(body, 2)
    rd = collapse_derivation(checked)
    sequence, chain = [], []
    for _ in range(2):
        (b,) = redexes(rd.term)
        choice = enumerate_r_choices(rd, b)[0]
        sequence.append((b, choice))
        rd = reduce_R(rd, b, choice)
        chain.append(rd)
    return checked, sequence, chain


def test_build_operable_collapses_each_derivation_once(monkeypatch):
    """A two-step sequence on a redex tower: the base and the intermediate
    derivation are each collapsed once, for both the consistency check and
    the realized choice."""
    computed = count_computations(monkeypatch, "collapse")
    checked, sequence, _ = two_step_tower()
    build_operable_from_choices(collapse_derivation(checked), checked, sequence)
    assert len(computed) == 2 and set(computed.values()) == {1}


def test_a_built_replay_collapses_each_derivation_once(monkeypatch):
    """A two-step sequence on a redex tower, built and then replayed with a
    collapse after each step: the replay's first step is the reduct the
    builder fired, so the base, the intermediate and the last reduct are
    each collapsed once."""
    computed = count_computations(monkeypatch, "collapse")
    checked, sequence, chain = two_step_tower()
    op = build_operable_from_choices(collapse_derivation(checked), checked, sequence)
    for (b, _), expected in zip(sequence, chain):
        op, _, _ = reduce_operable(op, b)
        assert collapse_derivation(op.checked) == expected
    assert len(computed) == 3 and set(computed.values()) == {1}


def test_reduction_paths_are_built_and_replayed_along_the_chain(monkeypatch):
    """Root reduction paths of n = 4 to 32 steps: the builder realizes the
    whole path as the chained reference builder does, each replayed reduct
    collapses onto the `reduce_R` chain, and the replay fires one step, the
    last; all within a fixed budget."""
    fired = count_fires(monkeypatch)
    start = time.monotonic()
    for n in (4, 8, 16, 32):
        checked, sequence, chain = reduction_path(7, n)
        assert len(sequence) == len(chain) == n
        rd = collapse_derivation(checked)
        op = build_operable_from_choices(rd, checked, sequence)
        assert op.interface == ref_isos.build_operable_from_choices(rd, checked, sequence).interface
        fired.clear()
        for (b, _), expected in zip(sequence, chain):
            op, _, _ = reduce_operable(op, b)
            assert collapse_derivation(op.checked) == expected
        assert len(fired) == 1
    assert len(checked.nodes) == 100
    assert time.monotonic() - start < 10.0


def test_one_step_finds_the_nodes_over_the_redex_with_one_scan(monkeypatch):
    # apps_over is the one scan that finds the nodes over a term position
    computed = count_computations(monkeypatch, "apps_over")
    body = generate_normal_form_derivations(parse_term("x w"))[0]
    checked = make_tower(body, 2)
    op = make_operable(checked)
    (b,) = redexes(checked.term)
    reduce_operable(op, b)
    assert computed == {id(checked): 1}
    # a two-step choice sequence scans the base and the intermediate derivation once each
    computed.clear()
    checked, sequence, _ = two_step_tower()
    build_operable_from_choices(collapse_derivation(checked), checked, sequence)
    assert len(computed) == 2 and set(computed.values()) == {1}


def test_off_term_position_is_no_redex():
    # both terms are applications at the root, so position 0 is off the term
    s_checked = check_derivation(make_identity_redex())
    checked = check_derivation(make_two_choice_redex())
    collapsed = collapse_derivation(checked)
    rchoice = enumerate_r_choices(collapsed, EPS)[0]
    off = (0,)
    attempts = [
        lambda: reduce_S(s_checked, off),
        lambda: reduce_Sh(checked, off, ReductionChoice(off, {})),
        lambda: reduce_operable(make_operable(checked), off),
        lambda: residual_maps(checked, off, {}),
        lambda: enumerate_r_choices(collapsed, off),
        lambda: reduce_R(collapsed, off, RChoice(off, {})),
        lambda: realize_r_choice(checked, off, rchoice),
    ]
    for attempt in attempts:
        with pytest.raises(ReductionError, match="no redex at 0"):
            attempt()


def test_derivation_position_is_no_term_position():
    # the redex of v ((\x. x) u) is at term position 2, derivation position 3
    checked = check_derivation(make_argument_redex())
    collapsed = collapse_derivation(checked)
    assert reduce_S(checked, (2,)).term == parse_term("v u")
    rchoice = enumerate_r_choices(collapsed, (2,))[0]
    identity = {(3,): {2: 2}}
    b = (3,)
    attempts = [
        lambda: reduce_S(checked, b),
        lambda: reduce_Sh(checked, b, ReductionChoice(b, identity)),
        lambda: reduce_operable(make_operable(checked), b),
        lambda: residual_maps(checked, b, identity),
        lambda: collapse_choice(checked, b, identity),
        lambda: enumerate_r_choices(collapsed, b),
        lambda: reduce_R(collapsed, b, RChoice(b, rchoice.assignments)),
        lambda: realize_r_choice(checked, b, RChoice(b, rchoice.assignments)),
        lambda: build_operable_from_choices(collapsed, checked, [(b, rchoice)]),
    ]
    for attempt in attempts:
        with pytest.raises(ReductionError, match="3 is not a term position"):
            attempt()


def test_choice_to_a_missing_premise_is_a_choice_error():
    checked = check_derivation(make_two_choice_redex())
    collapsed = collapse_derivation(checked)
    good = enumerate_r_choices(collapsed, EPS)[0]
    ((path, assignment),) = good.assignments.items()
    bad = RChoice(EPS, {path: {**assignment, next(iter(assignment)): 99}})
    with pytest.raises(ChoiceError, match="at eps to premise 99"):
        realize_r_choice(checked, EPS, bad)
    with pytest.raises(ChoiceError, match="at eps to premise 99"):
        build_operable_from_choices(collapsed, checked, [(EPS, bad)])
    with pytest.raises(ChoiceError):
        reduce_R(collapsed, EPS, bad)


def test_a_non_bijective_choice_is_a_choice_error():
    """Both axioms sent to one premise: the builder rejects the choice as
    `reduce_R` does, before an interface is built from it."""
    checked = check_derivation(make_two_choice_redex())
    collapsed = collapse_derivation(checked)
    ((path, assignment),) = enumerate_r_choices(collapsed, EPS)[0].assignments.items()
    bad = RChoice(EPS, {path: dict.fromkeys(assignment, next(iter(assignment.values())))})
    attempts = [
        lambda: reduce_R(collapsed, EPS, bad),
        lambda: realize_r_choice(checked, EPS, bad),
        lambda: build_operable_from_choices(collapsed, checked, [(EPS, bad)]),
    ]
    message = "^choice at eps is not a bijection onto the premises$"
    for attempt in attempts:
        with pytest.raises(ChoiceError, match=message):
            attempt()


def test_build_operable_rejects_wrong_collapse():
    checked = check_derivation(make_two_choice_redex())
    other = collapse_derivation(check_derivation(make_self_app()))
    with pytest.raises(ChoiceError):
        build_operable_from_choices(other, checked, [])


def test_realize_round_trip():
    checked = check_derivation(make_two_choice_redex())
    for rho in root_interfaces_at(checked, EPS):
        rchoice = collapse_choice(checked, EPS, {EPS: rho})
        back = realize_r_choice(checked, EPS, rchoice)
        assert back == {EPS: rho}


def test_reduce_operable_is_deterministic():
    from seqtypes.derivations import dumps_derivation

    checked = check_derivation(make_two_choice_redex())
    phi = interfaces_at(checked, EPS)[1]
    runs = []
    for _ in range(2):
        op = make_operable(checked, {EPS: phi})
        new_op, _, _ = reduce_operable(op, EPS)
        interface_dump = sorted(
            (a, iso.key()) for a, iso in new_op.interface.items()
        )
        runs.append((dumps_derivation(new_op.checked.derivation), interface_dump))
    assert runs[0] == runs[1]


def test_reduce_S_respects_shadowing():
    # only the head axiom belongs to the redex variable; the inner axiom is
    # bound by the inner abstraction and must survive
    checked = check_derivation(make_shadowed_redex())
    head_type = checked.node((5,)).stype
    assert checked.bound_by((1,)) == {5: (1, 0, 1)}
    reduced = reduce_S(checked, EPS)
    assert reduced.term == parse_term("v (\\x. x)")
    assert sequent(reduced) == sequent(checked)
    assert isinstance(reduced.node((2, 0)), AxNode)
    assert reduced.node((1,)) == AxNode(7, head_type)


def test_interface_errors_name_their_node():
    checked = check_derivation(make_equal_typed(3))
    least = make_operable(checked).interface[EPS]
    swap = ZeroOneIso({(2,): (3,), (3,): (2,), (4,): (5,)})
    cases = [
        ({EPS: least, (1,): least}, (1,), "at 1: not an application node"),
        ({}, EPS, "at eps: the application node has none"),
        ({EPS: swap}, EPS, "at eps: it does not map the left sequence type onto the right one"),
        ({EPS: ZeroOneIso({(2,): (2,)})}, EPS, "at eps: mapping domain differs"),
    ]
    for interface, position, message in cases:
        with pytest.raises(InterfaceError, match=message) as exc:
            OperableDerivation(checked, interface)
        assert exc.value.position == position
        if interface:
            # make_operable checks every entry it is given
            with pytest.raises(InterfaceError, match=message):
                make_operable(checked, interface)
