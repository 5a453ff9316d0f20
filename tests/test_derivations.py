from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from seqtypes.corpus import tower_instances
from seqtypes.derivations import (
    AbsNode,
    AppNode,
    AppMismatch,
    AxNode,
    Context,
    Derivation,
    GenBudget,
    MalformedShape,
    QuantitativityError,
    RAbsD,
    RAppD,
    RAxD,
    RCheckError,
    RDerivation,
    TrackConflict,
    check_derivation,
    check_R,
    collapse_derivation,
    derivation_from_json,
    dumps_derivation,
    format_judgment,
    generate_normal_form_derivations,
    loads_derivation,
)
from seqtypes.positions import EPS
from seqtypes.stypes import (
    RArrow,
    RAtom,
    SArrow,
    SAtom,
    parse_type,
    rarrow,
    seq,
)
from seqtypes.reduction import make_operable, reduce_operable, residual_maps
from seqtypes.terms import App, Var, parse_term, redexes
from seqtypes.threads import NEG, ThreadAnalysis
from seqtypes.trivialize import run_collapsing_strategy, trivialize

from reference_checker import binder_quantitativity_holds, context, lazy_judgments
from reference_isos import support_isos
from reference_json import derivation_to_json
from samples import (
    SELF_APP_COLLAPSE,
    S_INNER,
    brothers_operable,
    make_brothers,
    make_nested,
    make_self_app,
    make_tracked_redex,
    make_wide,
)

O = SAtom("o")
OP = SAtom("o'")


def test_self_app_checks_as_S():
    checked = check_derivation(make_self_app())
    assert format_judgment(checked.conclusion()) == (
        "|- \\x. x x : (2:o', 4:(2:o, 3:o', 8:o) -> o', 5:o, 9:o) -> o'"
    )
    assert checked.support() == frozenset(
        {EPS, (0,), (0, 1), (0, 2), (0, 3), (0, 8)}
    )
    assert binder_quantitativity_holds(checked)


def test_single_axiom_checks():
    deriv = Derivation(parse_term("x"), "S", {EPS: AxNode(5, O)})
    checked = check_derivation(deriv)
    assert format_judgment(checked.conclusion()) == "x:(5:o) |- x : o"


def test_brothers_checks_as_Sh_but_not_S():
    brothers = make_brothers()
    checked = check_derivation(brothers)
    assert checked.left_seq(EPS) == seq({8: O, 9: O})
    assert checked.right_seq(EPS) == seq({3: O, 5: O})
    assert checked.left_seq((1,)) == seq({5: parse_type("(8:o) -> (8:o, 9:o) -> o'")})
    assert checked.right_seq((1,)) == seq({6: parse_type("(3:o) -> (2:o, 7:o) -> o'")})
    assert checked.left_seq((1, 6)) == seq({})
    with pytest.raises(AppMismatch):
        check_derivation(Derivation(brothers.term, "S", brothers.nodes))


def deep_x_u(depth: int, deepest: str = "o") -> Derivation:
    """x u in S, u's type nested `depth` deep, alternately through a source
    and a target.  The two sides of the application are built separately,
    so comparing them cannot stop at a shared object; the argument's
    deepest atom is `deepest`."""

    def build(atom: str) -> SArrow:
        t = SAtom(atom)
        for i in range(depth):
            t = SArrow(seq({2: t}), O) if i % 2 else SArrow(seq({3: O}), t)
        return t

    nodes = {
        EPS: AppNode(frozenset({2})),
        (1,): AxNode(2, SArrow(seq({2: build("o")}), O)),
        (2,): AxNode(2, build(deepest)),
    }
    return Derivation(parse_term("x u"), "S", nodes)


@pytest.mark.parametrize("depth", [300, 10_000])
def test_the_S_rule_compares_deep_sides(depth):
    # the dataclass `!=` raised RecursionError from 300 deep
    assert check_derivation(deep_x_u(depth)).type_at(EPS) == O
    with pytest.raises(AppMismatch) as exc:
        check_derivation(deep_x_u(depth, deepest="p"))
    assert exc.value.position == EPS


def test_the_Sh_rule_compares_deep_sides_up_to_isomorphism():
    assert sys.getrecursionlimit() <= 1000
    nodes = deep_x_u(10_000).nodes
    assert check_derivation(Derivation(parse_term("x u"), "Sh", nodes)).type_at(EPS) == O
    with pytest.raises(AppMismatch):
        check_derivation(Derivation(parse_term("x u"), "Sh", deep_x_u(10_000, "p").nodes))


def nested_collapse(n: int, deepest: str = "o") -> RDerivation:
    """The collapse of `make_nested(n)`, built directly: the rigid
    derivation's positions hold about n^2 letters.  Its deepest axiom's
    type is the atom `deepest`."""
    o = RAtom("o")
    term, root, v = Var("u"), RAxD(RAtom(deepest)), RAxD(rarrow([o], o))
    for _ in range(n):
        term, root = App(Var("v"), term), RAppD(v, (root,))
    return RDerivation(term, root)


def test_collapses_compare_at_any_depth():
    assert nested_collapse(40) == collapse_derivation(check_derivation(make_nested(40)))
    assert sys.getrecursionlimit() <= 1000
    first, second = nested_collapse(10_000), nested_collapse(10_000)
    assert first.root is not second.root
    assert first == second and hash(first) == hash(second)
    assert {first: 1}[second] == 1
    assert first != nested_collapse(10_000, "p") and first != nested_collapse(9_999)


def test_malformed_shapes_detected():
    term = parse_term("\\x. x x")
    with pytest.raises(MalformedShape):
        check_derivation(Derivation(term, "S", {EPS: AbsNode()}))
    with pytest.raises(MalformedShape):
        check_derivation(Derivation(term, "S", {EPS: AxNode(2, O)}))
    nodes = dict(make_self_app().nodes)
    nodes[(0, 1)] = AxNode(1, S_INNER)
    with pytest.raises(MalformedShape):
        check_derivation(Derivation(term, "S", nodes))


def test_track_conflict_detected():
    # both axioms of x use track 4, so the contexts cannot merge
    term = parse_term("\\x. x x")
    nodes = {
        EPS: AbsNode(),
        (0,): AppNode(frozenset({2})),
        (0, 1): AxNode(4, SArrow(seq({2: O}), OP)),
        (0, 2): AxNode(4, O),
    }
    with pytest.raises(TrackConflict) as exc:
        check_derivation(Derivation(term, "S", nodes))
    assert exc.value.tracks == frozenset({4})


def test_L_R_of_self_app():
    checked = check_derivation(make_self_app())
    assert checked.left_seq((0,)) == seq({8: O, 3: OP, 2: O})
    assert checked.right_seq((0,)) == seq({2: O, 3: OP, 8: O})
    assert checked.left_seq((0,)) == checked.right_seq((0,))
    # built once, so the facts cached on it serve every reader
    assert checked.right_seq((0,)) is checked.right_seq((0,))


def test_bound_by_and_pos():
    checked = check_derivation(make_self_app())
    assert checked.bound_by(EPS) == {4: (0, 1), 9: (0, 2), 2: (0, 3), 5: (0, 8)}
    assert all(checked.node(a).track == k for k, a in checked.bound_by(EPS).items())
    assert checked.bound_by((0,)) == {}
    # a free variable's axioms are indexed under its name
    brothers = check_derivation(make_brothers())
    assert brothers.bound_by("b") == {4: (3,), 9: (5,)}


def test_check_R_on_a_deep_application():
    """x u^n, deeper than the default recursion limit.  The R-positions and
    term positions of n nested applications hold about n^2 letters (`check_R`
    peaks at 1.56 GB at n = 10,000), so n is twice that limit."""
    assert sys.getrecursionlimit() <= 1000
    n = 2_000
    o = RAtom("o")
    xtype = o
    for _ in range(n):
        xtype = RArrow((o,), xtype)
    term, node = Var("x"), RAxD(xtype)
    for _ in range(n):
        term, node = App(term, Var("u")), RAppD(node, (RAxD(o),))
    judgment = check_R(RDerivation(term, node))
    assert judgment.rtype == o
    (u, us), (x, (xs,)) = judgment.context
    assert (u, x) == ("u", "x") and us == (o,) * n and xs is xtype


def test_collapse_of_self_app():
    checked = check_derivation(make_self_app())
    assert collapse_derivation(checked) == SELF_APP_COLLAPSE
    judgment = check_R(SELF_APP_COLLAPSE)
    assert judgment.rtype == rarrow(
        [RAtom("o'"), S_INNER.collapse, RAtom("o"), RAtom("o")], RAtom("o'")
    )
    assert judgment.context == ()


def test_collapse_of_axiom():
    deriv = Derivation(parse_term("x"), "S", {EPS: AxNode(5, O)})
    rd = collapse_derivation(check_derivation(deriv))
    assert rd.root == RAxD(RAtom("o"))
    assert check_R(rd).context == (("x", (RAtom("o"),)),)


def test_collapse_invariant_under_relabelling():
    # moving the argument copies to other tracks leaves the collapse unchanged
    term = parse_term("\\x. x x")
    nodes = {
        EPS: AbsNode(),
        (0,): AppNode(frozenset({4, 7, 9})),
        (0, 1): AxNode(3, SArrow(seq({4: O, 7: OP, 9: O}), OP)),
        (0, 4): AxNode(2, O),
        (0, 7): AxNode(6, OP),
        (0, 9): AxNode(8, O),
    }
    other = check_derivation(Derivation(term, "S", nodes))
    assert collapse_derivation(other) == SELF_APP_COLLAPSE


def test_check_R_mutations():
    broken = RDerivation(
        SELF_APP_COLLAPSE.term,
        RAbsD(
            RAppD(
                RAxD(S_INNER.collapse),
                (RAxD(RAtom("o")), RAxD(RAtom("o'"))),
            )
        ),
    )
    with pytest.raises(RCheckError) as exc:
        check_R(broken)
    assert exc.value.reason == "app_mismatch" and exc.value.position == (0,)
    assert str(exc.value) == "at R-position 0: app_mismatch"
    shuffled = RDerivation(
        SELF_APP_COLLAPSE.term,
        RAbsD(
            RAppD(
                RAxD(S_INNER.collapse),
                (RAxD(RAtom("o'")), RAxD(RAtom("o")), RAxD(RAtom("o"))),
            )
        ),
    )
    with pytest.raises(RCheckError, match=r"^at R-position 0: argument premises not in"):
        check_R(shuffled)
    o = RAxD(RAtom("o"))
    off_kind = RDerivation(parse_term("\\x. x (\\y. y)"), RAbsD(RAppD(o, (o,))))
    with pytest.raises(RCheckError, match=r"^at R-position 0\.2: axiom not at a variable$"):
        check_R(off_kind)


def test_collapse_paths_are_consistent():
    checked = check_derivation(make_self_app())
    rd, paths = checked.collapse
    assert paths[EPS] == EPS
    assert paths[(0,)] == (0,)
    assert paths[(0, 1)] == (0, 1)
    arg_paths = {paths[(0, k)] for k in (2, 3, 8)}
    assert arg_paths == {(0, 2), (0, 3), (0, 4)}


def test_checked_derivation_is_frozen_and_collapses_once():
    checked = check_derivation(make_self_app())
    with pytest.raises(dataclasses.FrozenInstanceError):
        checked.binders = {}
    assert collapse_derivation(checked) is collapse_derivation(checked)
    assert checked.collapse[0] is collapse_derivation(checked)
    assert collapse_derivation(checked) == SELF_APP_COLLAPSE


def test_generator_identity():
    derivs = generate_normal_form_derivations(parse_term("\\x. x"))
    assert derivs
    for deriv in derivs:
        checked = check_derivation(deriv)
        arrow = checked.conclusion().stype
        assert isinstance(arrow, SArrow)
        assert len(arrow.source) == 1
        (track, inner), = arrow.source.items()
        assert inner == arrow.target


def test_generator_variable():
    derivs = generate_normal_form_derivations(parse_term("x"))
    assert len(derivs) == 1
    checked = check_derivation(derivs[0])
    assert isinstance(checked.node(EPS), AxNode)


def test_generator_all_check_and_self_app_shape_appears():
    derivs = generate_normal_form_derivations(parse_term("\\x. x x"), GenBudget(width=3))
    assert derivs
    self_app_supp = frozenset({EPS, (0,), (0, 1), (0, 2), (0, 3), (0, 8)})
    shapes = []
    for deriv in derivs:
        checked = check_derivation(deriv)
        assert checked.flavor == "S"
        assert binder_quantitativity_holds(checked)
        shapes.append(frozenset(deriv.nodes))
    assert any(list(support_isos(shape, self_app_supp)) for shape in shapes)


def test_generator_rejects_non_normal():
    with pytest.raises(ValueError):
        generate_normal_form_derivations(parse_term("(\\x.x) y"))


def test_checker_and_reduction_build_no_context(monkeypatch):
    towers = tower_instances(7, 10)
    ops = towers + [brothers_operable()]
    wide = [make_operable(check_derivation(make_wide(m))) for m in range(4, 13)]
    built = []
    post_init = Context.__post_init__
    monkeypatch.setattr(Context, "__post_init__", lambda ctx: built.append(post_init(ctx)))
    steps = 0
    for op in ops:
        check_derivation(op.checked.derivation)
        for b in redexes(op.checked.term):
            reduce_operable(op, b)
            steps += 1
    assert steps > 10 and built == []
    # nor do the thread analysis, trivialization and the collapsing strategy
    for op in ops + wide:
        ThreadAnalysis(op).consumption()
        trivialize(op)
    runs = 0
    for op in towers:
        for arc in ThreadAnalysis(op).consumption():
            if arc.left_polarity == NEG:
                run_collapsing_strategy(op, arc)
                runs += 1
    assert runs >= len(towers) and built == []
    # the conclusion builds its one context, from the free variables' axioms
    conclusion = check_derivation(make_brothers()).conclusion()
    assert len(built) == 1
    assert [x for x, _ in conclusion.context.entries] == ["a", "b", "z"]


def test_relevance():
    checked = check_derivation(make_brothers())
    free = {"z", "a", "b"}
    assert {x for x, _ in checked.conclusion().context.entries} <= free


def test_file_round_trip():
    for deriv in (make_self_app(), make_brothers()):
        text = dumps_derivation(deriv)
        again = loads_derivation(text)
        assert again == deriv
        assert dumps_derivation(again) == text
    data = derivation_to_json(make_self_app())
    assert derivation_from_json(data) == make_self_app()


def forge_type(checked, a, stype):
    """The checked derivation with the type at a replaced: no longer a
    derivation `check_derivation` would build."""
    return dataclasses.replace(checked, _types={**checked._types, a: stype})


def forged_quantitativity_witnesses() -> list[tuple]:
    """Break quantitativity once for each check that raises on it (the one
    of `residual_maps`) and return the witness each QuantitativityError
    carries."""
    witnesses = []
    # the redex abstraction claims its variable on tracks 2 and 9; its axioms
    # are on 2 and 7
    checked = check_derivation(make_tracked_redex())
    arrow = checked.type_at((1,))
    forged = forge_type(checked, (1,), SArrow(seq({2: O, 9: O}), arrow.target))
    try:
        residual_maps(forged, EPS, {EPS: {2: 5, 9: 8}})
    except QuantitativityError as exc:
        witnesses.append((exc.position, exc.variable, exc.tracks))
    return witnesses


def test_quantitativity_fails_on_forged_contexts():
    checked = check_derivation(make_self_app())
    judgments = lazy_judgments(checked)
    assert binder_quantitativity_holds(checked, judgments)
    x_at = {a: checked.type_at(a) for a in checked.bound_by(EPS).values()}
    forgeries = [
        # a track no axiom holds
        ((0,), context({"x": seq({**dict(judgments[(0,)].context.get("x").items()), 7: O})})),
        # an entry dropped
        ((0,), context({})),
        # the binder's own conclusion claims its variable
        (EPS, context({"x": seq({4: x_at[(0, 1)]})})),
        # an axiom beside the node, not above it, in place of the node's own
        ((0, 2), context({"x": seq({2: x_at[(0, 3)]})})),
        # the right axiom with another type
        ((0, 2), context({"x": seq({9: OP})})),
    ]
    for a, ctx in forgeries:
        forged = {**judgments, a: dataclasses.replace(judgments[a], context=ctx)}
        assert not binder_quantitativity_holds(checked, forged), (a, ctx)


QUANTITATIVITY_WITNESSES = [(EPS, "x", frozenset({7, 9}))]


def test_forged_quantitativity_raises():
    assert forged_quantitativity_witnesses() == QUANTITATIVITY_WITNESSES


def test_forged_quantitativity_raises_under_optimize():
    # `python -O` strips assert statements; the quantitativity checks must
    # not be one
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    code = (
        "import sys\n"
        "from test_derivations import QUANTITATIVITY_WITNESSES, forged_quantitativity_witnesses\n"
        "sys.exit(0 if forged_quantitativity_witnesses() == QUANTITATIVITY_WITNESSES else 3)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


# an R-type, an R-node and an R-derivation, built from text so two
# processes build the same values
R_VALUES = (
    "from seqtypes.derivations import check_derivation, collapse_derivation\n"
    "from seqtypes.stypes import parse_type\n"
    "from samples import make_self_app\n"
    "rd = collapse_derivation(check_derivation(make_self_app()))\n"
    "values = (parse_type(\"(2:o, 3:(2:o') -> o) -> o'\").collapse, rd.root.child, rd)\n"
)


def run_with_hash_seed(seed: int, code: str, stdin: str = "") -> str:
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", R_VALUES + code],
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_r_values_pickled_under_one_hash_seed_load_under_another():
    """R-objects store their hash, built from string hashes that differ from
    one process to the next: a pickle carries the fields only, so loaded
    values hash and compare as their twins built in the loading process."""
    dumped = run_with_hash_seed(
        1, "import pickle\nprint(pickle.dumps(values).hex(), [hash(v) for v in values])\n"
    )
    loaded = run_with_hash_seed(
        2,
        "import pickle, sys\n"
        "data, hashes = sys.stdin.read().split(' ', 1)\n"
        "loaded = pickle.loads(bytes.fromhex(data))\n"
        "assert [hash(v) for v in loaded] == [hash(v) for v in values]\n"
        "assert loaded == values and {v: i for i, v in enumerate(values)}[loaded[2]] == 2\n"
        "assert hash(loaded[2].root.child) == hash(values[1])\n"
        "print(hashes.strip() != str([hash(v) for v in values]))\n",
        dumped,
    )
    assert loaded == "True\n"
