"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS line on success; run with `pytest -v` (or
`-s` to see the lines) to get one verdict per criterion.
"""

from __future__ import annotations

import random
import time

import pytest

from seqtypes.corpus import reduction_path, sr_corpus, tower_instances
from seqtypes.derivations import (
    check_derivation,
    collapse_derivation,
    dumps_derivation,
    loads_derivation,
)
from seqtypes.positions import EPS, collapse_position
from seqtypes.reduction import (
    OperableDerivation,
    ReductionChoice,
    build_operable_from_choices,
    collapse_choice,
    enumerate_r_choices,
    interfaces_at,
    make_operable,
    reduce_R,
    reduce_S,
    reduce_Sh,
    reduce_operable,
    root_interfaces_at,
)
from seqtypes.stypes import equiv, parse_type, print_type
from seqtypes.terms import parse_term, print_term, redexes
from seqtypes.threads import NEG, POS, ArgEdge, RightEdge, ThreadAnalysis
from seqtypes.trivialize import (
    random_relabelling,
    reset_derivation,
    run_collapsing_strategy,
    trivialize,
    verify_derivation_iso,
)
from seqtypes.stypes import identity_iso, seq, SAtom

from samples import SELF_APP_COLLAPSE, brothers_operable, make_two_choice_redex, make_brothers, make_self_app

CORPUS_SEED = 20250809
CORPUS_SIZE = 500

O = SAtom("o")


@pytest.fixture(scope="module")
def corpus():
    return sr_corpus(CORPUS_SEED, CORPUS_SIZE, size=7, width=2)


@pytest.fixture(scope="module")
def hybrid_corpus(corpus):
    """The corpus perturbed by random relabellings (flavor S_h)."""
    rng = random.Random(CORPUS_SEED + 1)
    out = []
    for checked in corpus:
        relab = random_relabelling(checked, rng)
        out.append(reset_derivation(checked, relab, flavor="Sh").checked)
    return out


@pytest.fixture(scope="module")
def operable_corpus(hybrid_corpus):
    rng = random.Random(CORPUS_SEED + 2)
    out = []
    for checked in hybrid_corpus[:120]:
        interface = {}
        for a in checked.app_positions():
            options = interfaces_at(checked, a)
            interface[a] = options[rng.randrange(len(options))]
        out.append(OperableDerivation(checked, interface))
    out.append(brothers_operable())
    out.append(make_operable(check_derivation(make_two_choice_redex())))
    out.extend(tower_instances(CORPUS_SEED + 3, 20))
    return out


def sequent(checked):
    j = checked.conclusion()
    ctx = ", ".join(f"{x}:{print_type(f)}" for x, f in j.context.entries)
    return (ctx, print_type(j.stype))


def typed_redexes(checked):
    apps = checked.app_positions()
    out = []
    for b in redexes(checked.term):
        if any(collapse_position(a) == b for a in apps):
            out.append(b)
    return out


def test_criterion_1_golden_examples():
    start = time.monotonic()
    # the self-application derivation collapses onto its multiset form exactly
    self_app = check_derivation(make_self_app())
    assert self_app.flavor == "S"
    assert collapse_derivation(self_app) == SELF_APP_COLLAPSE
    # the two 01-isomorphic labelled trees, with the listed isomorphism
    t1 = parse_type("(8:o2, 4:(8:o3, 3:o1) -> o2) -> o1")
    t2 = parse_type("(5:(7:o1, 2:o3) -> o2, 3:o2) -> o1")
    assert equiv(t1, t2)
    from seqtypes.stypes import iter_type_isos

    listed = {
        EPS: EPS,
        (1,): (1,),
        (4,): (5,),
        (4, 1): (5, 1),
        (4, 3): (5, 7),
        (4, 8): (5, 2),
        (8,): (3,),
    }
    assert any(iso.mapping == listed for iso in iter_type_isos(t1, t2))
    # the brother-threads derivation checks as S_h with the expected L/R
    brothers = check_derivation(make_brothers())
    assert brothers.flavor == "Sh"
    assert brothers.left_seq(EPS) == seq({8: O, 9: O})
    assert brothers.right_seq(EPS) == seq({3: O, 5: O})
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: golden examples reproduced in {elapsed:.3f}s")


def test_criterion_2_exact_subject_reduction(corpus):
    start = time.monotonic()
    assert len(corpus) >= 500
    reductions = 0
    for checked in corpus:
        before = sequent(checked)
        for b in typed_redexes(checked):
            reduced = reduce_S(checked, b)
            assert sequent(reduced) == before
            reductions += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 2 PASS: exact SR on {len(corpus)} derivations,"
        f" {reductions} typed reductions, {elapsed:.1f}s"
    )


def test_criterion_3_pseudo_subject_reduction(hybrid_corpus):
    rng = random.Random(CORPUS_SEED + 4)
    cases = 0
    for checked in hybrid_corpus:
        before = checked.conclusion()
        for b in typed_redexes(checked):
            per_node = {}
            for a in checked.app_positions():
                if collapse_position(a) == b:
                    options = root_interfaces_at(checked, a)
                    per_node[a] = options[rng.randrange(len(options))]
            reduced = reduce_Sh(checked, b, ReductionChoice(b, per_node))
            assert equiv(reduced.conclusion().stype, before.stype)
            assert reduced.conclusion().context == before.context
            cases += 1
    assert cases > 0
    print(f"ACCEPTANCE 3 PASS: pseudo-SR held on {cases}/{cases} hybrid reductions")


def test_criterion_4_commutation(hybrid_corpus):
    import itertools

    checked_cases = 0
    skipped = 0
    for checked in hybrid_corpus:
        collapsed = collapse_derivation(checked)
        for b in typed_redexes(checked):
            nodes_over = [
                a for a in checked.app_positions() if collapse_position(a) == b
            ]
            per_node_options = [root_interfaces_at(checked, a) for a in nodes_over]
            total = 1
            for options in per_node_options:
                total *= len(options)
            if total > 24:
                skipped += 1
                continue
            for combo in itertools.product(*per_node_options):
                rho = dict(zip(nodes_over, combo))
                reduced = reduce_Sh(checked, b, ReductionChoice(b, rho))
                rchoice = collapse_choice(checked, b, rho)
                assert collapse_derivation(reduced) == reduce_R(collapsed, b, rchoice)
                checked_cases += 1
    assert checked_cases > 0
    print(
        f"ACCEPTANCE 4 PASS: commutation exact on {checked_cases} choices"
        f" ({skipped} wide redexes skipped)"
    )


def _choice_sequences(rd, max_len, cap):
    sequences = []
    frontier = [(rd, [])]
    for _ in range(max_len):
        next_frontier = []
        for current, prefix in frontier:
            for b in redexes(current.term):
                for ch in enumerate_r_choices(current, b):
                    extended = prefix + [(b, ch)]
                    sequences.append(extended)
                    assert len(sequences) <= cap, "instance too wide for exhaustion"
                    next_frontier.append((reduce_R(current, b, ch), extended))
        frontier = next_frontier
    return sequences


def test_criterion_5_built_in_choice_sequences(hybrid_corpus):
    start = time.monotonic()
    instances = [check_derivation(make_two_choice_redex())]
    for op in tower_instances(CORPUS_SEED + 5, 4):
        instances.append(op.checked)

    def first_step_choices(checked):
        collapsed = collapse_derivation(checked)
        return sum(len(enumerate_r_choices(collapsed, b)) for b in redexes(checked.term))

    candidates = [
        checked
        for checked in hybrid_corpus
        if 1 <= len(redexes(checked.term)) <= 2 and len(checked.support()) <= 28
    ]
    candidates.sort(key=first_step_choices, reverse=True)
    instances.extend(candidates[:8])
    total_sequences = 0
    for checked in instances:
        collapsed = collapse_derivation(checked)
        for sequence in _choice_sequences(collapsed, 3, 400):
            op = build_operable_from_choices(collapsed, checked, sequence)
            expected = collapsed
            for b_i, ch_i in sequence:
                expected = reduce_R(expected, b_i, ch_i)
                op, _, _ = reduce_operable(op, b_i)
                assert collapse_derivation(op.checked) == expected
            total_sequences += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 5 PASS: {total_sequences} choice sequences (len <= 3) on"
        f" {len(instances)} instances reproduced stepwise, {elapsed:.1f}s"
    )


def test_long_reduction_paths_replay_through_their_trivialization():
    """Criteria 5 and 6 chained on root reduction paths of n = 8 to 64
    steps: the built path replays onto the `reduce_R` chain, trivializes to
    an S derivation with equal sides at every application, and that one,
    reduced by `reduce_S`, collapses onto the same chain; all within a fixed
    budget."""
    start = time.monotonic()
    for n in (8, 16, 32, 64):
        checked, sequence, chain = reduction_path(7, n)
        collapsed = collapse_derivation(checked)
        built = build_operable_from_choices(collapsed, checked, sequence)
        op = built
        for (b, _), expected in zip(sequence, chain):
            op, _, _ = reduce_operable(op, b)
            assert collapse_derivation(op.checked) == expected
        trivial = trivialize(built).trivial
        assert trivial.flavor == "S"
        for a in trivial.app_positions():
            assert trivial.left_seq(a) == trivial.right_seq(a)
        assert collapse_derivation(trivial) == collapsed
        for (b, _), expected in zip(sequence, chain):
            trivial = reduce_S(trivial, b)
            assert collapse_derivation(trivial) == expected
    assert len(checked.nodes) == 196
    elapsed = time.monotonic() - start
    assert elapsed < 20.0
    print(f"LONG PATHS PASS: n = 8..64 built, replayed and trivialized, {elapsed:.1f}s")


def test_criterion_6_trivialization(operable_corpus):
    for op in operable_corpus:
        analysis = ThreadAnalysis(op)
        assert analysis.find_brother_chain() is None
        result = trivialize(op)
        assert result.trivial.flavor == "S"
        for a in result.trivial.app_positions():
            assert result.trivial.left_seq(a) == result.trivial.right_seq(a)
        assert collapse_derivation(result.trivial) == collapse_derivation(op.checked)
        identities = {
            a: identity_iso(result.trivial.left_seq(a))
            for a in result.trivial.app_positions()
        }
        assert verify_derivation_iso(
            op.checked, result.trivial, result.iso, op.interface, identities
        )
    print(
        f"ACCEPTANCE 6 PASS: trivialize succeeded with verified isomorphism on"
        f" {len(operable_corpus)}/{len(operable_corpus)} operable derivations"
    )


def test_criterion_7_consumption_checks(operable_corpus):
    for op in operable_corpus:
        analysis = ThreadAnalysis(op)
        assert analysis.check_uniqueness_of_consumption()
        assert analysis.check_monotonicity()
    brothers = ThreadAnalysis(brothers_operable())
    tids = {
        8: brothers.thread_of(RightEdge((1,), (8,))),
        9: brothers.thread_of(RightEdge((1,), (9,))),
        2: brothers.thread_of(RightEdge((1, 6), (1, 2))),
        7: brothers.thread_of(RightEdge((1, 6), (1, 7))),
        3: brothers.thread_of(ArgEdge((3,))),
        5: brothers.thread_of(ArgEdge((5,))),
    }
    colored = set(tids.values())
    among = {
        (arc.left, arc.left_polarity, arc.pos, arc.right, arc.right_polarity)
        for arc in brothers.consumption()
        if arc.left in colored and arc.right in colored
    }
    assert among == {
        (tids[8], NEG, (1,), tids[2], POS),
        (tids[9], NEG, (1,), tids[7], POS),
        (tids[8], POS, EPS, tids[3], POS),
        (tids[9], POS, EPS, tids[5], POS),
    }
    print(
        f"ACCEPTANCE 7 PASS: uniqueness+monotonicity on"
        f" {len(operable_corpus)} derivations; the four listed arcs reproduced"
    )


def test_criterion_8_collapsing_strategy():
    instances = tower_instances(CORPUS_SEED + 6, 50)
    assert len(instances) >= 50
    runs = 0
    for op in instances:
        analysis = ThreadAnalysis(op)
        negative_left = [a for a in analysis.consumption() if a.left_polarity == NEG]
        assert negative_left, "towers consume the binder's sequence negatively"
        for arc in negative_left:
            run = run_collapsing_strategy(op, arc)
            assert run.left == run.right or (run.left is None and run.right is None)
            runs += 1
    print(
        f"ACCEPTANCE 8 PASS: collapsing strategy verified on {len(instances)}"
        f" towers, {runs} arcs"
    )


def test_criterion_9_round_trips(corpus, hybrid_corpus):
    from seqtypes.stypes import parse_type as pt

    count = 0
    for checked in list(corpus) + list(hybrid_corpus):
        deriv = checked.derivation
        text = dumps_derivation(deriv)
        again = loads_derivation(text)
        assert again == deriv
        assert dumps_derivation(again) == text
        assert parse_term(print_term(deriv.term)) == deriv.term
        for a in checked.axiom_positions():
            stype = checked.node(a).stype
            assert pt(print_type(stype)) == stype
        count += 1
    print(f"ACCEPTANCE 9 PASS: byte-exact round-trips on {count} derivation files")
