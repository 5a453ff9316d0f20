"""Differential test: `dumps_derivation`, which writes one piece of text per
node kind, against `json.dumps(..., indent=2)` of the file's JSON object
(`reference_json`), byte for byte.

Families: the 500 acceptance-corpus hybrids with their trivial derivations
and their reducts at every typed redex, 20 redex towers, `v (w u)^m` for
m = 2..20, `v u` with k = 1..12 equal-typed copies of `u`, `make_nested(250)`,
an application with no arguments, and hypothesis derivations whose atom and
variable names hold non-ASCII letters and primes.  Every file of the corpus
families also loads back and dumps as the same text.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtypes.corpus import sr_corpus, tower_instances
from seqtypes.derivations import (
    AbsNode,
    AppNode,
    AxNode,
    Derivation,
    check_derivation,
    dumps_derivation,
    loads_derivation,
)
from seqtypes.positions import EPS, collapse_position
from seqtypes.reduction import make_operable, reduce_operable
from seqtypes.stypes import EMPTY_SEQ, SArrow, SAtom, parse_type, seq
from seqtypes.terms import Abs, App, Var, parse_term, redexes
from seqtypes.trivialize import random_relabelling, reset_derivation, trivialize

from reference_json import dumps_reference
from samples import make_equal_typed, make_nested, make_wide

CORPUS_SEED = 20250809


def assert_written_as_json_dumps(deriv: Derivation) -> str:
    text = dumps_derivation(deriv)
    assert text == dumps_reference(deriv)
    return text


def assert_round_trip(text: str) -> None:
    assert dumps_derivation(loads_derivation(text)) == text


@pytest.fixture(scope="module")
def corpus_files() -> list[Derivation]:
    """The hybrids of the corpus, each followed by its trivial derivation
    and its reducts at every typed redex."""
    rng = random.Random(CORPUS_SEED + 1)
    out = []
    for checked in sr_corpus(CORPUS_SEED, 500, size=7, width=2):
        hybrid = reset_derivation(checked, random_relabelling(checked, rng)).checked
        op = make_operable(hybrid)
        out += [hybrid.derivation, trivialize(op).trivial.derivation]
        typed = {collapse_position(a) for a in hybrid.app_positions()}
        for b in redexes(hybrid.term):
            if b in typed:
                out.append(reduce_operable(op, b)[0].checked.derivation)
    return out


def test_corpus_hybrids_trivial_derivations_and_reducts(corpus_files):
    assert len(corpus_files) > 1500
    assert {d.flavor for d in corpus_files} == {"S", "Sh"}
    for deriv in corpus_files:
        assert_round_trip(assert_written_as_json_dumps(deriv))


def test_towers():
    for op in tower_instances(CORPUS_SEED + 5, 20):
        assert_round_trip(assert_written_as_json_dumps(op.checked.derivation))


@pytest.mark.parametrize(
    "deriv",
    [make_wide(m) for m in range(2, 21)]
    + [make_equal_typed(k) for k in range(1, 13)]
    + [make_nested(250)],
    ids=[f"wide{m}" for m in range(2, 21)] + [f"equal{k}" for k in range(1, 13)] + ["nested250"],
)
def test_scaling_families(deriv):
    assert_round_trip(assert_written_as_json_dumps(deriv))


def test_an_application_with_no_arguments():
    # x y, with x typed () -> o: the argument list is written as []
    nodes = {EPS: AppNode(frozenset()), (1,): AxNode(2, SArrow(EMPTY_SEQ, SAtom("o")))}
    deriv = Derivation(parse_term("x y"), "S", nodes)
    text = assert_written_as_json_dumps(deriv)
    assert '"args": []' in text
    assert_round_trip(text)
    check_derivation(loads_derivation(text))


def test_no_nodes():
    assert_written_as_json_dumps(Derivation(Var("x"), "S", {}))


letters = st.characters(categories=["Lu", "Ll", "Lo"])
atom_names = st.builds(
    lambda head, tail: head + tail,
    letters,
    st.text(st.one_of(letters, st.sampled_from("0123456789_'")), max_size=4),
)
var_names = st.text(letters, min_size=1, max_size=4)


@settings(max_examples=150)
@given(var_names, var_names, st.lists(atom_names, min_size=3, max_size=3))
def test_non_ascii_and_primed_names(binder, head, atoms):
    # \binder. head binder, with the binder's axiom on track 3 and the
    # head's type built from the drawn atoms
    o1, o2, o3 = map(SAtom, atoms)
    head_type = SArrow(seq({5: o1, 6: SArrow(seq({2: o2}), o3)}), o3)
    nodes = {
        EPS: AbsNode(),
        (0,): AppNode(frozenset({5})),
        (0, 1): AxNode(2, head_type),
        (0, 5): AxNode(3, o1),
    }
    deriv = Derivation(Abs(binder, App(Var(head), Var(binder))), "Sh", nodes)
    text = assert_written_as_json_dumps(deriv)
    assert text.isascii()
    assert loads_derivation(text) == deriv
    assert_round_trip(text)


def test_equal_type_texts_load_as_one_type():
    text = dumps_derivation(make_equal_typed(3))
    deriv = loads_derivation(text)
    o = [deriv.nodes[(k,)].stype for k in (2, 3, 4)]
    assert o[0] is o[1] is o[2]
    # each file parses its own: a type is shared within a file only
    assert loads_derivation(text).nodes[(2,)].stype is not o[0]
    assert parse_type("o") == o[0]
