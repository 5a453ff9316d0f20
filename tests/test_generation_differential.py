"""The corpus generators at the cost of what they keep.

Shapes are counted in closed form and unranked one at a time: `_nth_shape`
is compared index for index with `reference_isos.listed_shapes`, the
listing it replaced.  A draw builds the one derivation it keeps and makes
the same draw as `rng.choice` on the whole list.  An expansion is checked on
its new spine and equals the full check of `expand_root`.  And
`GenBudget.limit` bounds what generating costs, where listing every shape of
every argument ran out of memory on a seven-level nest.
"""

from __future__ import annotations

import math
import random
import time
import tracemalloc

import pytest

from seqtypes import corpus, derivations
from seqtypes.corpus import expand_root, random_derivation, random_normal_term, sr_corpus
from seqtypes.derivations import (
    GenBudget,
    _draw_derivation,
    _nth_shape,
    _shape_counts,
    check_derivation,
    generate_normal_form_derivations,
)
from seqtypes.positions import EPS
from seqtypes.terms import parse_term

import reference_isos as ref

CORPUS_SEED = 20250809
NESTS = ["x", "a b c", "a (b c)", "a (b (c d))", "a (b (c (d e)))", "f (g (h a) b) (k c)"]


@pytest.fixture(scope="module")
def corpus_build():
    """What building `sr_corpus(CORPUS_SEED, 500)` does: the base term of
    each draw, every expansion with its input and the check it got, and how
    many derivations were built."""
    terms, expansions, checks, built = [], [], [], [0]
    draw, expand, check, materialize = (
        corpus.random_derivation,
        corpus._expand,
        corpus._check_nodes,
        derivations._materialize,
    )

    def record_draw(rng, term, width=2):
        terms.append(term)
        return draw(rng, term, width)

    def record_expand(checked, occurrences, var):
        expansions.append((checked, occurrences, var, expand(checked, occurrences, var)))
        return expansions[-1][-1]

    def record_check(deriv, source=None, kept={}):
        checks.append((deriv, source, kept, check(deriv, source, kept)))
        return checks[-1][-1]

    def count_built(t, shape, prefix, *rest):
        built[0] += prefix == EPS
        return materialize(t, shape, prefix, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "random_derivation", record_draw)
        mp.setattr(corpus, "_expand", record_expand)
        mp.setattr(corpus, "_check_nodes", record_check)
        mp.setattr(derivations, "_materialize", count_built)
        out = sr_corpus(CORPUS_SEED, 500)
    return out, terms, expansions, checks, built[0]


def test_shapes_unrank_as_they_were_listed(corpus_build):
    _, terms, _, _, _ = corpus_build
    assert len(terms) == 500
    listed = 0
    for t in terms + [parse_term(text) for text in NESTS]:
        for width in range(3):
            shapes = list(ref.listed_shapes(t, width))
            assert _shape_counts(width)(t) == len(shapes)
            for i, shape in enumerate(shapes):
                assert _nth_shape(t, width, i) == shape
            listed += len(shapes)
    assert listed > 4000


@pytest.mark.parametrize("text", NESTS[2:])
def test_a_capped_count_unranks_alike_below_its_cap(text):
    t = parse_term(text)
    exact = _shape_counts(2)(t)
    for cap in (1, 2, 5, 64, exact + 1):
        count = _shape_counts(2, cap)
        assert count(t) == min(cap, exact)
        assert [_nth_shape(t, 2, i, count) for i in range(count(t))] == [
            _nth_shape(t, 2, i) for i in range(count(t))
        ]


def test_the_count_of_an_eight_level_nest_is_closed_form():
    n = 1
    for _ in range(7):
        n = sum(math.comb(n + w - 1, w) for w in range(3))
    assert n == 5_695_183_504_492_614_029_263_278
    assert _shape_counts(2)(parse_term("a (b (c (d (e (f (g h))))))")) == n


def test_the_limit_bounds_memory():
    # listing every shape of every argument first peaked at about 200 MB here
    t = parse_term("a (b (c (d (e f))))")
    tracemalloc.start()
    try:
        (deriv,) = generate_normal_form_derivations(t, GenBudget(limit=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    check_derivation(deriv)


def test_the_first_derivation_of_a_seven_level_nest_is_immediate():
    t = parse_term("a (b (c (d (e (f g)))))")
    start = time.perf_counter()
    (deriv,) = generate_normal_form_derivations(t, GenBudget(limit=1))
    assert time.perf_counter() - start < 1.0
    check_derivation(deriv)


def test_a_draw_is_the_choice_from_the_list():
    for seed in range(300):
        rng = random.Random(seed)
        term = random_normal_term(rng, rng.randint(1, 7))
        width = seed % 3
        twin = random.Random()
        twin.setstate(rng.getstate())
        got = random_derivation(rng, term, width)
        want = check_derivation(
            twin.choice(generate_normal_form_derivations(term, GenBudget(width, 8)))
        )
        assert got.derivation == want.derivation
        assert rng.getstate() == twin.getstate()


def test_a_tower_body_draw_is_the_indexed_option():
    bodies = [parse_term(text) for text in ["x", "x w", "x w w", "x (w w)", "x (x w)"]]
    for seed in range(300):
        rng, twin = random.Random(seed), random.Random(seed)
        u = bodies[seed % len(bodies)]
        options = generate_normal_form_derivations(u, GenBudget(width=2, limit=6))
        assert _draw_derivation(u, GenBudget(width=2, limit=6), rng) == options[
            twin.randrange(len(options))
        ]
        assert rng.getstate() == twin.getstate()


def test_one_derivation_is_built_per_draw(corpus_build):
    # the listing built 1,844 derivations for these 500 draws
    _, terms, _, _, built = corpus_build
    assert built == len(terms) == 500


def test_every_expansion_is_checked_on_its_spine(corpus_build):
    _, _, expansions, checks, _ = corpus_build
    assert len(checks) == len(expansions) > 500
    assert sum(len(kept) for _, _, kept, _ in checks) > 0
    for (checked, occurrences, var, (deriv, origins)), (checked_deriv, source, kept, got) in zip(
        expansions, checks
    ):
        assert source is checked and checked_deriv is deriv
        # the rule runs at every prefix of a new node, and nowhere else
        spine = {p[:i] for p in deriv.nodes if p not in origins for i in range(len(p) + 1)}
        assert kept == {p: alpha for p, alpha in origins.items() if p not in spine}
        full = check_derivation(expand_root(checked, occurrences, var))
        assert full.derivation == deriv
        assert list(got._types) == list(full._types)
        assert got._types == full._types
        assert got._right_seqs == full._right_seqs
        assert got.binders == full.binders
        assert got._bound == full._bound
        assert got._subjects == full._subjects
