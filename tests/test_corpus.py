from __future__ import annotations

import hashlib
import random

import pytest

from seqtypes.cli import run
from seqtypes.corpus import (
    ExpansionError,
    expand_random,
    expand_root,
    expandable_groups,
    make_tower,
    merge_atoms,
    random_normal_term,
    reduction_path,
    sr_corpus,
    tower_instances,
)
from seqtypes.derivations import (
    AxNode,
    Derivation,
    GenBudget,
    check_derivation,
    dumps_derivation,
    generate_normal_form_derivations,
)
from seqtypes.positions import EPS, format_position
from seqtypes.reduction import reduce_S
from seqtypes.stypes import SArrow, SAtom, SType, seq
from seqtypes.terms import (
    Abs,
    App,
    Var,
    binders_above,
    free_vars,
    is_normal,
    parse_term,
    print_term,
    redexes,
    subterm_at,
    support,
)


def test_random_normal_terms_are_normal():
    rng = random.Random(3)
    for _ in range(50):
        term = random_normal_term(rng, rng.randint(1, 7))
        assert is_normal(term)


def test_expand_root_builds_the_spec_redex():
    # abstracting both occurrences of y in y y yields (\x. x x) y
    base = check_derivation(
        generate_normal_form_derivations(parse_term("y y"), GenBudget(width=2))[1]
    )
    deriv = expand_root(base, [(1,), (2,)], "x")
    assert deriv.term == parse_term("(\\x. x x) y")
    checked = check_derivation(deriv)
    reduced = reduce_S(checked, EPS)
    # firing the created redex recovers the original derivation exactly
    assert reduced.derivation.nodes == base.derivation.nodes
    assert reduced.term == base.term


def test_expand_recovery_holds_across_the_corpus():
    rng = random.Random(11)
    recovered = 0
    for _ in range(30):
        term = random_normal_term(rng, rng.randint(1, 6))
        base = check_derivation(
            rng.choice(generate_normal_form_derivations(term, GenBudget(width=2, limit=6)))
        )
        expanded = expand_random(base, rng, rng.randrange(10_000))
        if expanded is None:
            continue
        reduced = reduce_S(expanded, EPS)
        assert reduced.derivation.nodes == base.derivation.nodes
        recovered += 1
    assert recovered >= 10


def test_expand_root_rejects_bad_inputs():
    base = check_derivation(
        generate_normal_form_derivations(parse_term("y y"), GenBudget(width=1))[0]
    )
    with pytest.raises(ExpansionError):
        expand_root(base, [], "x")
    with pytest.raises(ExpansionError):
        expand_root(base, [(1,)], "y")  # not fresh
    mixed = check_derivation(
        generate_normal_form_derivations(parse_term("y w"), GenBudget(width=1))[0]
    )
    with pytest.raises(ExpansionError):
        expand_root(mixed, [(1,), (2,)], "x")  # different subterms


def test_expandable_groups_respect_binders():
    term = parse_term("\\y. y w")
    groups = expandable_groups(term)
    flattened = {o for group in groups for o in group}
    assert (0, 1) not in flattened  # y is bound above its occurrence
    assert (0, 2) in flattened


def expandable_groups_by_lookups(term):
    """The groups as first written: every position's subterm, binders and
    free variables looked up from the root, the groups sorted by text."""
    groups = {}
    for o in sorted(support(term)):
        s = subterm_at(term, o)
        if free_vars(s) & binders_above(term, o):
            continue
        groups.setdefault(s, []).append(o)
    return [sorted(v) for _, v in sorted(groups.items(), key=lambda kv: print_term(kv[0]))]


def random_term(rng: random.Random, depth: int):
    """Any term, redexes and shadowed binders included."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return Var(rng.choice("xyuv"))
    if r < 0.55:
        return Abs(rng.choice("xy"), random_term(rng, depth - 1))
    return App(random_term(rng, depth - 1), random_term(rng, depth - 1))


def test_expandable_groups_match_lookups_from_the_root():
    rng = random.Random(11)
    terms = [random_term(rng, rng.randint(0, 6)) for _ in range(3000)]
    terms += [random_normal_term(rng, 8) for _ in range(200)]
    for term in terms:
        assert expandable_groups(term) == expandable_groups_by_lookups(term), print_term(term)
    assert sum(len(expandable_groups(t)) > 1 for t in terms) > 1000


def test_expandable_groups_2000_deep():
    # v (v (... ((\x. x) u))): one group per subterm of the spine, and x is
    # bound above its only occurrence
    depth = 2000
    term = App(Abs("x", Var("x")), Var("u"))
    for _ in range(depth):
        term = App(Var("v"), term)
    groups = expandable_groups(term)
    assert len(groups) == depth + 4
    # by text: "(\x. x) u" first, then "\x. x", "u", "v" and the spine
    assert groups[:3] == [[(2,) * depth], [(2,) * depth + (1,)], [(2,) * depth + (2,)]]
    assert groups[3] == [(2,) * i + (1,) for i in range(depth)]
    assert groups[-1] == [EPS]
    assert all((2,) * depth + (1, 0) not in group for group in groups)


def test_merge_atoms_renames_a_type_2000_deep():
    # the recursive walks raised RecursionError at depth 500
    def chain(atom) -> SType:
        t = atom(0)
        for i in range(1, 2000):
            t = SArrow(seq({2: t}), atom(i)) if i % 2 else SArrow(seq({3: atom(i)}), t)
        return t

    deriv = Derivation(parse_term("v"), "S", {EPS: AxNode(2, chain(lambda i: SAtom(f"a{i}")))})
    merged = merge_atoms(deriv, random.Random(5), pool=1)
    assert merged.nodes[EPS] == AxNode(2, chain(lambda i: SAtom("o1")))


def test_merge_atoms_preserves_validity():
    rng = random.Random(5)
    base = generate_normal_form_derivations(parse_term("x (y z)"), GenBudget(width=2))[3]
    merged = merge_atoms(base, rng, pool=1)
    checked = check_derivation(merged)
    atoms = set()

    def collect(stype):
        from seqtypes.stypes import SAtom

        if isinstance(stype, SAtom):
            atoms.add(stype.name)
        else:
            for _, s in stype.source.items():
                collect(s)
            collect(stype.target)

    for a in checked.axiom_positions():
        collect(checked.node(a).stype)
    assert atoms == {"o1"}


def test_sr_corpus_is_deterministic():
    c1 = sr_corpus(99, 12)
    c2 = sr_corpus(99, 12)
    assert [dumps_derivation(c.derivation) for c in c1] == [
        dumps_derivation(c.derivation) for c in c2
    ]
    with_redexes = sum(1 for c in c1 if redexes(c.term))
    assert with_redexes >= 6


def test_tower_shapes():
    body = generate_normal_form_derivations(parse_term("x"), GenBudget(width=0))[0]
    tower = make_tower(body, height=2)
    assert print_term(tower.term) == "(\\m x. x) m0 v"
    assert len(redexes(tower.term)) == 1
    for op in tower_instances(7, 5):
        assert op.checked.flavor == "Sh"


def test_collapse_soundness_and_quantitativity_on_corpus():
    from seqtypes.derivations import check_R, collapse_derivation
    from reference_checker import binder_quantitativity_holds

    for checked in sr_corpus(17, 40):
        check_R(collapse_derivation(checked))  # soundness of the collapse
        assert binder_quantitativity_holds(checked)


# sha256 of what the generators write, recorded before the draws built one
# derivation each: a draw, an expansion or a check may change how it works,
# never what it gives
GEN_DEFAULTS_SHA256 = "7d94a4575913f679a3994f383a2926d1dcbe25aca042a3a47ef0dce45e013c5c"
TOWERS_SHA256 = "eb000fef77ae2545a13d359f181f6e3a710d3818f99a59a3aa8cb8f7ec7bacd4"
REDUCTION_PATH_SHA256 = "6d77e485f5bda89aecff0979331ea5269181f74ac13e85b5f5499a47b35ab5f5"
CORPUS_SEED = 20250809


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_gen_writes_the_same_texts_at_its_defaults(tmp_path, capsys):
    assert run(["gen", "--seed", "42", "--outdir", str(tmp_path)]) == 0
    paths = sorted(tmp_path.iterdir())
    assert len(paths) == 100
    assert sha256("".join(p.read_text() for p in paths)) == GEN_DEFAULTS_SHA256


def test_tower_instances_are_unchanged():
    texts = [dumps_derivation(op.checked.derivation) for op in tower_instances(CORPUS_SEED + 5, 4)]
    assert sha256("".join(texts)) == TOWERS_SHA256


def test_a_reduction_path_and_its_choices_are_unchanged():
    checked, sequence, _ = reduction_path(7, 32)
    steps = [
        (
            format_position(b),
            format_position(c.redex),
            sorted(
                (format_position(site), sorted((format_position(p), j) for p, j in m.items()))
                for site, m in c.assignments.items()
            ),
        )
        for b, c in sequence
    ]
    assert sha256(dumps_derivation(checked.derivation) + repr(steps)) == REDUCTION_PATH_SHA256
