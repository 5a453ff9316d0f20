"""Seeded corpora: random normal forms, expansions, and redex towers.

Derivations of terms with redexes are produced by subject expansion: pick
occurrences of a common subterm, abstract them behind a fresh variable and
re-apply.  On the derivation side each chosen occurrence's subderivations
become argument premises whose tracks match the new axiom tracks exactly,
so the created application node satisfies the syntactic rule and firing it
recovers the original derivation.
"""

from __future__ import annotations

import random
from typing import Optional

from .positions import EPS, Position, collapse_position
from .stypes import SArrow, SAtom, SType, rebuild_type, seq as mkseq, subtypes
from .terms import (
    Abs,
    App,
    Term,
    Var,
    binders_above,
    free_vars,
    parse_term,
    preorder,
    replace_at,
    subterm_at,
)
from .derivations import (
    AbsNode,
    AppNode,
    AxNode,
    CheckedDerivation,
    Derivation,
    GenBudget,
    Node,
    RDerivation,
    _check_nodes,
    _draw_derivation,
    check_derivation,
    collapse_derivation,
)
from .reduction import OperableDerivation, RChoice, enumerate_r_choices, interfaces_at, reduce_R

FREE_NAMES = ("u", "v", "w", "p", "q")
BINDER_NAMES = ("x", "y", "z", "s", "t")


def random_normal_term(rng: random.Random, max_size: int) -> Term:
    """A random beta-normal term with at most `max_size` applications/abstractions."""

    counter = [0]

    def go(budget: int, scope: tuple[str, ...]) -> Term:
        n_binders = rng.randint(0, min(2, budget))
        binders = []
        for _ in range(n_binders):
            name = BINDER_NAMES[counter[0] % len(BINDER_NAMES)] + (
                str(counter[0] // len(BINDER_NAMES)) if counter[0] >= len(BINDER_NAMES) else ""
            )
            counter[0] += 1
            binders.append(name)
        inner_scope = scope + tuple(binders)
        budget -= n_binders
        head = rng.choice(inner_scope + FREE_NAMES)
        n_args = rng.randint(0, min(2, budget))
        body: Term = Var(head)
        for _ in range(n_args):
            share = max(0, (budget - n_args) // max(1, n_args))
            body = App(body, go(rng.randint(0, share), inner_scope))
        for name in reversed(binders):
            body = Abs(name, body)
        return body

    return go(max_size, ())


def random_derivation(rng: random.Random, term: Term, width: int = 2) -> CheckedDerivation:
    return check_derivation(_draw_derivation(term, GenBudget(width=width, limit=8), rng))


# -- subject expansion ---------------------------------------------------------


class ExpansionError(ValueError):
    pass


def expandable_groups(term: Term) -> list[list[Position]]:
    """Occurrences of a common subterm whose free variables are free there,
    in increasing order, the groups ordered by the subterm's text.

    One preorder walk lists every position with its subterm and the names
    bound above it.  In reverse preorder, each subterm's free variables and
    its `print_term` text, which equal subterms share and no others do, are
    then built from its children's, so depth is unbounded.
    """
    order: list[tuple[Position, Term, frozenset[str]]] = []
    bound: dict[Position, frozenset[str]] = {}  # the names bound at or above
    for a, u in preorder(term):
        above = bound[a[:-1]] if a else frozenset()
        bound[a] = above | {u.binder} if isinstance(u, Abs) else above
        order.append((a, u, above))
    facts: dict[int, tuple[frozenset[str], str]] = {}  # by id(subterm)

    def wrapped(u: Term) -> str:
        return u.name if isinstance(u, Var) else f"({facts[id(u)][1]})"

    for _, u, _ in reversed(order):
        if isinstance(u, Var):
            facts[id(u)] = frozenset((u.name,)), u.name
        elif isinstance(u, Abs):
            free, text = facts[id(u.body)]
            # a chain of abstractions prints its binders once: \x y. b
            chain = isinstance(u.body, Abs)
            text = f"\\{u.binder} {text[1:]}" if chain else f"\\{u.binder}. {text}"
            facts[id(u)] = free - {u.binder}, text
        else:
            (free, text), (right, _) = facts[id(u.left)], facts[id(u.right)]
            # a chain of applications prints its head and arguments side by side
            head = text if isinstance(u.left, App) else wrapped(u.left)
            facts[id(u)] = free | right, f"{head} {wrapped(u.right)}"
    groups: dict[str, list[Position]] = {}
    for a, u, above in order:
        free, text = facts[id(u)]
        if not free & above:
            groups.setdefault(text, []).append(a)
    return [groups[text] for text in sorted(groups)]


def expand_root(
    checked: CheckedDerivation, occurrences: list[Position], var: str
) -> Derivation:
    """Subject expansion at the root: produce a derivation of (\\var. r) s.

    `occurrences` address pairwise equal subterms (the new argument s);
    firing the created redex gives back the input derivation's judgment.
    """
    term = checked.term
    if not occurrences:
        raise ExpansionError("need at least one occurrence to abstract")
    s = subterm_at(term, occurrences[0])
    for o in occurrences:
        if subterm_at(term, o) != s:
            raise ExpansionError("occurrences address different subterms")
        if free_vars(s) & binders_above(term, o):
            raise ExpansionError("the subterm is not free at one occurrence")
    if _name_used(term, var):
        raise ExpansionError(f"{var!r} is not fresh")
    return _expand(checked, occurrences, var)[0]


def _expand(
    checked: CheckedDerivation, occurrences: list[Position], var: str
) -> tuple[Derivation, dict[Position, Position]]:
    """`expand_root` of valid input, with the origin of each node moved: into
    the body under (1, 0), or into an argument place under its new track."""
    term = checked.term
    r = term
    for o in occurrences:  # disjoint, since they address equal subterms
        r = replace_at(r, o, Var(var))
    new_term = App(Abs(var, r), subterm_at(term, occurrences[0]))
    ripped = sorted(a for a in checked.support() if collapse_position(a) in occurrences)
    tracks = {alpha: i + 2 for i, alpha in enumerate(ripped)}
    new_nodes: dict[Position, Node] = {
        EPS: AppNode(frozenset(tracks.values())),
        (1,): AbsNode(),
    }
    origins: dict[Position, Position] = {}
    for alpha, node in checked.nodes.items():
        root = next((rp for rp in ripped if alpha[: len(rp)] == rp), None)
        p = (1, 0) + alpha if root is None else (tracks[root],) + alpha[len(root) :]
        new_nodes[p] = node
        origins[p] = alpha
    for alpha in ripped:
        new_nodes[(1, 0) + alpha] = AxNode(tracks[alpha], checked.type_at(alpha))
    return Derivation(new_term, checked.flavor, new_nodes), origins


def _name_used(term: Term, name: str) -> bool:
    return any(
        (u.binder if isinstance(u, Abs) else u.name) == name
        for _, u in preorder(term)
        if not isinstance(u, App)
    )


def expand_random(
    checked: CheckedDerivation, rng: random.Random, fresh_index: int
) -> Optional[CheckedDerivation]:
    groups = expandable_groups(checked.term)
    if not groups:
        return None
    typed_at = {collapse_position(alpha) for alpha in checked.support()}
    multi = []
    for group in groups:
        typed = [o for o in group if o in typed_at]
        if len(typed) >= 2:
            multi.append(typed)
    if multi and rng.random() < 0.7:
        typed = multi[rng.randrange(len(multi))]
        size = rng.randint(2, len(typed))
        occurrences = sorted(rng.sample(typed, size))
    else:
        group = groups[rng.randrange(len(groups))]
        size = rng.randint(1, len(group))
        occurrences = sorted(rng.sample(group, size))
    var = f"e{fresh_index}"
    if _name_used(checked.term, var):
        return None
    # the rule runs on the prefixes of the new nodes (the root, the abstraction,
    # the axioms in the ripped places); every node moved keeps its judgment
    deriv, origins = _expand(checked, occurrences, var)
    spine = {p[:i] for p in deriv.nodes if p not in origins for i in range(len(p) + 1)}
    kept = {p: alpha for p, alpha in origins.items() if p not in spine}
    return _check_nodes(deriv, checked, kept)


def merge_atoms(deriv: Derivation, rng: random.Random, pool: int) -> Derivation:
    """Identify atoms modulo a small pool, creating collapse-equal types.

    A uniform renaming of atoms preserves validity in every flavor; it is
    what makes reduction choices and non-trivial interfaces plentiful.
    """
    names: set[str] = set()
    stack = [node.stype for node in deriv.nodes.values() if isinstance(node, AxNode)]
    while stack:
        u = stack.pop()
        stack += subtypes(u)
        if isinstance(u, SAtom):
            names.add(u.name)
    mapping = {name: f"o{rng.randrange(pool) + 1}" for name in sorted(names)}

    def rename(u: SType, kids: list[SType]) -> SType:
        if isinstance(u, SAtom):
            return SAtom(mapping[u.name])
        return SArrow(mkseq(zip(u.source.tracks(), kids[:-1])), kids[-1])

    new_nodes: dict[Position, Node] = {}
    for a, node in deriv.nodes.items():
        if isinstance(node, AxNode):
            node = AxNode(node.track, rebuild_type(node.stype, rename))
        new_nodes[a] = node
    return Derivation(deriv.term, deriv.flavor, new_nodes)


def sr_corpus(seed: int, count: int, size: int = 7, width: int = 2) -> list[CheckedDerivation]:
    """Flavor-S derivations, most typing terms with redexes; deterministic."""
    rng = random.Random(seed)
    out: list[CheckedDerivation] = []
    fresh = 0
    while len(out) < count:
        term = random_normal_term(rng, rng.randint(1, size))
        checked = random_derivation(rng, term, width=width)
        expansions = rng.randint(0, 3)
        for _ in range(expansions):
            fresh += 1
            expanded = expand_random(checked, rng, fresh)
            if expanded is None:
                break
            checked = expanded
        if rng.random() < 0.7:
            merged = merge_atoms(checked.derivation, rng, pool=rng.choice([1, 1, 2]))
            checked = check_derivation(merged)
        out.append(checked)
    return out


# -- redex towers ---------------------------------------------------------------


def make_tower(body_deriv: Derivation, height: int) -> CheckedDerivation:
    """((\\z1..zk. \\x. u) z1_0 .. zk_0) v with k = height - 1 untyped
    spacers, the first k of m, n and r.

    x's sequence is consumed at the root application; the argument
    copies of v are axioms with exactly the matching types, so the result
    is a valid hybrid (indeed trivial) derivation.
    """
    if not 1 <= height <= 4:
        raise ValueError("a tower has height 1 to 4, one more than its spacers")
    body = check_derivation(body_deriv)
    k = height - 1
    spacers = ["m", "n", "r"][:k]
    term: Term = Abs("x", body.term)
    for name in spacers:
        term = Abs(name, term)
    for name in reversed(spacers):
        term = App(term, Var(name + "0"))
    term = App(term, Var("v"))
    x_seq = body.conclusion().context.get("x")
    prefix = (1,) * (k + 1) + (0,) * (k + 1)
    nodes: dict[Position, Node] = {}
    for alpha, node in body.nodes.items():
        nodes[prefix + alpha] = node
    for i in range(k + 1):
        nodes[(1,) * (k + 1) + (0,) * i] = AbsNode()
    for i in range(1, k + 1):
        nodes[(1,) * i] = AppNode(frozenset())
    ax_track = 2 + max([0] + [tr for tr, _ in x_seq.items()])
    arg_tracks = {}
    for tr, stype in x_seq.items():
        arg_tracks[tr] = stype
        nodes[(tr,)] = AxNode(ax_track, stype)
        ax_track += 1
    nodes[EPS] = AppNode(frozenset(arg_tracks))
    return check_derivation(Derivation(term, "Sh", nodes))


def tower_instances(seed: int, count: int) -> list[OperableDerivation]:
    """Operable redex towers of heights 1..3 with varying interfaces."""
    rng = random.Random(seed)
    bodies = [
        "x",
        "x w",
        "x w w",
        "x (w w)",
        "x (x w)",
    ]
    out: list[OperableDerivation] = []
    attempt = 0
    while len(out) < count:
        text = bodies[attempt % len(bodies)]
        height = 1 + (attempt // len(bodies)) % 3
        attempt += 1
        body = _draw_derivation(parse_term(text), GenBudget(width=2, limit=6), rng)
        if rng.random() < 0.5:
            body = merge_atoms(body, rng, pool=1)
        tower = make_tower(body, height)
        interface = {}
        for a in tower.app_positions():
            choices = interfaces_at(tower, a)
            interface[a] = choices[rng.randrange(len(choices))]
        out.append(OperableDerivation(tower, interface))
    return out


# -- reduction paths --------------------------------------------------------------


def reduction_path(
    seed: int, n: int
) -> tuple[CheckedDerivation, list[tuple[Position, RChoice]], list[RDerivation]]:
    """A derivation with a root redex n deep, one R-choice per root step and
    the `reduce_R` chain those choices give; deterministic.

    The derivation is n successive `expand_random` root expansions of a
    random normal-form derivation, so each of its n root steps leaves a
    root redex but the last; each choice is drawn from `enumerate_r_choices`
    at the root of the chain's last derivation.
    """
    rng = random.Random(seed)
    checked = random_derivation(rng, random_normal_term(rng, 9), 2)
    for fresh in range(1, n + 1):
        # never None: the whole term is always a group, and no normal term
        # names e1, e2, ...
        checked = expand_random(checked, rng, fresh)
    rd = collapse_derivation(checked)
    sequence: list[tuple[Position, RChoice]] = []
    chain: list[RDerivation] = []
    for _ in range(n):
        choice = rng.choice(enumerate_r_choices(rd, EPS))
        rd = reduce_R(rd, EPS, choice)
        sequence.append((EPS, choice))
        chain.append(rd)
    return checked, sequence, chain
