"""Trivialization of operable derivations and derivation isomorphisms.

Consumption forces facing threads to share their new track value; closing
that constraint and assigning one fresh track per class yields a
relabelling whose resetting is a trivial (system S) derivation isomorphic
to the input.  The only obstruction would be a consumption path between
two brother threads, which cannot exist; the search for one is kept as a
diagnostic, never silenced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .positions import (
    EPS,
    Position,
    Track,
    DomainMismatchError,
    IsoShapeError,
    LEAF,
    ZeroOneIso,
    collapse_position,
    format_position,
    iter_01_isos,
)
from .stypes import _relabel, check_type_iso, iter_type_isos, relabel_type
from .terms import alpha_eq
from .derivations import (
    AbsNode,
    AppNode,
    AxNode,
    CheckedDerivation,
    Derivation,
    FLAVOR_S,
    FLAVOR_SH,
    JudgmentIsos,
    Node,
    check_derivation,
)
from .reduction import OperableDerivation, reduce_operable
from .threads import (
    ArgEdge,
    BrotherChain,
    ConsumptionArc,
    LeftEdge,
    NEG,
    ThreadAnalysis,
    UnionFind,
)


class BrotherChainError(ValueError):
    """Two brother threads were forced to share a track.

    Unreachable for valid operable derivations; raised with an explicit
    witness so a hit is a diagnosable bug, never silent."""

    def __init__(self, chain: BrotherChain) -> None:
        super().__init__(f"brother chain through threads {chain.threads}")
        self.chain = chain


class UnjoinedBrothersError(BrotherChainError):
    """Two brother threads share a class that no consumption path explains.

    Classes built by `consumption_closure` of the same analysis never do
    this; the witness chain names the two threads and has no positions."""

    def __init__(self, t1: int, t2: int) -> None:
        ValueError.__init__(
            self, f"brother threads {t1} and {t2} share a class but no consumption path joins them"
        )
        self.chain = BrotherChain((t1, t2), ())


class NonIdentityInterfaceError(ValueError):
    """The trivialized derivation kept a non-identity interface.

    Unreachable when the track values respect consumption.  The witness is
    the application whose carried interface is not the identity: `position`
    is its place in the trivial derivation, the first such node in the
    input's preorder."""

    def __init__(self, pos: Position) -> None:
        super().__init__(f"trivialized interface at {format_position(pos)} is not the identity")
        self.position = pos


class CollapsingStrategyError(ValueError):
    """A step of the collapsing strategy found no way on.

    Unreachable for a valid operable derivation: the referent axiom of the
    arc's left thread is bound strictly above the arc's node, both arc
    threads keep residuals until the last step, and the residual left thread
    starts exactly one arc, a negative one, at the residual node.  The node
    and the two arc threads (None where no residual is left) are the
    witness."""

    def __init__(self, pos: Position, threads: tuple[Optional[int], Optional[int]], reason: str):
        super().__init__(
            f"collapsing strategy at {format_position(pos)}, threads {threads}: {reason}"
        )
        self.position = pos
        self.threads = threads


@dataclass(frozen=True)
class ThreadClasses:
    """Partition of the threads by the closure of consumption."""

    classes: tuple[tuple[int, ...], ...]
    class_of: dict[int, int]


def consumption_closure(analysis: ThreadAnalysis) -> ThreadClasses:
    """Classes of threads joined by consumption, in the order of their least
    edge: thread ids follow that order, so a class's least id decides it."""
    uf = UnionFind(len(analysis.threads))
    for left, right in analysis.arc_threads():
        uf.union(left, right)
    classes = tuple(tuple(tids) for tids in uf.classes())
    class_of = {tid: i for i, tids in enumerate(classes) for tid in tids}
    return ThreadClasses(classes, class_of)


def assign_track_values(
    analysis: ThreadAnalysis, classes: ThreadClasses
) -> dict[int, Track]:
    """One fresh track per class, least-unused in class order.

    Fails with an explicit brother chain if two brother threads ended up in
    the same class; this never happens for a valid operable derivation.
    Brothers are detected in one pass per class; the chain search runs only
    on failure.
    """
    for tids in classes.classes:
        pair = analysis.brother_pair(tids)
        if pair is not None:
            chain = analysis.find_brother_chain()
            if chain is None:
                raise UnjoinedBrothersError(*pair)
            raise BrotherChainError(chain)
    return {i: i + 2 for i in range(len(classes.classes))}


@dataclass
class DerivationIso:
    """01-isomorphism of supports plus one type isomorphism per axiom."""

    supp_map: ZeroOneIso
    axiom_isos: dict[Position, ZeroOneIso]

    def judgment_isos(self, c1: CheckedDerivation, c2: CheckedDerivation) -> JudgmentIsos:
        """The type isomorphisms induced at every judgment of c1; the axioms
        of c2 give the new axiom tracks."""
        pairs = self.supp_map.mapping
        axioms = {a: (c2.nodes[pairs[a]].track, phi) for a, phi in self.axiom_isos.items()}
        args = {a: b[-1] for a, b in pairs.items() if a and a[-1] >= 2}
        return JudgmentIsos(c1, axioms, args)


Relabelling = tuple[DerivationIso, dict[Position, AxNode]]
"""A relabelling: the derivation isomorphism it induces, and each axiom's new
node, whose type is the image of the old one under its type isomorphism."""


def _support_iso(
    checked: CheckedDerivation, new_letter: Callable[[Position], Track]
) -> ZeroOneIso:
    """The support map keeping 0 and 1 and sending each argument letter of a
    node to `new_letter` of the argument's position, built bottom-up."""
    kids: dict[Position, dict[Track, tuple[Track, ZeroOneIso]]] = {}
    for a in reversed(checked.preorder[1:]):
        sub = ZeroOneIso.node(kids.pop(a)) if a in kids else LEAF
        k = a[-1]
        kids.setdefault(a[:-1], {})[k] = (k if k < 2 else new_letter(a), sub)
    return ZeroOneIso.node(kids.pop(EPS, {}))


def build_relabelling(
    analysis: ThreadAnalysis, classes: ThreadClasses, values: dict[int, Track]
) -> Relabelling:
    """The relabelling giving every thread its class's track value.  Each
    axiom's type is relabelled from its right block's threads, which follow
    `mutable_positions` order, and its track from its own block's head."""
    checked = analysis.checked

    def value_of(tid: int) -> Track:
        return values[classes.class_of[tid]]

    axiom_isos: dict[Position, ZeroOneIso] = {}
    axioms: dict[Position, AxNode] = {}
    for a in checked.axiom_positions():
        node = checked.node(a)
        assert isinstance(node, AxNode)
        tracks = list(map(value_of, analysis.right_threads(a)))
        new_type, axiom_isos[a] = _relabel(node.stype, tracks)
        axioms[a] = AxNode(value_of(analysis.axiom_thread(a)), new_type)
    supp_map = _support_iso(checked, lambda p: value_of(analysis.arg_thread(p)))
    return DerivationIso(supp_map, axiom_isos), axioms


def verify_derivation_iso(
    c1: CheckedDerivation,
    c2: CheckedDerivation,
    iso: DerivationIso,
    interface1: Optional[dict[Position, ZeroOneIso]] = None,
    interface2: Optional[dict[Position, ZeroOneIso]] = None,
) -> bool:
    """All hybrid-iso clauses; with interfaces, also the commuting square.
    The support map is a 01-isomorphism by construction: only its domain and
    image are checked, and it keeps every node's term position, so its rule."""
    if not alpha_eq(c1.term, c2.term):
        return False
    supp_map = iso.supp_map.mapping
    if supp_map.keys() != c1.support() or set(supp_map.values()) != c2.support():
        return False
    if set(iso.axiom_isos) != set(c1.axiom_positions()):
        return False
    # one memo for every check: an application's type and psi are its left
    # premise's target and psi restricted under 1, and an abstraction's
    # source holds its bound axioms' types, so each is walked once
    memo: dict = {}
    try:
        derived = iso.judgment_isos(c1, c2)
        for a in c1.nodes:
            if not check_type_iso(c1.type_at(a), c2.type_at(supp_map[a]), derived.iso(a), memo):
                return False
        if interface1 is not None and interface2 is not None:
            for a in c1.app_positions():
                # the square reads interface2 only on the image of left(a):
                # both interfaces must be type isomorphisms on their own
                a2 = supp_map[a]
                if not (
                    check_type_iso(c1.left_seq(a), c1.right_seq(a), interface1[a], memo)
                    and check_type_iso(c2.left_seq(a2), c2.right_seq(a2), interface2[a2], memo)
                ):
                    return False
                # right(a) o interface1 = interface2 o left(a), left(a) a bijection
                if not derived.commutes(a, interface1[a], interface2[a2]):
                    return False
    except (DomainMismatchError, IsoShapeError, KeyError):
        return False
    return True


def support_children(node: tuple[CheckedDerivation, Position]) -> list[tuple[Track, tuple]]:
    """The children of a node of a support, as `iter_01_isos` walks it: a
    node is a derivation with a position."""
    c, a = node
    return [(k, (c, a + (k,))) for k in c.children(a)]


def support_label(node: tuple[CheckedDerivation, Position]) -> str:
    """The label that a derivation isomorphism keeps at a node: the rule, and
    for an axiom the collapse of its type."""
    c, a = node
    rule = c.node(a)
    if isinstance(rule, AxNode):
        return f"ax{rule.stype.collapse.key}"
    return "abs" if isinstance(rule, AbsNode) else "app"


def enumerate_derivation_isos(
    c1: CheckedDerivation, c2: CheckedDerivation, limit: int = 64
) -> list[DerivationIso]:
    """Hybrid-derivation isomorphisms, up to the given budget.  Support
    isomorphisms and each axiom's type isomorphisms are drawn lazily, so the
    search stops once `limit` are found."""
    if not alpha_eq(c1.term, c2.term):
        return []
    out: list[DerivationIso] = []
    axioms = c1.axiom_positions()
    for supp_iso in iter_01_isos((c1, EPS), (c2, EPS), support_children, support_label, True):
        factors = [iter_type_isos(c1.type_at(a), c2.type_at(supp_iso(a))) for a in axioms]
        for combo in _lazy_product(factors):
            candidate = DerivationIso(supp_iso, dict(zip(axioms, combo)))
            if verify_derivation_iso(c1, c2, candidate):
                out.append(candidate)
            if len(out) >= limit:
                return out
    return out


def _lazy_product(factors: list[Iterator]) -> Iterator[tuple]:
    """`itertools.product` of the factors, in the same order, drawing from
    each factor only as far as the tuples taken so far need."""
    drawn: list[list] = [[] for _ in factors]

    def has(i: int, k: int) -> bool:
        if k == len(drawn[i]):
            drawn[i].extend(itertools.islice(factors[i], 1))
        return k < len(drawn[i])

    if not all(has(i, 0) for i in range(len(factors))):
        return
    index = [0] * len(factors)
    while True:
        yield tuple(drawn[i][k] for i, k in enumerate(index))
        i = len(factors) - 1
        while i >= 0 and not has(i, index[i] + 1):
            index[i] = 0
            i -= 1
        if i < 0:
            return
        index[i] += 1


# -- resetting ----------------------------------------------------------------


@dataclass
class ResetResult:
    checked: CheckedDerivation
    iso: DerivationIso
    interface: Optional[dict[Position, ZeroOneIso]]


def reset_derivation(
    checked: CheckedDerivation,
    relab: Relabelling,
    interface: Optional[dict[Position, ZeroOneIso]] = None,
    flavor: str = FLAVOR_SH,
) -> ResetResult:
    """Apply a relabelling: place every node at its image under the support
    map, check the result, and return the relabelling's own isomorphism.

    The conjugated interface makes the result operably isomorphic to the
    input whenever an interface is supplied.
    """
    iso, axioms = relab
    pairs = iso.supp_map.mapping
    new_nodes: dict[Position, Node] = {}
    for a, node in checked.nodes.items():
        if isinstance(node, AppNode):
            node = AppNode(frozenset(pairs[a + (k,)][-1] for k in node.arg_tracks))
        elif isinstance(node, AxNode):
            node = axioms[a]
        new_nodes[pairs[a]] = node
    new_checked = check_derivation(Derivation(checked.term, flavor, new_nodes))
    new_interface: Optional[dict[Position, ZeroOneIso]] = None
    if interface is not None:
        derived = iso.judgment_isos(checked, new_checked)
        new_interface = {
            pairs[a]: derived.conjugate(a, interface[a]) for a in checked.app_positions()
        }
    return ResetResult(new_checked, iso, new_interface)


def random_relabelling(checked: CheckedDerivation, rng) -> Relabelling:
    """A random relabelling; resetting by it yields a hybrid perturbation."""

    def fresh_tracks(n: int) -> list[Track]:
        pool = list(range(2, 2 + max(4, 3 * n)))
        rng.shuffle(pool)
        return pool[:n]

    arg: dict[Position, Track] = {}
    for a in checked.app_positions():
        node = checked.node(a)
        assert isinstance(node, AppNode)
        tracks = sorted(node.arg_tracks)
        for k, new in zip(tracks, fresh_tracks(len(tracks))):
            arg[a + (k,)] = new
    axiom_isos: dict[Position, ZeroOneIso] = {}
    axioms: dict[Position, AxNode] = {}
    positions = checked.axiom_positions()
    track_pool = list(range(2, 2 + 3 * len(positions) + 2))
    rng.shuffle(track_pool)
    for a, new_track in zip(positions, track_pool):
        node = checked.node(a)
        assert isinstance(node, AxNode)
        by_parent: dict[Position, list[Position]] = {}
        # the parents, and so the tracks drawn, follow this set's iteration order
        for c in frozenset(p for p in node.stype.support if p and p[-1] >= 2):
            by_parent.setdefault(c[:-1], []).append(c)
        assignment: dict[Position, Track] = {}
        for parent, siblings in by_parent.items():
            for c, new in zip(sorted(siblings), fresh_tracks(len(siblings))):
                assignment[c] = new
        new_type, axiom_isos[a] = relabel_type(node.stype, assignment)
        axioms[a] = AxNode(new_track, new_type)
    return DerivationIso(_support_iso(checked, arg.__getitem__), axiom_isos), axioms


# -- trivialization -----------------------------------------------------------


@dataclass
class TrivializeResult:
    trivial: CheckedDerivation
    iso: DerivationIso
    classes: ThreadClasses
    values: dict[int, Track]
    relabelling: Relabelling
    analysis: ThreadAnalysis


def trivialize(op: OperableDerivation) -> TrivializeResult:
    """A trivial derivation isomorphic to the operable input.

    The output checks under the syntactic application rule and collapses on
    the same multiset derivation; a BrotherChainError cannot arise from a
    valid input and is surfaced as a diagnostic.  The reset carries no
    interface: each square is tested by `JudgmentIsos.commutes` against the
    identity, and a failure raises `NonIdentityInterfaceError`.
    """
    analysis = ThreadAnalysis(op)
    classes = consumption_closure(analysis)
    values = assign_track_values(analysis, classes)
    relab = build_relabelling(analysis, classes, values)
    reset = reset_derivation(op.checked, relab, flavor=FLAVOR_S)
    derived = reset.iso.judgment_isos(op.checked, reset.checked)
    for a in op.checked.app_positions():
        if not derived.commutes(a, op.interface[a]):
            raise NonIdentityInterfaceError(reset.iso.supp_map(a))
    return TrivializeResult(reset.checked, reset.iso, classes, values, relab, analysis)


# -- the collapsing strategy ---------------------------------------------------


def residual_thread(
    analysis: ThreadAnalysis,
    maps,
    types: JudgmentIsos,
    new_analysis: ThreadAnalysis,
    tid: int,
) -> Optional[int]:
    """The thread of the reduct containing the residual of a referent edge."""
    ref = analysis.referent(tid)
    b = maps.redex
    x_axioms = maps.x_axioms()
    if isinstance(ref, ArgEdge):
        if collapse_position(ref.pos[:-1]) == b:
            return None
        return new_analysis.arg_thread(maps.res[ref.pos])
    if isinstance(ref, LeftEdge):
        if ref.pos in x_axioms:
            return None
        return new_analysis.thread_at(maps.res[ref.pos], ref.inner, ref.var)
    if ref.pos in x_axioms:
        return new_analysis.thread_at(maps.qres[ref.pos], types.iso(ref.pos)(ref.inner))
    return new_analysis.thread_at(maps.res[ref.pos], ref.inner)


@dataclass
class StrategyRun:
    fired: list[Position]
    final: OperableDerivation
    final_analysis: ThreadAnalysis
    left: Optional[int]
    right: Optional[int]


def run_collapsing_strategy(op: OperableDerivation, arc: ConsumptionArc) -> StrategyRun:
    """Fire the redex tower under a negative left-consumption until the two
    arc threads collapse into one (or both residuals disappear together)."""
    if arc.left_polarity != NEG:
        raise ValueError("the collapsing strategy needs a negative left arc")
    analysis = ThreadAnalysis(op)
    fired: list[Position] = []
    while True:
        a = arc.pos
        ref = analysis.referent(arc.left)
        alpha = analysis.checked.binders[ref.pos]
        if alpha is None or len(alpha) <= len(a):
            raise CollapsingStrategyError(
                a, (arc.left, arc.right), "the left referent is not bound above the node"
            )
        if len(alpha) - len(a) == 1:
            b = collapse_position(a)
        else:
            b = collapse_position(_deepest_app_prefix(analysis.checked, alpha, a))
        new_op, maps, types = reduce_operable(op, b)
        new_analysis = ThreadAnalysis(new_op)
        fired.append(b)
        left = residual_thread(analysis, maps, types, new_analysis, arc.left)
        right = residual_thread(analysis, maps, types, new_analysis, arc.right)
        if b == collapse_position(a):
            return StrategyRun(fired, new_op, new_analysis, left, right)
        if left is None or right is None:
            raise CollapsingStrategyError(a, (left, right), "an arc thread has no residual")
        next_arc = [
            candidate
            for candidate in new_analysis.consumption()
            if candidate.left == left and candidate.pos == maps.res[a]
        ]
        if len(next_arc) != 1 or next_arc[0].left_polarity != NEG:
            raise CollapsingStrategyError(
                maps.res[a], (left, right), f"{len(next_arc)} arcs, not one negative arc"
            )
        op, analysis, arc = new_op, new_analysis, next_arc[0]


def _deepest_app_prefix(checked: CheckedDerivation, alpha: Position, a: Position) -> Position:
    for i in range(len(alpha) - 1, len(a), -1):
        prefix = alpha[:i]
        if isinstance(checked.node(prefix), AppNode):
            assert isinstance(checked.node(prefix + (1,)), AbsNode)
            return prefix
    raise AssertionError("a tower of height > 1 contains an inner redex")
