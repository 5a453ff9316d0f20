"""Subject reduction for S, S_h and R derivations, and reduction choices.

Firing a redex inside a rigid derivation replaces each axiom of the redex
variable by one argument subderivation.  In system S the pairing is forced
(axiom track = argument track); in S_h it is a root isomorphism chosen per
derivation node over the redex, and an interface (a full sequence-type
isomorphism) additionally determines how every inner position moves, which
is what residual interfaces and built-in choice sequences need.  Every
rigid redex fires through one step; the reducers only differ in the root
interfaces they give it, and S reduction is S_h reduction with the identity
ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .positions import (
    EPS,
    DomainMismatchError,
    IsoShapeError,
    Position,
    Track,
    ZeroOneIso,
    collapse_position,
    format_position,
    iter_01_isos,
)
from .stypes import (
    RAtom,
    RType,
    SArrow,
    SAtom,
    SType,
    check_type_iso,
    equiv,
    iter_type_isos,
    rebuild_type,
    seq,
)
from .terms import Abs, App, PositionError, Term, beta_reduce_at, subterm_at
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
    QuantitativityError,
    RAbsD,
    RAxD,
    RDerivation,
    RNode,
    check_R,
    _check_nodes,
    check_R_types,
    collapse_derivation,
    rapp,
    walk_R,
)


class ReductionError(ValueError):
    """A reduction or a choice that fails; `.position`, when not None, is the
    place its message names: a rigid node, a term position or, for a
    multiset-side choice, an R-node."""

    def __init__(self, message: str, position: Optional[Position] = None) -> None:
        super().__init__(message)
        self.position = position


class ChoiceError(ReductionError):
    pass


# -- interfaces ---------------------------------------------------------------


def interfaces_at(checked: CheckedDerivation, a: Position) -> list[ZeroOneIso]:
    """All interfaces at an application node, lexicographically ordered."""
    return list(iter_type_isos(checked.left_seq(a), checked.right_seq(a)))


def root_interfaces_at(checked: CheckedDerivation, a: Position) -> list[dict[Track, Track]]:
    """All root interfaces at an application node, lexicographically ordered:
    the 01-isomorphisms of the two depth-1 forests of tracks labelled by
    their collapsed types, whose nodes are (label, children) pairs."""
    left = None, [(k, (s.collapse, ())) for k, s in checked.left_seq(a).items()]
    right = None, [(k, (s.collapse, ())) for k, s in checked.right_seq(a).items()]
    isos = iter_01_isos(left, right, itemgetter(1), itemgetter(0), False)
    return [phi.roots() for phi in isos]


def default_interface(checked: CheckedDerivation, a: Position) -> ZeroOneIso:
    """The least interface at an application node, without listing the others."""
    iso = next(iter_type_isos(checked.left_seq(a), checked.right_seq(a)), None)
    if iso is None:
        raise ReductionError(
            f"no interface at {format_position(a)}: its sides are not isomorphic", a
        )
    return iso


def extend_root_interface(
    checked: CheckedDerivation, a: Position, rho: dict[Track, Track]
) -> ZeroOneIso:
    """Lexicographically least interface extending the given root mapping.
    Raises `ChoiceError`, naming a, when rho is not a bijection from the
    left tracks onto the right ones or does not extend."""
    left, right = checked.left_seq(a), checked.right_seq(a)
    if len(rho) != len(left) or len(right) != len(left):
        raise _not_a_bijection(checked, a, rho)
    kids: dict[Track, tuple[Track, ZeroOneIso]] = {}
    for k, s in left.items():
        try:
            k2 = rho[k]
            s2 = right.get(k2)
        except KeyError:
            raise _not_a_bijection(checked, a, rho) from None
        iso = next(iter_type_isos(s, s2), None)
        if iso is None:
            raise ChoiceError(
                f"root mapping {k} -> {k2} at {format_position(a)} not extendable", a
            )
        kids[k] = (k2, iso)
    try:
        return ZeroOneIso.node(kids, tree=False)
    except IsoShapeError:
        raise _not_a_bijection(checked, a, rho) from None


def _not_a_bijection(
    checked: CheckedDerivation, a: Position, rho: dict[Track, Track]
) -> ChoiceError:
    return ChoiceError(
        f"root mapping {rho} at {format_position(a)} is not a bijection from the tracks "
        f"{checked.left_seq(a).tracks()} onto {checked.right_seq(a).tracks()}",
        a,
    )


class InterfaceError(ValueError):
    """An interface that fails at a node, which `.position` names."""

    def __init__(self, position: Position, reason: str) -> None:
        super().__init__(f"invalid interface at {format_position(position)}: {reason}")
        self.position = position


@dataclass
class OperableDerivation:
    """A hybrid derivation endowed with a total interface, checked in full;
    the interfaces the library builds take `_operable`.  One that
    `build_operable_from_choices` returns also carries, in `_fired`, the
    steps its builder fired, which `reduce_operable` takes instead of firing
    them again."""

    checked: CheckedDerivation
    interface: dict[Position, ZeroOneIso]
    _fired = ()  # not a field: only `_operable` sets it

    def __post_init__(self) -> None:
        _check_interfaces(self.checked, self.interface)
        missing = set(self.checked.app_positions()) - self.interface.keys()
        if missing:
            raise InterfaceError(min(missing), "the application node has none")


def _check_interfaces(checked: CheckedDerivation, interface: dict[Position, ZeroOneIso]) -> None:
    for a, iso in interface.items():
        if not isinstance(checked.nodes.get(a), AppNode):
            raise InterfaceError(a, "not an application node")
        try:
            ok = check_type_iso(checked.left_seq(a), checked.right_seq(a), iso)
        except DomainMismatchError as exc:
            raise InterfaceError(a, str(exc)) from exc
        if not ok:
            raise InterfaceError(a, "it does not map the left sequence type onto the right one")


def _operable(
    checked: CheckedDerivation,
    interface: dict[Position, ZeroOneIso],
    fired: tuple[_Fired, ...] = (),
) -> OperableDerivation:
    """The given interfaces, built by the library as type isomorphisms, and
    the least one at every other application node; none is re-checked.  The
    fired steps, when given, start at `checked`."""
    op = object.__new__(OperableDerivation)
    op.checked, op.interface, op._fired = checked, dict(interface), fired
    for a in checked.app_positions():
        if a not in interface:
            op.interface[a] = default_interface(checked, a)
    return op


def make_operable(
    checked: CheckedDerivation, interface: Optional[dict[Position, ZeroOneIso]] = None
) -> OperableDerivation:
    """The given interfaces, each checked, and the least one elsewhere."""
    _check_interfaces(checked, interface or {})
    return _operable(checked, interface or {})


@dataclass
class ReductionChoice:
    """A redex position plus one root interface per derivation node over it."""

    redex: Position
    per_node: dict[Position, dict[Track, Track]]


# -- residual positions -------------------------------------------------------


@dataclass
class ResidualMaps:
    redex: Position
    nodes_over: list[Position]
    rho: dict[Position, dict[Track, Track]]
    ax_pos: dict[Position, dict[Track, Position]]  # node over b -> axiom track -> position
    res: dict[Position, Position]
    qres: dict[Position, Position]

    def x_axioms(self) -> set[Position]:
        return {p for by_track in self.ax_pos.values() for p in by_track.values()}


def _redex_binder(term: Term, b: Position) -> str:
    """The variable the redex at b binds; ReductionError when b addresses no
    redex, on the term or off it, or is no term position (a letter above 2
    would address a derivation node through its track)."""
    if any(k > 2 for k in b):
        raise ReductionError(f"{format_position(b)} is not a term position", b)
    try:
        subj = subterm_at(term, b)
    except PositionError:
        subj = None
    if not (isinstance(subj, App) and isinstance(subj.left, Abs)):
        raise ReductionError(f"no redex at {format_position(b)}", b)
    return subj.left.binder


def residual_maps(
    checked: CheckedDerivation, b: Position, rho_per_node: dict[Position, dict[Track, Track]]
) -> ResidualMaps:
    """The root interfaces checked, and the residual positions in one pass:
    the node over b holding a position is its prefix of length len(b)."""
    x, n = _redex_binder(checked.term, b), len(b)
    nodes_over = checked.apps_over.get(b, [])
    rho: dict[Position, dict[Track, Track]] = {}
    ax_pos: dict[Position, dict[Track, Position]] = {}
    landing: dict[Position, dict[Track, Position]] = {}  # node over b -> argument -> position
    for a in nodes_over:
        left, right = checked.left_seq(a), checked.right_seq(a)
        tr_left = set(left.tracks())
        by_track = dict(checked.bound_by(a + (1,)))
        if set(by_track) != tr_left:
            raise QuantitativityError(a, x, set(by_track) ^ tr_left)
        rho_a = rho_per_node.get(a)
        if rho_a is None:
            raise ChoiceError(f"missing root interface at {format_position(a)}", a)
        if set(rho_a) != tr_left or sorted(rho_a.values()) != right.tracks():
            raise ChoiceError(f"root interface at {format_position(a)} is not a bijection", a)
        for k, k2 in rho_a.items():
            if not equiv(left.get(k), right.get(k2)):
                raise ChoiceError(
                    f"root interface {k} -> {k2} at {format_position(a)} mismatches types", a
                )
        rho[a] = dict(rho_a)
        ax_pos[a] = by_track
        landing[a] = {rho_a[k]: a + p[n + 2 :] for k, p in by_track.items()}
    maps = ResidualMaps(b, list(nodes_over), rho, ax_pos, {}, {})
    res, qres, x_axioms = maps.res, maps.qres, maps.x_axioms()
    for alpha in checked.nodes:
        a = alpha[:n]
        if a not in landing:
            res[alpha] = qres[alpha] = alpha
        elif alpha == a:
            qres[alpha] = a
        elif alpha[n] != 1:  # inside an argument subderivation
            res[alpha] = qres[alpha] = landing[a][alpha[n]] + alpha[n + 1 :]
        elif len(alpha) > n + 1:  # inside the redex body, below a.1.0
            qres[alpha] = a + alpha[n + 2 :]
            if alpha not in x_axioms:
                res[alpha] = qres[alpha]
    return maps


def _fire(
    checked: CheckedDerivation,
    b: Position,
    rho_per_node: dict[Position, dict[Track, Track]],
    flavor: str,
) -> tuple[CheckedDerivation, ResidualMaps]:
    """The one subject-reduction step: fire the redex at b with the given
    root interface at each node over it, move every node along the residual
    positions and re-check its changed spine in the given flavor: the
    prefixes of the nodes over b and of the argument premises' new places.
    Every other node keeps its preimage's premises, so its judgment (an S
    target comes only from an S input).  With no node over b the residual
    positions are the identity and the reduct keeps the input's flavor."""
    maps = residual_maps(checked, b, rho_per_node)
    nodes = {maps.res[alpha]: node for alpha, node in checked.nodes.items() if alpha in maps.res}
    flavor = flavor if maps.nodes_over else checked.flavor
    starts = maps.nodes_over + [maps.qres[p] for p in maps.x_axioms()]
    spine = {p[:i] for p in starts for i in range(len(p) + 1)}
    kept = {p: alpha for alpha, p in maps.res.items() if p not in spine}
    reduct = Derivation(beta_reduce_at(checked.term, b), flavor, nodes)
    return _check_nodes(reduct, checked, kept), maps


@dataclass(frozen=True)
class _Fired:
    """One step the choice builder fired on `source`: its checked reduct, its
    residual maps, which hold the redex and the root interfaces it fired
    with, the builder's interfaces at the nodes over the redex and the
    residual type isomorphisms under them."""

    source: CheckedDerivation
    reduct: CheckedDerivation
    maps: ResidualMaps
    interfaces: dict[Position, ZeroOneIso]
    types: JudgmentIsos


def reduce_S(checked: CheckedDerivation, b: Position) -> CheckedDerivation:
    """Deterministic subject reduction; the concluding judgment is unchanged.
    It is S_h reduction with the identity root interfaces."""
    if checked.flavor != FLAVOR_S:
        raise ReductionError("reduce_S expects a flavor-S derivation")
    identity = {
        a: {k: k for k in checked.left_seq(a).tracks()} for a in checked.apps_over.get(b, [])
    }
    return _fire(checked, b, identity, FLAVOR_S)[0]


def reduce_Sh(
    checked: CheckedDerivation, b: Position, choice: ReductionChoice
) -> CheckedDerivation:
    if choice.redex != b:
        raise ChoiceError("choice addresses a different redex")
    return _fire(checked, b, choice.per_node, FLAVOR_SH)[0]


# -- residual type isomorphisms ----------------------------------------------


def residual_isos(
    checked: CheckedDerivation, maps: ResidualMaps, interfaces: dict[Position, ZeroOneIso]
) -> JudgmentIsos:
    """Type isomorphisms T(alpha) -> T'(QRes(alpha)) after firing a redex.

    The axiom of the redex variable on track k above a node a over the redex
    moves along the interface at a restricted under k, onto the track
    rho_a(k); every other axiom keeps its type.
    """
    axioms = {
        p: (maps.rho[a][k], interfaces[a].restrict(k))
        for a, by_track in maps.ax_pos.items()
        for k, p in by_track.items()
    }
    return JudgmentIsos(checked, axioms)


def reduce_operable(
    op: OperableDerivation, b: Position
) -> tuple[OperableDerivation, ResidualMaps, JudgmentIsos]:
    """Fire a redex using the derivation's own interface.

    The reduct carries the residual interface, so iterated reduction is
    fully deterministic.  Also returns the residual positions and the
    residual type isomorphisms.  A step its builder already fired, on this
    very derivation at b with these root interfaces, is taken from the op,
    not fired again, and so are its residual type isomorphisms when the
    interfaces over b are the builder's; any other step fires, and drops
    the op's fired steps.
    """
    checked = op.checked
    rho = {a: op.interface[a].roots() for a in checked.apps_over.get(b, [])}
    done = op._fired[0] if op._fired else None
    if done and done.source is checked and done.maps.redex == b and done.maps.rho == rho:
        # the builder fired this very step: same derivation, redex and roots
        new_checked, maps, fired = done.reduct, done.maps, op._fired[1:]
        same = all(op.interface[a] == done.interfaces[a] for a in rho)
    else:
        new_checked, maps = _fire(checked, b, rho, FLAVOR_SH)
        fired, same = (), False
    types = done.types if same else residual_isos(checked, maps, op.interface)
    new_interface = {
        maps.res[alpha]: types.conjugate(alpha, op.interface[alpha])
        for alpha in checked.app_positions()
        if alpha in maps.res
    }
    return _operable(new_checked, new_interface, fired), maps, types


# -- reduction choices on the multiset side ----------------------------------


@dataclass
class RChoice:
    """Per R-node at the redex, by its position: which argument premise
    replaces which axiom of the redex variable.  Each axiom is addressed by
    its position relative to the redex body, `site + (1, 0)`, and mapped to
    the letter 2 + j of the premise that replaces it."""

    redex: Position
    assignments: dict[Position, dict[Position, int]]


def _redex_sites(
    rd: RDerivation, b: Position
) -> tuple[str, dict[Position, RType], list[tuple[Position, list[Position]]]]:
    """The redex variable, the R-type at every node, and the R-nodes at the
    redex in position order, each with the positions, relative to its body,
    of the axioms its abstraction binds (the binder index of `check_R_types`),
    one per argument premise."""
    x = _redex_binder(rd.term, b)
    _, types, bound = check_R_types(rd)
    at_b = [a for a in sorted(bound) if collapse_position(a) == b + (1,)]
    return x, types, [(a[:-1], [p[len(a) + 1 :] for p in bound[a]]) for a in at_b]


def enumerate_r_choices(rd: RDerivation, b: Position) -> list[RChoice]:
    """All type-respecting redex choices, deterministically ordered.

    At each R-node at the redex, the axioms of the redex variable and the
    argument premises are two depth-1 forests of (label, children) nodes
    labelled by their R-types: the axioms on tracks 2, 3, ... in order of
    decreasing R-type key, each key's in position order, and each premise on
    its own letter.  The node's assignments are the forests' 01-isomorphisms, in
    `iter_01_isos` order: the largest key's permutations vary slowest.  The
    choices are the product of the nodes' assignments, each choice with its
    own dicts.
    """
    _, types, sites = _redex_sites(rd, b)
    per_node: list[list[dict[Position, int]]] = []
    for path, ax_paths in sites:
        body = path + (1, 0)
        axioms = sorted(ax_paths, key=lambda p: types[body + p].key, reverse=True)
        left = None, [(i, (types[body + p], ())) for i, p in enumerate(axioms, start=2)]
        right = None, [(j, (types[path + (j,)], ())) for j in range(2, 2 + len(ax_paths))]
        isos = iter_01_isos(left, right, itemgetter(1), itemgetter(0), False)
        per_node.append([{axioms[i - 2]: j for i, j in phi.roots().items()} for phi in isos])
    return [
        RChoice(b, {path: dict(choice) for (path, _), choice in zip(sites, combo)})
        for combo in itertools.product(*per_node)
    ]


def reduce_R(rd: RDerivation, b: Position, choice: RChoice) -> RDerivation:
    """Fire the redex, substituting argument premises per the choice.

    The tree is rebuilt bottom-up in reverse preorder: every argument
    premise is rebuilt before the axioms it replaces, and a redex node is
    replaced by its substituted body.
    """
    if choice.redex != b:
        raise ChoiceError("choice addresses a different redex")
    x, types, sites = _redex_sites(rd, b)
    if set(choice.assignments) != {path for path, _ in sites}:
        raise ChoiceError("choice does not cover exactly the redex nodes")
    replaced: dict[Position, Position] = {}
    for path, ax_paths in sites:
        assignment = choice.assignments[path]
        body = path + (1, 0)
        site = format_position(path)
        if set(assignment) != set(ax_paths):
            raise ChoiceError(f"choice at {site} does not cover the axioms of {x!r}", path)
        if sorted(assignment.values()) != list(range(2, 2 + len(ax_paths))):
            raise ChoiceError(f"choice at {site} is not a bijection onto the premises", path)
        for p, j in assignment.items():
            if types[body + p] != types[path + (j,)]:
                raise ChoiceError(
                    f"type mismatch at {site} for axiom {format_position(p)} and premise {j}",
                    path,
                )
            replaced[body + p] = path + (j,)
    built: dict[Position, RNode] = {}
    for path, node, _ in reversed(list(walk_R(rd.root, rd.term))):
        if path in replaced:
            built[path] = built[replaced[path]]
        elif path in choice.assignments:
            built[path] = built[path + (1, 0)]
        elif isinstance(node, RAxD):
            built[path] = node
        elif isinstance(node, RAbsD):
            built[path] = RAbsD(built[path + (0,)])
        else:
            premises = [built[path + (j,)] for j in range(2, 2 + len(node.args))]
            built[path] = rapp(built[path + (1,)], premises)
    return RDerivation(beta_reduce_at(rd.term, b), built[EPS])


def _r_site(
    checked: CheckedDerivation, a: Position
) -> tuple[Position, dict[Position, Track], dict[int, Track]]:
    """An application node over a redex, read in the collapse: its R-path,
    the tracks of the axioms of the redex variable by their R-paths relative
    to the redex body (the R-path + (1, 0)), and the tracks of its argument
    premises by R-letter."""
    _, rpos = checked.collapse
    path = rpos[a]
    body_len = len(path) + 2
    axioms = {rpos[p][body_len:]: k for k, p in checked.bound_by(a + (1,)).items()}
    return path, axioms, {rpos[a + (k,)][-1]: k for k in checked.right_seq(a).tracks()}


def collapse_choice(
    checked: CheckedDerivation, b: Position, rho_per_node: dict[Position, dict[Track, Track]]
) -> RChoice:
    """The multiset-side choice realized by a rigid root-interface choice."""
    maps = residual_maps(checked, b, rho_per_node)
    assignments: dict[Position, dict[Position, int]] = {}
    for a in maps.nodes_over:
        path, axioms, premises = _r_site(checked, a)
        letter = {k: j for j, k in premises.items()}
        assignments[path] = {p: letter[maps.rho[a][k]] for p, k in axioms.items()}
    return RChoice(b, assignments)


def realize_r_choice(
    checked: CheckedDerivation, b: Position, rchoice: RChoice
) -> dict[Position, dict[Track, Track]]:
    """Root interfaces on the rigid side realizing a multiset-side choice.
    The choice is checked here as `reduce_R` checks it, with its messages,
    but for the types, which `extend_root_interface` matches."""
    x, over = _redex_binder(checked.term, b), checked.apps_over.get(b, [])
    if rchoice.redex != b:
        raise ChoiceError("choice addresses a different redex")
    sites = {a: _r_site(checked, a) for a in over}
    if set(rchoice.assignments) != {path for path, _, _ in sites.values()}:
        raise ChoiceError("choice does not cover exactly the redex nodes")
    rho_per_node: dict[Position, dict[Track, Track]] = {}
    for a, (path, axioms, track_of) in sites.items():
        assignment, site = rchoice.assignments[path], format_position(path)
        if assignment.keys() != axioms.keys():
            raise ChoiceError(f"choice at {site} does not cover the axioms of {x!r}", path)
        for ax_rel, j in assignment.items():
            if j not in track_of:
                raise ChoiceError(
                    f"choice sends axiom {format_position(ax_rel)} at {site}"
                    f" to premise {j}, which the node does not have",
                    path,
                )
        if sorted(assignment.values()) != sorted(track_of):
            raise ChoiceError(f"choice at {site} is not a bijection onto the premises", path)
        rho_per_node[a] = {axioms[p]: track_of[j] for p, j in assignment.items()}
    return rho_per_node


# -- hybrid representatives ---------------------------------------------------


def hybridize(rd: RDerivation) -> Derivation:
    """A hybrid derivation collapsing on the given multiset derivation.

    Every node sits at its `walk_R` position, so the j-th argument premise
    of an application is on the track 2 + j; axioms get the tracks 2, 3, ...
    in preorder.
    """
    check_R(rd)
    counter = itertools.count(2)

    def rigid(rt: RType, kids: list[SType]) -> SType:
        if isinstance(rt, RAtom):
            return SAtom(rt.name)
        return SArrow(seq(enumerate(kids[:-1], start=2)), kids[-1])

    nodes: dict[Position, Node] = {}
    for a, node, _ in walk_R(rd.root, rd.term):
        if isinstance(node, RAxD):
            nodes[a] = AxNode(next(counter), rebuild_type(node.rtype, rigid))
        elif isinstance(node, RAbsD):
            nodes[a] = AbsNode()
        else:
            nodes[a] = AppNode(frozenset(range(2, 2 + len(node.args))))
    return Derivation(rd.term, FLAVOR_SH, nodes)


# -- building choice sequences into one interface ------------------------------


def build_operable_from_choices(
    rd: RDerivation,
    checked: CheckedDerivation,
    choices: list[tuple[Position, RChoice]],
) -> OperableDerivation:
    """Build a total interface on the base derivation encoding the choices.

    Reducing the result step by step with `reduce_operable` at the given
    redex positions collapses, at every step, onto the multiset derivations
    produced by `reduce_R` with the given choices.  Only the base is compared
    with `rd`.  Each choice is checked once, on the rigid side, where
    `realize_r_choice` and `extend_root_interface` reject what `reduce_R`
    would; the theorem (the collapse of the S_h reduct is `reduce_R` of the
    collapse under the realized choice) then guarantees every later collapse,
    so none is compared and `reduce_R` never runs.

    Only the work the result reads is done: the last choice is realized and
    pinned but not fired, and a base node's left and right isomorphisms are
    composed along the fired steps that moved it only when a choice pins
    it; a node that no choice pins gets the least interface.  The result
    carries the fired steps, so replaying it with `reduce_operable` fires
    only the last one.
    """
    if collapse_derivation(checked) != rd:
        raise ChoiceError("the base derivation does not collapse on the given derivation")
    alive: dict[Position, Position] = {a: a for a in checked.app_positions()}
    pinned: dict[Position, ZeroOneIso] = {}
    fired: list[_Fired] = []
    current = checked
    for step, (b_i, rchoice) in enumerate(choices, start=1):
        rho = realize_r_choice(current, b_i, rchoice)
        interfaces_at_b = {a: extend_root_interface(current, a, rho[a]) for a in rho}
        for a0, a_i in list(alive.items()):
            if a_i not in interfaces_at_b:
                continue
            phi, left, right, a = interfaces_at_b[a_i], None, None, a0
            for f in fired:
                if not f.types.fixes(a):
                    left = f.types.left(a) if left is None else f.types.left(a).compose(left)
                    right = f.types.right(a) if right is None else f.types.right(a).compose(right)
                a = f.maps.res[a]
            pinned[a0] = phi if left is None else right.inverse().compose(phi).compose(left)
            del alive[a0]
        if step == len(choices):
            break
        new_checked, maps = _fire(current, b_i, rho, FLAVOR_SH)
        types = residual_isos(current, maps, interfaces_at_b)
        fired.append(_Fired(current, new_checked, maps, interfaces_at_b, types))
        alive = {a0: maps.res[a_i] for a0, a_i in alive.items()}
        current = new_checked
    return _operable(checked, pinned, tuple(fired))
