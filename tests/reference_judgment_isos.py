"""The two induced-isomorphism builders, kept as reference oracles.

These are the original per-use constructions of the isomorphism a
derivation isomorphism or a reduction step induces at every judgment.
`NodeIsos` derives it on demand, memoized, for resetting and verification:
it finds each abstraction's axioms with `pos_of`, one `axioms_above` walk
(the original one, which looks every subterm up from the root) per context
track, and the domain of every application's restriction with
the type's support.  `ResidualTypes` derives it for a reduction step, with a
special case for the nodes over the redex and identities elsewhere.
`verify_derivation_iso`, the conjugations of `reset_interface` and
`reduce_interface`, and `build_operable_from_choices` are the original
callers.  `test_judgment_isos_differential.py` compares
`derivations.JudgmentIsos` against them.

`build_operable_from_choices` is also the original chained builder: it
realizes each choice with the original `realize_r_choice`, which checks
only what it reads, and compares every collapse on the way with the
`reduce_R` chain, which rejects the rest.  It extends each root mapping
with the original `extend_root_interface`, which lets a mapping that is
not a bijection raise the `KeyError` or `IsoShapeError` it meets, where
the library's raises `ChoiceError`.  `test_derived_reducts.py` holds the
library's builder, which checks each choice once on the rigid side,
against it on malformed choices.

They keep the isomorphism as it then was, `DictIso`: a dict from positions
to positions, with `inverse` and `compose` on the dicts.  Isomorphisms that
come from `seqtypes`, a `DerivationIso`'s support map too, are read through
their `.mapping`; the interfaces of
the `OperableDerivation` they build are turned back into `ZeroOneIso`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from seqtypes.derivations import (
    AbsNode,
    AppNode,
    AxNode,
    CheckedDerivation,
    Derivation,
    FLAVOR_SH,
    RDerivation,
    check_derivation,
    collapse_derivation,
)
from seqtypes.positions import EPS, Position, Track, ZeroOneIso, format_position
from seqtypes.reduction import (
    ChoiceError,
    OperableDerivation,
    RChoice,
    ResidualMaps,
    _redex_binder,
    default_interface,
    reduce_R,
)
from seqtypes.stypes import SArrow, identity_iso, iter_type_isos
from seqtypes.terms import Abs, Var, alpha_key, subterm_at
from seqtypes.trivialize import DerivationIso

from reference_reduction import residual_derivation
from reference_types import check_01_iso, check_type_iso


@dataclass(frozen=True)
class DictIso:
    """A 01-isomorphism as a dict from whole positions to whole positions."""

    mapping: dict[Position, Position]

    def inverse(self) -> "DictIso":
        return DictIso({v: k for k, v in self.mapping.items()})

    def compose(self, inner) -> "DictIso":
        """self o inner."""
        return DictIso({a: self.mapping[b] for a, b in inner.mapping.items()})


def as_dict(iso) -> DictIso:
    return DictIso(dict(iso.mapping))


def axioms_above(checked: CheckedDerivation, a: Position, x: str) -> set[Position]:
    """Axioms above `a` typing occurrences of x not rebound in between."""
    out: set[Position] = set()
    stack = [a]
    while stack:
        p = stack.pop()
        subj = subterm_at(checked.term, p)
        if isinstance(subj, Abs) and subj.binder == x:
            continue
        node = checked.nodes[p]
        if isinstance(node, AxNode):
            if isinstance(subj, Var) and subj.name == x:
                out.add(p)
        else:
            stack.extend(p + (k,) for k in checked._children[p])
    return out


def pos_of(checked: CheckedDerivation, a: Position, x: str, k: Track) -> Position:
    for a0 in axioms_above(checked, a, x):
        if checked.node(a0).track == k:
            return a0
    raise KeyError(f"no axiom of {x!r} with track {k} above {format_position(a)}")


class IsoMismatch(ValueError):
    pass


class NodeIsos:
    """Derive the per-judgment type isomorphisms induced by a derivation iso.

    Everything follows from the support map and the axiom isos: contexts
    transport along the matched axioms, abstraction and application types
    are rebuilt structurally.
    """

    def __init__(
        self,
        c1: CheckedDerivation,
        c2: CheckedDerivation,
        supp_map: dict[Position, Position],
        axiom_isos: dict[Position, ZeroOneIso],
    ) -> None:
        self.c1 = c1
        self.c2 = c2
        self.supp_map = supp_map
        self.axiom_isos = axiom_isos
        self._memo: dict[Position, DictIso] = {}

    def node_iso(self, a: Position) -> DictIso:
        if a in self._memo:
            return self._memo[a]
        node = self.c1.node(a)
        if isinstance(node, AxNode):
            iso = as_dict(self.axiom_isos[a])
        elif isinstance(node, AbsNode):
            subj = subterm_at(self.c1.term, a)
            assert isinstance(subj, Abs)
            ctx_iso = self.context_iso(a + (0,), subj.binder)
            target = self.node_iso(a + (0,))
            mapping = {EPS: EPS, **ctx_iso.mapping}
            for c, c2 in target.mapping.items():
                mapping[(1,) + c] = (1,) + c2
            iso = DictIso(mapping)
        else:
            inner = self.node_iso(a + (1,))
            sup = self.c1.type_at(a).support
            try:
                iso = DictIso({c: inner.mapping[(1,) + c][1:] for c in sup})
            except KeyError as exc:
                raise IsoMismatch(f"target mismatch at {format_position(a)}") from exc
        self._memo[a] = iso
        return iso

    def context_iso(self, a: Position, x: str) -> DictIso:
        mapping: dict[Position, Position] = {}
        for k in sorted(self.c1.node(a0).track for a0 in axioms_above(self.c1, a, x)):
            a0 = pos_of(self.c1, a, x, k)
            image = self.supp_map[a0]
            node2 = self.c2.node(image)
            if not isinstance(node2, AxNode):
                raise IsoMismatch(f"axiom {format_position(a0)} not matched to an axiom")
            inner = self.node_iso(a0)
            for c, c2 in inner.mapping.items():
                mapping[(k,) + c] = (node2.track,) + c2
        return DictIso(mapping)

    def left_iso(self, a: Position) -> DictIso:
        inner = self.node_iso(a + (1,))
        sup = self.c1.left_seq(a).support
        return DictIso({c: inner.mapping[c] for c in sup})

    def right_iso(self, a: Position) -> DictIso:
        node = self.c1.node(a)
        assert isinstance(node, AppNode)
        mapping: dict[Position, Position] = {}
        for k in node.arg_tracks:
            k2 = self.supp_map[a + (k,)][-1]
            inner = self.node_iso(a + (k,))
            for c, c2 in inner.mapping.items():
                mapping[(k,) + c] = (k2,) + c2
        return DictIso(mapping)


def verify_derivation_iso(
    c1: CheckedDerivation,
    c2: CheckedDerivation,
    iso: DerivationIso,
    interface1: Optional[dict[Position, ZeroOneIso]] = None,
    interface2: Optional[dict[Position, ZeroOneIso]] = None,
) -> bool:
    """All hybrid-iso clauses; with interfaces, also the commuting square."""
    if alpha_key(c1.term) != alpha_key(c2.term):
        return False
    supp1, supp2 = c1.support(), c2.support()
    supp_map = dict(iso.supp_map.mapping)
    try:
        if not check_01_iso(supp1, supp2, supp_map):
            return False
    except ValueError:
        return False
    if set(iso.axiom_isos) != set(c1.axiom_positions()):
        return False
    derived = NodeIsos(c1, c2, supp_map, iso.axiom_isos)
    try:
        for a in supp1:
            if type(c1.node(a)) is not type(c2.node(supp_map[a])):
                return False
            if not check_type_iso(
                c1.type_at(a), c2.type_at(supp_map[a]), derived.node_iso(a).mapping
            ):
                return False
        if interface1 is not None and interface2 is not None:
            for a in c1.app_positions():
                a2 = supp_map[a]
                left = derived.left_iso(a)
                right = derived.right_iso(a)
                lhs = right.compose(interface1[a])
                rhs = as_dict(interface2[a2]).compose(left)
                if lhs.mapping != rhs.mapping:
                    return False
    except (IsoMismatch, KeyError):
        return False
    return True


class ResidualTypes:
    """Type isomorphisms T(alpha) -> T'(QRes(alpha)) after firing a redex.

    Requires a full interface at every node over the redex; other types are
    affected only when their subtree contains an axiom of the redex variable.
    """

    def __init__(
        self,
        checked: CheckedDerivation,
        maps: ResidualMaps,
        interfaces_at_b: dict[Position, ZeroOneIso],
    ) -> None:
        self.checked = checked
        self.maps = maps
        self.interfaces = interfaces_at_b
        self._memo: dict[Position, DictIso] = {}
        self._affected: set[Position] = set()
        for ax in maps.x_axioms():
            for i in range(len(ax) + 1):
                self._affected.add(ax[:i])
        self._nodes_over = set(maps.nodes_over)
        self._axiom_node: dict[Position, Position] = {}
        for a, by_track in maps.ax_pos.items():
            for k, p in by_track.items():
                self._axiom_node[p] = a

    def iso(self, alpha: Position) -> DictIso:
        if alpha in self._memo:
            return self._memo[alpha]
        result = self._compute(alpha)
        self._memo[alpha] = result
        return result

    def _compute(self, alpha: Position) -> DictIso:
        checked = self.checked
        if alpha not in self._affected:
            return as_dict(identity_iso(checked.type_at(alpha)))
        if alpha in self._axiom_node:
            a = self._axiom_node[alpha]
            node = checked.node(alpha)
            assert isinstance(node, AxNode)
            k_left = node.track
            phi = self.interfaces[a]
            sup = checked.type_at(alpha).support
            return DictIso({c: phi.mapping[(k_left,) + c][1:] for c in sup})
        if alpha in self._nodes_over:
            return self.iso(alpha + (1, 0))
        node = checked.node(alpha)
        if isinstance(node, AbsNode):
            inner = self.iso(alpha + (0,))
            arrow = checked.type_at(alpha)
            assert isinstance(arrow, SArrow)
            src_sup = arrow.source.support
            mapping: dict[Position, Position] = {EPS: EPS}
            for c in src_sup:
                mapping[c] = c
            for c, c2 in inner.mapping.items():
                mapping[(1,) + c] = (1,) + c2
            return DictIso(mapping)
        if isinstance(node, AppNode):
            inner = self.iso(alpha + (1,))
            sup = checked.type_at(alpha).support
            return DictIso({c: inner.mapping[(1,) + c][1:] for c in sup})
        raise AssertionError("variable nodes other than redex axioms are unaffected")

    def res_left(self, alpha: Position) -> DictIso:
        """L(alpha) -> L'(alpha') for an application node not over the redex."""
        psi = self.iso(alpha + (1,))
        sup = self.checked.left_seq(alpha).support
        return DictIso({c: psi.mapping[c] for c in sup})

    def res_right(self, alpha: Position) -> DictIso:
        node = self.checked.node(alpha)
        assert isinstance(node, AppNode)
        mapping: dict[Position, Position] = {}
        for k in node.arg_tracks:
            inner = self.iso(alpha + (k,))
            for c, c2 in inner.mapping.items():
                mapping[(k,) + c] = (k,) + c2
        return DictIso(mapping)


def reset_interface(
    checked: CheckedDerivation,
    new_checked: CheckedDerivation,
    iso: DerivationIso,
    interface: dict[Position, ZeroOneIso],
) -> dict[Position, DictIso]:
    """The conjugated interface of `reset_derivation`."""
    supp_map, axiom_isos = dict(iso.supp_map.mapping), iso.axiom_isos
    derived = NodeIsos(checked, new_checked, supp_map, axiom_isos)
    new_interface = {}
    for a in checked.app_positions():
        left = derived.left_iso(a)
        right = derived.right_iso(a)
        new_interface[supp_map[a]] = right.compose(interface[a]).compose(left.inverse())
    return new_interface


def reduce_interface(
    op: OperableDerivation, maps: ResidualMaps, new_checked: CheckedDerivation
) -> tuple[dict[Position, DictIso], "ResidualTypes"]:
    """The residual interface and types of `reduce_operable` at a typed redex."""
    types = ResidualTypes(op.checked, maps, {a: op.interface[a] for a in maps.nodes_over})
    new_interface: dict[Position, DictIso] = {}
    inverse_res = {v: k for k, v in maps.res.items()}
    for a2 in new_checked.app_positions():
        alpha = inverse_res[a2]
        res_l = types.res_left(alpha)
        res_r = types.res_right(alpha)
        phi = op.interface[alpha]
        new_interface[a2] = res_r.compose(phi).compose(res_l.inverse())
    return new_interface, types


def realize_r_choice(
    checked: CheckedDerivation, b: Position, rchoice: RChoice
) -> dict[Position, dict[Track, Track]]:
    """Root interfaces on the rigid side realizing a multiset-side choice,
    read at the nodes over b only: the redex it names, keys of other nodes,
    extra axiom keys and two axioms sent to one premise go unnoticed."""
    _, rpos = checked.collapse
    rho_per_node: dict[Position, dict[Track, Track]] = {}
    _redex_binder(checked.term, b)
    for a in checked.apps_over.get(b, []):
        if rpos[a] not in rchoice.assignments:
            raise ChoiceError(f"choice missing the redex node at {format_position(a)}")
        assignment = rchoice.assignments[rpos[a]]
        body_len = len(rpos[a]) + 2
        node = checked.node(a)
        assert isinstance(node, AppNode)
        track_of = {rpos[a + (k,)][-1]: k for k in node.arg_tracks}
        rho: dict[Track, Track] = {}
        for k, p in checked.bound_by(a + (1,)).items():
            ax_rel = rpos[p][body_len:]
            if ax_rel not in assignment:
                raise ChoiceError(
                    f"choice missing axiom {format_position(ax_rel)} at {format_position(a)}"
                )
            j = assignment[ax_rel]
            if j not in track_of:
                raise ChoiceError(
                    f"choice sends axiom {format_position(ax_rel)} at {format_position(a)}"
                    f" to premise {j}, which the node does not have"
                )
            rho[k] = track_of[j]
        rho_per_node[a] = rho
    return rho_per_node


def extend_root_interface(
    checked: CheckedDerivation, a: Position, rho: dict[Track, Track]
) -> ZeroOneIso:
    """Lexicographically least interface extending the given root mapping."""
    left, right = checked.left_seq(a), checked.right_seq(a)
    kids: dict[Track, tuple[Track, ZeroOneIso]] = {}
    for k, s in left.items():
        k2 = rho[k]
        iso = next(iter_type_isos(s, right.get(k2)), None)
        if iso is None:
            raise ChoiceError(
                f"root mapping {k} -> {k2} at {format_position(a)} not extendable", a
            )
        kids[k] = (k2, iso)
    return ZeroOneIso.node(kids, tree=False)


def build_operable_from_choices(
    rd: RDerivation,
    base: OperableDerivation | CheckedDerivation,
    choices: list[tuple[Position, RChoice]],
) -> OperableDerivation:
    """Build a total interface on the base derivation encoding the choices.

    Reducing the result step by step with `reduce_operable` at the given
    redex positions collapses, at every step, onto the multiset derivations
    produced by `reduce_R` with the given choices.  Every derivation on the
    way is collapsed once, for the consistency check, and the choice is
    realized on that same collapse.
    """
    checked = base.checked if isinstance(base, OperableDerivation) else base
    if collapse_derivation(checked) != rd:
        raise ChoiceError("the base derivation does not collapse on the given derivation")
    alive: dict[Position, Position] = {a: a for a in checked.app_positions()}
    acc_left = {a: as_dict(identity_iso(checked.left_seq(a))) for a in alive}
    acc_right = {a: as_dict(identity_iso(checked.right_seq(a))) for a in alive}
    pinned: dict[Position, DictIso] = {}
    current = checked
    current_rd = rd
    for b_i, rchoice in choices:
        if collapse_derivation(current) != current_rd:
            raise ChoiceError("choice sequence inconsistent with the collapse")
        rho = realize_r_choice(current, b_i, rchoice)
        interfaces_at_b = {a: extend_root_interface(current, a, rho[a]) for a in rho}
        for a0, a_i in list(alive.items()):
            if a_i in interfaces_at_b:
                pinned[a0] = (
                    acc_right[a0].inverse().compose(interfaces_at_b[a_i]).compose(acc_left[a0])
                )
                del alive[a0]
        deriv, maps = residual_derivation(current, b_i, rho)
        deriv = Derivation(deriv.term, FLAVOR_SH, deriv.nodes)
        new_checked = check_derivation(deriv)
        types = ResidualTypes(current, maps, interfaces_at_b)
        for a0, a_i in list(alive.items()):
            acc_left[a0] = types.res_left(a_i).compose(acc_left[a0])
            acc_right[a0] = types.res_right(a_i).compose(acc_right[a0])
            alive[a0] = maps.res[a_i]
        current = new_checked
        current_rd = reduce_R(current_rd, b_i, rchoice)
    interface = {a0: ZeroOneIso(iso.mapping) for a0, iso in pinned.items()}
    for a0 in checked.app_positions():
        if a0 not in interface:
            interface[a0] = default_interface(checked, a0)
    return OperableDerivation(checked, interface)
