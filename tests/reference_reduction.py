"""The original rigid reducers, kept as reference oracles.

Before subject reduction went through one step, `reduce_S`, `reduce_Sh` and
`reduce_operable` each fired a redex their own way: typed redexes through
`residual_derivation` with the root interfaces at the nodes over the redex
(the identity ones from `identity_choice` in S), untyped redexes, with no
node over them, through `_reduce_untyped`, and `reduce_operable` built the
residual maps of an untyped redex by hand.  They are copied here verbatim,
with the scan `_nodes_over` they share, and only call the library's
`residual_maps` and `residual_isos`.  `test_reduction_differential.py`
compares the library's reducers against them, and
`reference_judgment_isos.py` builds its choice-built interfaces on
`residual_derivation`.
"""

from __future__ import annotations

from seqtypes.derivations import (
    AppNode,
    CheckedDerivation,
    Derivation,
    FLAVOR_S,
    FLAVOR_SH,
    JudgmentIsos,
    Node,
    check_derivation,
)
from seqtypes.positions import Position, Track, ZeroOneIso, collapse_position, format_position
from seqtypes.reduction import (
    ChoiceError,
    OperableDerivation,
    ReductionChoice,
    ReductionError,
    ResidualMaps,
    residual_isos,
    residual_maps,
)
from seqtypes.terms import Abs, App, beta_reduce_at, subterm_at


def _nodes_over(checked: CheckedDerivation, b: Position) -> list[Position]:
    return sorted(
        a
        for a in checked.support()
        if collapse_position(a) == b and isinstance(checked.node(a), AppNode)
    )


def residual_derivation(
    checked: CheckedDerivation,
    b: Position,
    rho_per_node: dict[Position, dict[Track, Track]],
) -> tuple[Derivation, ResidualMaps]:
    maps = residual_maps(checked, b, rho_per_node)
    new_term = beta_reduce_at(checked.term, b)
    new_nodes: dict[Position, Node] = {}
    for alpha, node in checked.nodes.items():
        target = maps.res.get(alpha)
        if target is not None:
            new_nodes[target] = node
    return Derivation(new_term, checked.flavor, new_nodes), maps


def identity_choice(checked: CheckedDerivation, b: Position) -> dict[Position, dict[Track, Track]]:
    out = {}
    for a in _nodes_over(checked, b):
        tracks = checked.left_seq(a).tracks()
        out[a] = {k: k for k in tracks}
    return out


def reduce_S(checked: CheckedDerivation, b: Position) -> CheckedDerivation:
    """Deterministic subject reduction; the concluding judgment is unchanged."""
    if checked.flavor != FLAVOR_S:
        raise ReductionError("reduce_S expects a flavor-S derivation")
    if not _nodes_over(checked, b):
        return _reduce_untyped(checked, b)
    deriv, _ = residual_derivation(checked, b, identity_choice(checked, b))
    return check_derivation(deriv)


def reduce_Sh(
    checked: CheckedDerivation, b: Position, choice: ReductionChoice
) -> CheckedDerivation:
    if choice.redex != b:
        raise ChoiceError("choice addresses a different redex")
    if not _nodes_over(checked, b):
        return _reduce_untyped(checked, b)
    deriv, _ = residual_derivation(checked, b, choice.per_node)
    deriv = Derivation(deriv.term, FLAVOR_SH, deriv.nodes)
    return check_derivation(deriv)


def _reduce_untyped(checked: CheckedDerivation, b: Position) -> CheckedDerivation:
    subj = subterm_at(checked.term, b)
    if not (isinstance(subj, App) and isinstance(subj.left, Abs)):
        raise ReductionError(f"no redex at {format_position(b)}")
    new_term = beta_reduce_at(checked.term, b)
    return check_derivation(Derivation(new_term, checked.flavor, dict(checked.nodes)))


def reduce_operable(
    op: OperableDerivation, b: Position
) -> tuple[OperableDerivation, ResidualMaps, JudgmentIsos]:
    """Fire a redex using the derivation's own interface.

    The reduct carries the residual interface, so iterated reduction is
    fully deterministic.  Also returns the residual positions and the
    residual type isomorphisms.
    """
    checked = op.checked
    if not _nodes_over(checked, b):
        reduced = _reduce_untyped(checked, b)
        new_interface = {a: op.interface[a] for a in reduced.app_positions()}
        maps = ResidualMaps(b, [], {}, {}, {a: a for a in checked.support()}, {})
        return OperableDerivation(reduced, new_interface), maps, JudgmentIsos(checked, {})
    rho = {a: op.interface[a].roots() for a in _nodes_over(checked, b)}
    deriv, maps = residual_derivation(checked, b, rho)
    deriv = Derivation(deriv.term, FLAVOR_SH, deriv.nodes)
    new_checked = check_derivation(deriv)
    types = residual_isos(checked, maps, op.interface)
    new_interface: dict[Position, ZeroOneIso] = {}
    inverse_res = {v: k for k, v in maps.res.items()}
    for a2 in new_checked.app_positions():
        alpha = inverse_res[a2]
        new_interface[a2] = types.conjugate(alpha, op.interface[alpha])
    return OperableDerivation(new_checked, new_interface), maps, types
