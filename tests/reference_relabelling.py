"""The three-step type relabelling, kept as a reference oracle.

Before `stypes.relabel_type`, resetting relabelled an axiom type in three
steps: `Relabelling01` validated the new tracks, `apply_relabelling` built
the image of the whole support top-down (with a recursive helper) to get
the 01-isomorphism, and `_relabel_type` rebuilt the type recursively from
that isomorphism.  They are copied here verbatim; only the imports differ.
`test_relabel_differential.py` compares `relabel_type` against them, and
`test_isos_differential.py` relabels its random supports with them.

`DerivationRelabelling` is the three-dict form a derivation relabelling had
before it became a derivation isomorphism with new axiom nodes: new tracks
for the argument premises, for each axiom type's mutable positions, and for
each axiom, all keyed by whole positions.  `as_dicts` reads that form
off a `seqtypes.trivialize` relabelling, so the reference oracles keep
taking it.  `random_relabelling` is the dict-building original of
`trivialize.random_relabelling`: it makes the same `rng` calls in the same
order, so a second `random.Random` with the same seed gives the letters the
library drew, independently of the isomorphism it built from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from seqtypes.derivations import AppNode, AxNode, CheckedDerivation
from seqtypes.positions import (
    EPS,
    Position,
    Track,
    ZeroOneIso,
    format_position,
)
from seqtypes.stypes import RelabellingError, SArrow


@dataclass(frozen=True)
class Relabelling01:
    """New tracks for the mutable positions of one support (sibling-injective)."""

    assignment: dict[Position, Track]

    def __post_init__(self) -> None:
        for a, k in self.assignment.items():
            if not a or a[-1] < 2:
                raise RelabellingError(f"{format_position(a)} is not a mutable position")
            if k < 2:
                raise RelabellingError(f"new track {k} is not mutable")
        seen: dict[tuple[Position, Track], Position] = {}
        for a, k in self.assignment.items():
            key = (a[:-1], k)
            if key in seen and seen[key] != a:
                raise RelabellingError(
                    f"siblings {format_position(seen[key])} and {format_position(a)} "
                    f"both relabelled to {k}"
                )
            seen[key] = a

    def __call__(self, a: Position) -> Track:
        return self.assignment[a]


def apply_relabelling(
    u: frozenset[Position], relab: Relabelling01
) -> tuple[frozenset[Position], ZeroOneIso]:
    """Reset the support, replacing mutable tracks top-down per the relabelling."""
    positions = frozenset(u)
    mutable = {a for a in positions if a and a[-1] >= 2}
    missing = mutable - set(relab.assignment)
    if missing:
        raise RelabellingError(
            f"relabelling undefined on {format_position(sorted(missing)[0])}"
        )
    mapping: dict[Position, Position] = {}

    def image(a: Position) -> Position:
        if a in mapping:
            return mapping[a]
        if not a:
            mapping[a] = EPS
            return EPS
        parent = image(a[:-1])
        k = a[-1]
        b = parent + (k if k < 2 else relab(a),)
        mapping[a] = b
        return b

    for a in sorted(positions):
        image(a)
    out = frozenset(mapping[a] for a in positions)
    return out, ZeroOneIso({a: mapping[a] for a in positions})


def _relabel_type(stype, phi: ZeroOneIso):
    """Rebuild an S-type along a 01-resetting of its support."""
    from seqtypes.stypes import SAtom, seq

    def rebuild(u, prefix: Position):
        if isinstance(u, SAtom):
            return u
        entries = {}
        for k, s in u.source.items():
            new_k = phi.mapping[prefix + (k,)][-1]
            entries[new_k] = rebuild(s, prefix + (k,))
        return SArrow(seq(entries), rebuild(u.target, prefix + (1,)))

    return rebuild(stype, EPS)


@dataclass
class DerivationRelabelling:
    """New tracks for the argument edges, the axiom types and axiom tracks."""

    arg: dict[Position, Track]
    axiom_types: dict[Position, dict[Position, Track]]
    axiom_tracks: dict[Position, Track]


def as_dicts(checked: CheckedDerivation, relab) -> DerivationRelabelling:
    """The three dicts of a relabelling of `checked`: the argument letters
    (those >= 2) of its support map, the image letter of every mutable
    position under each axiom's type isomorphism, and the new axioms' tracks."""
    iso, axioms = relab
    arg = {a: b[-1] for a, b in iso.supp_map.mapping.items() if a and a[-1] >= 2}
    axiom_types = {
        a: {c: phi(c)[-1] for c in checked.type_at(a).mutable_positions}
        for a, phi in iso.axiom_isos.items()
    }
    axiom_tracks = {a: node.track for a, node in axioms.items()}
    return DerivationRelabelling(arg, axiom_types, axiom_tracks)


def random_relabelling(checked: CheckedDerivation, rng) -> DerivationRelabelling:
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
    axiom_types: dict[Position, dict[Position, Track]] = {}
    axiom_tracks: dict[Position, Track] = {}
    axioms = checked.axiom_positions()
    track_pool = list(range(2, 2 + 3 * len(axioms) + 2))
    rng.shuffle(track_pool)
    for a, new_track in zip(axioms, track_pool):
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
        axiom_types[a] = assignment
        axiom_tracks[a] = new_track
    return DerivationRelabelling(arg, axiom_types, axiom_tracks)
