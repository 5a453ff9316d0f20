"""Derivation isomorphisms with a dict support map, kept as the reference
oracle of `test_derivation_isos_differential.py`.

Before every isomorphism was a `ZeroOneIso`, `DerivationIso.supp_map` was a
dict from the positions of one derivation's support to the other's.
`verify_derivation_iso` checked its shape clause by clause with
`check_01_iso` inside a `try/except ValueError`, and compared the rule of
every node with its image's; `enumerate_derivation_isos` handed it each
support isomorphism's `.mapping`; `reset_derivation` built it position by
position from the relabelling, by the loop that `reset_support_map` keeps.
The code below is that code, verbatim; only the imports differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from seqtypes.derivations import CheckedDerivation, JudgmentIsos
from seqtypes.positions import (
    EPS,
    DomainMismatchError,
    IsoShapeError,
    Position,
    ZeroOneIso,
    iter_01_isos,
)
from seqtypes.stypes import check_type_iso, iter_type_isos
from seqtypes.trivialize import _lazy_product, support_children, support_label

from reference_relabelling import DerivationRelabelling
from reference_terms import alpha_key
from reference_types import check_01_iso


@dataclass
class DerivationIso:
    """01-isomorphism of supports plus one type isomorphism per axiom."""

    supp_map: dict[Position, Position]
    axiom_isos: dict[Position, ZeroOneIso]

    def judgment_isos(self, c1: CheckedDerivation, c2: CheckedDerivation) -> JudgmentIsos:
        """The type isomorphisms induced at every judgment of c1; the axioms
        of c2 give the new axiom tracks."""
        axioms = {a: (c2.nodes[self.supp_map[a]].track, phi) for a, phi in self.axiom_isos.items()}
        args = {a: b[-1] for a, b in self.supp_map.items() if a and a[-1] >= 2}
        return JudgmentIsos(c1, axioms, args)


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
    supp_map = iso.supp_map
    try:
        if not check_01_iso(c1.support(), c2.support(), supp_map):
            return False
    except ValueError:
        return False
    if set(iso.axiom_isos) != set(c1.axiom_positions()):
        return False
    if any(type(node) is not type(c2.nodes[supp_map[a]]) for a, node in c1.nodes.items()):
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
                if interface1[a].conjugate(derived.left(a), derived.right(a)) != interface2[a2]:
                    return False
    except (DomainMismatchError, IsoShapeError, KeyError):
        return False
    return True


def enumerate_derivation_isos(
    c1: CheckedDerivation, c2: CheckedDerivation, limit: int = 64
) -> list[DerivationIso]:
    """Hybrid-derivation isomorphisms, up to the given budget.  Support
    isomorphisms and each axiom's type isomorphisms are drawn lazily, so the
    search stops once `limit` are found."""
    if alpha_key(c1.term) != alpha_key(c2.term):
        return []
    out: list[DerivationIso] = []
    axioms = c1.axiom_positions()
    for supp_iso in iter_01_isos((c1, EPS), (c2, EPS), support_children, support_label, True):
        factors = [iter_type_isos(c1.type_at(a), c2.type_at(supp_iso(a))) for a in axioms]
        for combo in _lazy_product(factors):
            candidate = DerivationIso(supp_iso.mapping, dict(zip(axioms, combo)))
            if verify_derivation_iso(c1, c2, candidate):
                out.append(candidate)
            if len(out) >= limit:
                return out
    return out


def reset_support_map(
    checked: CheckedDerivation, relab: DerivationRelabelling
) -> dict[Position, Position]:
    """The support map `reset_derivation` built for this relabelling."""
    supp_map: dict[Position, Position] = {}
    for a in sorted(checked.support()):
        if not a:
            supp_map[a] = EPS
        else:
            k = a[-1]
            new_k = k if k < 2 else relab.arg[a]
            supp_map[a] = supp_map[a[:-1]] + (new_k,)
    return supp_map
