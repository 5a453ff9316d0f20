"""The derivation file as the library wrote it before `dumps_derivation`
wrote it piece by piece, kept as the oracle of
`test_writer_differential.py`.

`derivation_to_json` is the library's former builder of the file's JSON
object, moved here verbatim; `dumps_reference` hands that object to
`json.dumps(..., indent=2)` as the library's former `dumps_derivation` did.
"""

from __future__ import annotations

import json

from seqtypes.derivations import AbsNode, AxNode, Derivation
from seqtypes.positions import format_position
from seqtypes.stypes import print_type
from seqtypes.terms import print_term


def derivation_to_json(deriv: Derivation) -> dict:
    entries = []
    for a in sorted(deriv.nodes):
        node = deriv.nodes[a]
        if isinstance(node, AxNode):
            entries.append(
                {
                    "pos": format_position(a),
                    "kind": "ax",
                    "track": node.track,
                    "type": print_type(node.stype),
                }
            )
        elif isinstance(node, AbsNode):
            entries.append({"pos": format_position(a), "kind": "abs"})
        else:
            entries.append(
                {"pos": format_position(a), "kind": "app", "args": sorted(node.arg_tracks)}
            )
    return {"term": print_term(deriv.term), "flavor": deriv.flavor, "nodes": entries}


def dumps_reference(deriv: Derivation) -> str:
    return json.dumps(derivation_to_json(deriv), indent=2) + "\n"
