"""Self-test of the benchmark's checks: each accepts a genuine output and
rejects a deliberately corrupted one.

    python3 perfbench/selftest.py

Corruptions: a trivial derivation with two argument tracks swapped, a
reduct built with a different choice (corpus and choices), and a
non-least interface given to the CLI (iso-enum).  Exits 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from seqtypes import cli  # noqa: E402
from seqtypes.derivations import (  # noqa: E402
    AbsNode,
    AppNode,
    AxNode,
    Derivation,
    GenBudget,
    check_derivation,
    dumps_derivation,
    generate_normal_form_derivations,
)
from seqtypes.positions import EPS, format_position  # noqa: E402
from seqtypes.reduction import OperableDerivation, interfaces_at, reduce_operable  # noqa: E402
from seqtypes.stypes import SArrow, SAtom, seq  # noqa: E402
from seqtypes.terms import parse_term  # noqa: E402

import workloads as w  # noqa: E402
from spans import NULL  # noqa: E402

SEED = 1
failures: list[str] = []


def expect(name: str, check, item, output, accept: bool) -> None:
    try:
        check(item, output)
        accepted = True
    except w.CheckFailed as exc:
        accepted, reason = False, str(exc)
    if accepted != accept:
        failures.append(f"{name}: {'rejected' if accept else 'accepted'}")
    print(f"{'ok ' if accepted == accept else 'BAD'} {name}:"
          f" {'accepted' if accepted else 'rejected (' + reason + ')'}")


def swap_argument_tracks(checked, a):
    """The derivation with the subderivations on two argument tracks of
    the application at `a` exchanged: still S_h, no longer trivial."""
    k1, k2 = sorted(checked.node(a).arg_tracks)[:2]
    swap = {k1: k2, k2: k1}
    nodes = {}
    for pos, node in checked.nodes.items():
        n = len(a)
        if pos[:n] == a and len(pos) > n and pos[n] in swap:
            pos = a + (swap[pos[n]],) + pos[n + 1 :]
        nodes[pos] = node
    return check_derivation(Derivation(checked.term, "Sh", nodes))


def test_swapped_tracks() -> None:
    base = check_derivation(w.wide_derivation(2))
    assert base.derivation == generate_normal_form_derivations(
        parse_term("v (w u) (w u)"), GenBudget(width=2, limit=100))[-1], \
        "the closed form of v (w u)^2 is the generator's widest derivation"
    item = w.setup_wide(SEED, NULL, "")[1]
    result, verified = w.run_wide(item, NULL)
    expect("wide: genuine trivial derivation", w.check_wide, item, (result, verified), True)
    swapped = swap_argument_tracks(result.trivial, EPS)
    result.trivial = swapped
    expect("wide: trivial derivation with two tracks swapped", w.check_wide, item,
           (result, verified), False)


def two_choice_redex() -> Derivation:
    """(\\x. (f x) x) (g w), with x typed twice by o and the two argument
    premises collapse-equal in type but different: the two root interfaces
    at the redex give different reducts."""
    o, a = SAtom("o"), SAtom("A")
    nodes = {
        EPS: AppNode(frozenset({2, 3})),
        (1,): AbsNode(),
        (1, 0): AppNode(frozenset({3})),
        (1, 0, 3): AxNode(7, o),
        (1, 0, 1): AppNode(frozenset({2})),
        (1, 0, 1, 2): AxNode(2, o),
        (1, 0, 1, 1): AxNode(5, SArrow(seq({2: o}), SArrow(seq({3: o}), a))),
        (2,): AppNode(frozenset({4})),
        (2, 1): AxNode(6, SArrow(seq({4: o}), o)),
        (2, 4): AxNode(8, o),
        (3,): AppNode(frozenset()),
        (3, 1): AxNode(9, SArrow(seq({}), o)),
    }
    return Derivation(parse_term("(\\x. (f x) x) (g w)"), "Sh", nodes)


def test_other_choice_reduct() -> None:
    checked = check_derivation(two_choice_redex())
    interface = {a: interfaces_at(checked, a)[0] for a in checked.app_positions()}
    item = w.CorpusItem(dumps_derivation(checked.derivation), interface,
                        w.typed_redexes(checked), len(checked.nodes))
    out = w.run_corpus(item, NULL)
    expect("corpus: genuine reducts", w.check_corpus, item, out, True)
    other = next(iso for iso in interfaces_at(checked, EPS)
                 if w.root_of(iso) != w.root_of(interface[EPS]))
    op = OperableDerivation(out.checked, {**interface, EPS: other})
    out.reducts[item.redexes.index(EPS)] = reduce_operable(op, EPS)[0]
    expect("corpus: reduct built with the other choice", w.check_corpus, item, out, False)


def test_other_choice_sequence() -> None:
    items = w.setup_choices(SEED, NULL, "")
    singles = [i for i in items if len(i.sequence) == 1]
    for x in singles:
        for y in singles:
            if x.group == y.group and x.expected[0] != y.expected[0]:
                expect("choices: genuine collapses", w.check_choices, x, w.run_choices(x, NULL), True)
                expect("choices: reduct built with a different choice", w.check_choices, x,
                       w.run_choices(y, NULL), False)
                return
    failures.append("choices: no instance with two choices of different reducts")


def test_non_least_interface() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        items = w.setup_iso(SEED, NULL, workdir)
        w.write_iso_files(items)
        item = next(i for i in items if i.k == 3)
        expect("iso-enum: genuine CLI output", w.check_iso, item, w.run_iso(item, NULL), True)
        lefts = sorted(item.least)
        other = dict(item.least)
        other[lefts[0]], other[lefts[1]] = item.least[lefts[1]], item.least[lefts[0]]
        phi = [[format_position((l,)), format_position((r,))] for l, r in sorted(other.items())]
        path = os.path.join(workdir, "iface.json")
        with open(path, "w") as fh:
            json.dump({"interfaces": [{"pos": format_position(EPS), "phi": phi}]}, fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.run(item.argv + ["--interface", path])
        expect("iso-enum: non-least interface", w.check_iso, item, (code, stdout.getvalue()), False)


def main() -> int:
    test_swapped_tracks()
    test_other_choice_reduct()
    test_other_choice_sequence()
    test_non_least_interface()
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
