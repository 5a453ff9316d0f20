"""Differential tests: the linear-time thread analysis against the reference.

`reference_threads.ReferenceAnalysis` keeps the chain-walking algorithm.
On the hybrid acceptance corpus (each derivation with a seeded random
interface), on the wide family `v (w u)^m` and on the redex towers, every
observable must agree: edges, thread ids, members, referents, labels and
kinds, thread sizes, per-edge tops and polarities, consumption arcs,
closure classes and track values.
The CLI outputs on the samples must match, byte for byte, the ones the
chain-walking implementation printed: `cli_golden.json` holds
`cli_outputs` as recorded with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from seqtypes.cli import _interface_to_json, run
from seqtypes.corpus import sr_corpus, tower_instances
from seqtypes.derivations import check_derivation, dumps_derivation
from seqtypes.reduction import OperableDerivation, interfaces_at, make_operable
from seqtypes.threads import ThreadAnalysis
from seqtypes.trivialize import (
    assign_track_values,
    consumption_closure,
    random_relabelling,
    reset_derivation,
)

from reference_threads import ReferenceAnalysis
from samples import (
    brothers_operable,
    make_brothers,
    make_self_app,
    make_tracked_redex,
    make_two_choice_redex,
    make_wide,
)

CORPUS_SEED = 20250809
GOLDEN = Path(__file__).with_name("cli_golden.json")


def hybrid_operables() -> list[OperableDerivation]:
    """The 500 hybrid acceptance derivations, each with a random interface."""
    rng = random.Random(CORPUS_SEED + 1)
    pick = random.Random(CORPUS_SEED + 5)
    out = []
    for checked in sr_corpus(CORPUS_SEED, 500, size=7, width=2):
        hybrid = reset_derivation(checked, random_relabelling(checked, rng), flavor="Sh").checked
        interface = {}
        for a in hybrid.app_positions():
            options = interfaces_at(hybrid, a)
            interface[a] = options[pick.randrange(len(options))]
        out.append(OperableDerivation(hybrid, interface))
    return out


def wide_operables() -> list[OperableDerivation]:
    """S_h relabellings of v (w u)^m for m = 2..12 with their interfaces."""
    rng = random.Random(CORPUS_SEED + 6)
    out = []
    for m in range(2, 13):
        base = check_derivation(make_wide(m))
        hybrid = reset_derivation(base, random_relabelling(base, rng), flavor="Sh").checked
        out.append(make_operable(hybrid))
    return out


def random_partition(n: int, rng: random.Random) -> list[list[int]]:
    blocks: list[list[int]] = [[] for _ in range(max(1, n // 3))]
    for tid in range(n):
        blocks[rng.randrange(len(blocks))].append(tid)
    return [block for block in blocks if block]


def assert_same_analysis(op: OperableDerivation, rng: random.Random) -> None:
    new = ThreadAnalysis(op)
    ref = ReferenceAnalysis(op)
    sizes = [new.thread_size(t) for t in range(len(ref.threads))]
    assert sizes == [len(thread.edges) for thread in ref.threads]
    assert new.edges == ref.edges
    assert new.threads == ref.threads
    for e in new.edges:
        assert new.thread_of(e) == ref.thread_of[e]
        assert new.highest_ascendant(e) == ref.highest_ascendant(e)
        assert new.polarity(e) == ref.polarity(e)
    assert new.consumption() == ref.consumption()
    classes = consumption_closure(new)
    assert classes.classes == ref.closure()
    assert classes.class_of == {t: i for i, tids in enumerate(classes.classes) for t in tids}
    assert assign_track_values(new, classes) == ref.track_values(classes.classes)
    # one-pass brother detection agrees with the all-pairs check on forged
    # classes, which do hold brothers
    for block in random_partition(len(new.threads), rng) + [list(range(len(new.threads)))]:
        pair = new.brother_pair(block)
        assert (pair is not None) == ref.has_brothers(block)
        if pair is not None:
            assert pair[0] in block and pair[1] in block and ref.brothers(*pair)


def test_hybrid_corpus_matches_reference():
    rng = random.Random(CORPUS_SEED + 7)
    ops = hybrid_operables()
    assert len(ops) == 500
    for op in ops:
        assert_same_analysis(op, rng)


def test_wide_family_matches_reference():
    rng = random.Random(CORPUS_SEED + 8)
    for op in wide_operables():
        assert_same_analysis(op, rng)


def test_towers_match_reference():
    rng = random.Random(CORPUS_SEED + 9)
    for op in tower_instances(CORPUS_SEED + 5, 20):
        assert_same_analysis(op, rng)


def cli_cases(tmp: Path) -> dict[str, list[str]]:
    """Command lines over the sample derivations, keyed by a stable name."""
    samples = {
        "self_app": make_self_app(),
        "brothers": make_brothers(),
        "two_choice_redex": make_two_choice_redex(),
        "tracked_redex": make_tracked_redex(),
        "wide2": make_wide(2),
        "wide3": make_wide(3),
    }
    iface = tmp / "brothers.iface"
    iface.write_text(json.dumps(_interface_to_json(brothers_operable().interface)))
    cases = {}
    for name, deriv in samples.items():
        path = tmp / f"{name}.deriv"
        path.write_text(dumps_derivation(deriv))
        cases[f"{name} threads"] = ["threads", "--file", str(path)]
        cases[f"{name} threads --json"] = ["threads", "--file", str(path), "--json"]
        cases[f"{name} trivialize --json"] = ["trivialize", "--file", str(path), "--json"]
    brothers = str(tmp / "brothers.deriv")
    for command in (["threads"], ["threads", "--json"], ["trivialize", "--json"]):
        key = " ".join(["brothers+iface"] + command)
        cases[key] = command[:1] + ["--file", brothers, "--interface", str(iface)] + command[1:]
    return cases


def cli_outputs(tmp: Path) -> dict[str, str]:
    outputs = {}
    for name, argv in cli_cases(tmp).items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(argv) == 0, name
        outputs[name] = out.getvalue()
    return outputs


def test_cli_outputs_match_reference(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    outputs = cli_outputs(tmp_path)
    assert sorted(outputs) == sorted(golden)
    for name, text in outputs.items():
        assert text == golden[name], name

