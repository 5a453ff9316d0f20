"""The four benchmark workloads: input construction, one item, its checks.

Every workload provides
  setup(seed, tracer, workdir) -> list of items   (timed as set-up)
  run(item, tracer) -> output                      (the timed calls only)
  check(item, output) -> None                      (raises CheckFailed)
and, if its items are files, write_files(items), called once after set-up.

Inputs depend only on the seed.  Checks test properties the method must
have, never a saved copy of an earlier output.  Each call into seqtypes
goes through `tracer.call(layer, fn, ...)`, so a traced run records one
span per call under the layer names listed in the README.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field

from seqtypes import cli
from seqtypes.corpus import sr_corpus, tower_instances
from seqtypes.derivations import (
    AppNode,
    AxNode,
    CheckedDerivation,
    Derivation,
    check_derivation,
    collapse_derivation,
    dumps_derivation,
    load_derivation,
    loads_derivation,
    save_derivation,
)
from seqtypes.positions import EPS, collapse_position, parse_position
from seqtypes.reduction import (
    OperableDerivation,
    build_operable_from_choices,
    collapse_choice,
    enumerate_r_choices,
    interfaces_at,
    make_operable,
    reduce_R,
    reduce_operable,
)
from seqtypes.stypes import SArrow, SAtom, identity_iso, seq
from seqtypes.terms import parse_term, redexes
from seqtypes.threads import ThreadAnalysis
from seqtypes.trivialize import (
    TrivializeResult,
    assign_track_values,
    build_relabelling,
    consumption_closure,
    random_relabelling,
    reset_derivation,
    trivialize,
    verify_derivation_iso,
)

CORPUS_SEED = 20250809
CORPUS_SIZE = 500
WIDE_M = (4, 8, 12, 16, 20)
WIDE_COPIES = 8
ISO_K = (3, 4, 5, 6, 7)
ISO_COPIES = 10
CHOICE_MAX_LEN = 3
CHOICE_CORPUS_INSTANCES = 8
CHOICE_TOWERS = 4


class CheckFailed(AssertionError):
    """An output of seqtypes lacks a property the method guarantees."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- shared steps ----------------------------------------------------------------


def relabel(checked: CheckedDerivation, rng: random.Random, t) -> CheckedDerivation:
    """A random S_h relabelling of a derivation (set-up only)."""
    relab = t.call("trivialize.reset", random_relabelling, checked, rng)
    return t.call("trivialize.reset", reset_derivation, checked, relab, flavor="Sh").checked


def run_trivialize(op: OperableDerivation, t) -> TrivializeResult:
    """`trivialize(op)`; a traced run calls its public steps in its order."""
    if not t.enabled:
        return trivialize(op)
    analysis = t.call("threads.analysis", ThreadAnalysis, op)
    arcs = t.call("threads.consumption", analysis.consumption)
    classes = t.call("trivialize.closure", consumption_closure, analysis)
    values = t.call("trivialize.closure", assign_track_values, analysis, classes)
    relab = t.call("trivialize.reset", build_relabelling, analysis, classes, values)
    reset = t.call(
        "trivialize.reset", reset_derivation, op.checked, relab, op.interface, flavor="S"
    )
    t.count("size.edges", len(analysis.edges))
    t.count("size.threads", len(analysis.threads))
    t.count("size.arcs", len(arcs))
    t.count("size.classes", len(classes.classes))
    return TrivializeResult(reset.checked, reset.iso, classes, values, relab, analysis)


def verify_operable_iso(op: OperableDerivation, result: TrivializeResult) -> bool:
    """The trivialization iso, with the commuting square on interfaces."""
    trivial = result.trivial
    identities = {a: identity_iso(trivial.left_seq(a)) for a in trivial.app_positions()}
    return verify_derivation_iso(op.checked, trivial, result.iso, op.interface, identities)


def check_trivial(trivial: CheckedDerivation, collapsed) -> None:
    """Trivialization properties: L = R everywhere, flavor S, same collapse."""
    for a in trivial.app_positions():
        require(
            trivial.left_seq(a) == trivial.right_seq(a),
            f"left and right sequences differ at {a} of the trivial derivation",
        )
    require(trivial.flavor == "S", "trivial derivation is not of flavor S")
    require(
        collapse_derivation(trivial) == collapsed,
        "trivial derivation collapses differently from its input",
    )


def root_of(iso) -> dict[int, int]:
    return {c[0]: c2[0] for c, c2 in iso.mapping.items() if len(c) == 1}


def typed_redexes(checked: CheckedDerivation) -> list:
    apps = {collapse_position(a) for a in checked.app_positions()}
    return [b for b in redexes(checked.term) if b in apps]


def expected_reduct(checked, collapsed, interface, b):
    """reduce_R of the collapse under the choice the interface makes at b."""
    rho = {
        a: root_of(interface[a])
        for a in checked.app_positions()
        if collapse_position(a) == b
    }
    return reduce_R(collapsed, b, collapse_choice(checked, b, rho))


# -- corpus: the acceptance path ---------------------------------------------------


@dataclass
class CorpusItem:
    text: str
    interface: dict
    redexes: list
    nodes: int
    group: str = "corpus"
    expected: dict = field(default_factory=dict)


def setup_corpus(seed: int, t, workdir: str) -> list[CorpusItem]:
    corpus = t.call("corpus.generate", sr_corpus, CORPUS_SEED, CORPUS_SIZE, size=7, width=2)
    rng = random.Random(seed)
    items = []
    for checked in corpus:
        hybrid = relabel(checked, rng, t)
        interface = {}
        for a in hybrid.app_positions():
            options = t.call("reduction.interfaces", interfaces_at, hybrid, a)
            interface[a] = options[rng.randrange(len(options))]
        text = t.call("derivations.load", dumps_derivation, hybrid.derivation)
        items.append(CorpusItem(text, interface, typed_redexes(hybrid), len(hybrid.nodes)))
    return items


@dataclass
class CorpusOutput:
    derivation: Derivation
    checked: CheckedDerivation
    collapsed: object
    op: OperableDerivation
    reducts: list
    result: TrivializeResult
    verified: bool
    dumped: str


def run_corpus(item: CorpusItem, t) -> CorpusOutput:
    deriv = t.call("derivations.load", loads_derivation, item.text)
    checked = t.call("derivations.check", check_derivation, deriv)
    collapsed = t.call("derivations.collapse", collapse_derivation, checked)
    op = t.call("reduction.interfaces", OperableDerivation, checked, item.interface)
    reducts = [t.call("reduction.reduce", reduce_operable, op, b)[0] for b in item.redexes]
    t.count("size.reductions", len(reducts))
    result = run_trivialize(op, t)
    verified = t.call("trivialize.verify", verify_operable_iso, op, result)
    dumped = t.call("derivations.load", dumps_derivation, result.trivial.derivation)
    return CorpusOutput(deriv, checked, collapsed, op, reducts, result, verified, dumped)


def check_corpus(item: CorpusItem, out: CorpusOutput) -> None:
    require(dumps_derivation(out.derivation) == item.text, "JSON round trip is not byte-exact")
    require(loads_derivation(out.dumped) == out.result.trivial.derivation,
            "the dumped trivial derivation does not load back")
    for b, reduct in zip(item.redexes, out.reducts):
        if b not in item.expected:
            item.expected[b] = expected_reduct(out.checked, out.collapsed, item.interface, b)
        require(
            collapse_derivation(reduct.checked) == item.expected[b],
            f"reduct at {b} does not collapse on reduce_R under collapse_choice",
        )
    check_trivial(out.result.trivial, out.collapsed)
    require(out.verified is True, "the trivialization isomorphism does not verify")


# -- wide: v (w u)^m ------------------------------------------------------------


def wide_derivation(m: int) -> Derivation:
    """The flavor-S derivation of v (w u)^m with two copies of every argument
    and two copies of u inside each copy: 9m + 1 nodes, fresh atoms and
    fresh tracks everywhere.  Built from the closed form, since the
    generator enumerates all 10^m width shapes before taking one."""
    nodes: dict = {}
    tracks = itertools.count(2)
    atoms = (SAtom(f"o{i}") for i in itertools.count(1))
    arg_seqs = []
    for j in range(1, m + 1):
        app = (1,) * (m - j)
        entries = {}
        for _ in range(2):
            copy = app + (next(tracks),)
            inner = {}
            for _ in range(2):
                k = next(tracks)
                inner[k] = next(atoms)
                nodes[copy + (k,)] = AxNode(next(tracks), inner[k])
            entries[copy[-1]] = next(atoms)
            nodes[copy + (1,)] = AxNode(next(tracks), SArrow(seq(inner), entries[copy[-1]]))
            nodes[copy] = AppNode(frozenset(inner))
        nodes[app] = AppNode(frozenset(entries))
        arg_seqs.append(seq(entries))
    head = next(atoms)
    for entries in reversed(arg_seqs):
        head = SArrow(entries, head)
    nodes[(1,) * m] = AxNode(next(tracks), head)
    return Derivation(parse_term("v" + " (w u)" * m), "S", nodes)


@dataclass
class WideItem:
    m: int
    checked: CheckedDerivation
    collapsed: object
    nodes: int
    group: str = ""


def setup_wide(seed: int, t, workdir: str) -> list[WideItem]:
    rng = random.Random(seed)
    bases = {m: t.call("derivations.check", check_derivation, wide_derivation(m)) for m in WIDE_M}
    items = []
    for _ in range(WIDE_COPIES):
        for m in WIDE_M:
            hybrid = relabel(bases[m], rng, t)
            collapsed = t.call("derivations.collapse", collapse_derivation, hybrid)
            items.append(WideItem(m, hybrid, collapsed, len(hybrid.nodes), f"m={m}"))
    return items


def run_wide(item: WideItem, t):
    op = t.call("reduction.interfaces", make_operable, item.checked)
    result = run_trivialize(op, t)
    return result, t.call("trivialize.verify", verify_operable_iso, op, result)


def check_wide(item: WideItem, out) -> None:
    result, verified = out
    require(item.nodes == 9 * item.m + 1, f"m={item.m} has {item.nodes} nodes, not 9m+1")
    check_trivial(result.trivial, item.collapsed)
    require(verified is True, "the trivialization isomorphism does not verify")


# -- choices: R-choice sequences of length <= 3 ------------------------------------


@dataclass
class ChoiceItem:
    collapsed: object
    checked: CheckedDerivation
    sequence: list
    expected: list
    nodes: int
    group: str = ""


def choice_sequences(rd, t, max_len: int = CHOICE_MAX_LEN):
    """Every R-choice sequence of length <= max_len, with its reduce_R chain."""
    out = []
    frontier = [(rd, [], [])]
    for _ in range(max_len):
        next_frontier = []
        for current, prefix, chain in frontier:
            for b in redexes(current.term):
                for choice in t.call("reduction.r_choices", enumerate_r_choices, current, b):
                    reduced = t.call("reduction.r_choices", reduce_R, current, b, choice)
                    step = (prefix + [(b, choice)], chain + [reduced])
                    out.append(step)
                    next_frontier.append((reduced, *step))
        frontier = next_frontier
    return out


def choice_instances(seed: int, t) -> list[CheckedDerivation]:
    """The criterion-5 instances: redex towers and the eight corpus
    derivations with one or two redexes offering the most first-step
    choices, relabelled into S_h by the seed."""
    corpus = t.call("corpus.generate", sr_corpus, CORPUS_SEED, CORPUS_SIZE, size=7, width=2)
    towers = t.call("corpus.generate", tower_instances, CORPUS_SEED + 5, CHOICE_TOWERS)

    def first_step_choices(checked):
        collapsed = t.call("derivations.collapse", collapse_derivation, checked)
        return sum(
            len(t.call("reduction.r_choices", enumerate_r_choices, collapsed, b))
            for b in redexes(checked.term)
        )

    candidates = [
        checked
        for checked in corpus
        if 1 <= len(redexes(checked.term)) <= 2 and len(checked.support()) <= 28
    ]
    candidates.sort(key=first_step_choices, reverse=True)
    rng = random.Random(seed)
    chosen = [relabel(c, rng, t) for c in candidates[:CHOICE_CORPUS_INSTANCES]]
    return [op.checked for op in towers] + chosen


def setup_choices(seed: int, t, workdir: str) -> list[ChoiceItem]:
    items = []
    for index, checked in enumerate(choice_instances(seed, t)):
        collapsed = t.call("derivations.collapse", collapse_derivation, checked)
        for sequence, chain in choice_sequences(collapsed, t):
            items.append(ChoiceItem(collapsed, checked, sequence, chain, len(checked.nodes),
                                    f"instance={index}"))
    # one instance has most of the sequences: spread it over the pass, so
    # that no single stretch of host speed holds the items around the median
    random.Random(seed).shuffle(items)
    return items


def run_choices(item: ChoiceItem, t) -> list:
    op = t.call(
        "reduction.build_choices",
        build_operable_from_choices, item.collapsed, item.checked, item.sequence,
    )
    collapses = []
    for b, _ in item.sequence:
        op, _, _ = t.call("reduction.reduce", reduce_operable, op, b)
        collapses.append(t.call("derivations.collapse", collapse_derivation, op.checked))
    t.count("size.reductions", len(item.sequence))
    t.count("size.sequences", 1)
    return collapses


def check_choices(item: ChoiceItem, collapses: list) -> None:
    require(len(collapses) == len(item.expected), "wrong number of reduction steps")
    for step, (got, want) in enumerate(zip(collapses, item.expected), start=1):
        require(got == want, f"step {step} does not collapse on the reduce_R chain")


# -- iso-enum: v u with k equal-typed copies of u, through the CLI -------------------

O = SAtom("o")


def equal_typed_derivation(k: int) -> Derivation:
    """v u with k copies of u, every atom the same: k! interfaces at the root."""
    args = range(2, 2 + k)
    nodes: dict = {EPS: AppNode(frozenset(args)), (1,): AxNode(2, SArrow(seq({i: O for i in args}), O))}
    for i in args:
        nodes[(i,)] = AxNode(i, O)
    return Derivation(parse_term("v u"), "S", nodes)


@dataclass
class IsoItem:
    k: int
    text: str
    path: str
    out_path: str
    collapsed: object
    least: dict
    nodes: int
    group: str = ""

    @property
    def argv(self) -> list[str]:
        return ["trivialize", "--file", self.path, "--json", "--out", self.out_path]


def least_interface(checked: CheckedDerivation) -> dict[int, int]:
    """Closed form of the least root interface of an equal-typed root:
    sorted left tracks onto sorted right tracks, order preserved."""
    return dict(zip(sorted(checked.left_seq(EPS).tracks()), sorted(checked.right_seq(EPS).tracks())))


def setup_iso(seed: int, t, workdir: str) -> list[IsoItem]:
    rng = random.Random(seed)
    ks = [k for _ in range(ISO_COPIES) for k in ISO_K]
    bases = {k: t.call("derivations.check", check_derivation, equal_typed_derivation(k))
             for k in set(ks)}
    items = []
    for i, k in enumerate(ks):
        hybrid = relabel(bases[k], rng, t)
        text = t.call("derivations.load", dumps_derivation, hybrid.derivation)
        collapsed = t.call("derivations.collapse", collapse_derivation, hybrid)
        items.append(IsoItem(k, text, os.path.join(workdir, f"iso{i:02d}.deriv"),
                             os.path.join(workdir, f"iso{i:02d}.trivial"), collapsed,
                             least_interface(hybrid), len(hybrid.nodes), f"k={k}"))
    return items


def write_iso_files(items: list[IsoItem]) -> None:
    """Write the derivation files the CLI reads.  Done once, after set-up is
    timed: file-system latency here does not follow the host's CPU speed,
    and timed with set-up it moved the median set-up time by 45% between
    two sets of runs."""
    for item in items:
        with open(item.path, "w") as fh:
            fh.write(item.text)


def run_iso(item: IsoItem, t):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = t.call("cli.run", cli.run, item.argv)
    return code, stdout.getvalue()


def chosen_root_interface(report: dict) -> dict[int, int]:
    """The root interface the CLI used, read back from its iso report: left
    track l went to right track r exactly when both got the same new track."""
    supp = {parse_position(a): parse_position(b) for a, b in report["iso"]}
    head = {parse_position(c): parse_position(c2) for c, c2 in report["axiom_isos"]["1"]}
    new_arg = {supp[a][0]: a[0] for a in supp if len(a) == 1 and a[0] >= 2}
    return {c[0]: new_arg[c2[0]] for c, c2 in head.items() if len(c) == 1 and c[0] >= 2}


def check_iso(item: IsoItem, out) -> None:
    code, stdout = out
    require(code == 0, f"the CLI exited with {code}")
    trivial = check_derivation(load_derivation(item.out_path))
    check_trivial(trivial, item.collapsed)
    chosen = chosen_root_interface(json.loads(stdout))
    require(chosen == item.least, f"k={item.k}: chose {chosen}, not the least {item.least}")


@contextlib.contextmanager
def traced_cli(t):
    """Spans around the CLI's calls into the layers, for a traced run only:
    the names seqtypes.cli imported are swapped for span-recording wrappers
    and restored afterwards."""
    wrappers = {
        "load_derivation": lambda *a: t.call("derivations.load", load_derivation, *a),
        "save_derivation": lambda *a: t.call("derivations.load", save_derivation, *a),
        "check_derivation": lambda *a: t.call("derivations.check", check_derivation, *a),
        "make_operable": lambda *a: t.call("reduction.interfaces", make_operable, *a),
        "trivialize": lambda op: run_trivialize(op, t),
    }
    saved = {name: getattr(cli, name) for name in wrappers}
    for name, wrapper in wrappers.items():
        setattr(cli, name, wrapper)
    try:
        yield
    finally:
        for name, original in saved.items():
            setattr(cli, name, original)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object
    write_files: object = None


WORKLOADS = {
    "corpus": Workload(setup_corpus, run_corpus, check_corpus),
    "wide": Workload(setup_wide, run_wide, check_wide),
    "choices": Workload(setup_choices, run_choices, check_choices),
    "iso-enum": Workload(setup_iso, run_iso, check_iso, write_iso_files),
}
