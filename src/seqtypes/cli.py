"""Command-line front end: check, collapse, isos, reduce, threads,
trivialize, gen, export-dot."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Mapping, TypeVar

from .positions import Position, ZeroOneIso, format_position, parse_position
from .stypes import print_rtype
from .derivations import (
    CheckedDerivation,
    Derivation,
    DerivationCheckError,
    LoadError,
    NotAnApplication,
    check_derivation,
    check_R,
    collapse_derivation,
    dumps_derivation,
    format_judgment,
    json_integer,
    load_derivation,
    loads_json,
    save_derivation,
)
from .reduction import (
    InterfaceError,
    OperableDerivation,
    ReductionChoice,
    ReductionError,
    interfaces_at,
    make_operable,
    reduce_operable,
    reduce_S,
    reduce_Sh,
)
from .threads import ThreadAnalysis, dot_export, text_report
from .trivialize import BrotherChainError, trivialize
from .corpus import sr_corpus

K = TypeVar("K")
T = TypeVar("T")


class CliError(Exception):
    """A failure the CLI reports as the JSON object `{"error": kind, "detail":
    detail}`, with `position` when given and the `extra` fields."""

    def __init__(self, kind: str, detail: str, position: str | None = None, **extra) -> None:
        super().__init__(detail)
        self.kind = kind
        self.detail = detail
        self.position = position
        self.extra = extra


def _parse_pos(text: str) -> Position:
    try:
        return parse_position(text)
    except ValueError as exc:
        raise CliError("bad-input", str(exc), text) from exc


def _load_checked(path: str, flavor: str | None) -> CheckedDerivation:
    deriv = load_derivation(path)
    if flavor is not None and flavor != deriv.flavor:
        deriv = Derivation(deriv.term, flavor, deriv.nodes)
    try:
        return check_derivation(deriv)
    except DerivationCheckError as exc:
        raise CliError("check-failed", str(exc), format_position(exc.position)) from exc


def _pairs_to_json(mapping: Mapping[Position, Position]) -> list[list[str]]:
    """The position pairs of a mapping, sorted, as JSON."""
    return [[format_position(a), format_position(b)] for a, b in sorted(mapping.items())]


def _interface_to_json(interface: dict[Position, ZeroOneIso]) -> dict:
    return {
        "interfaces": [
            {"pos": format_position(a), "phi": _pairs_to_json(iso.mapping)}
            for a, iso in sorted(interface.items())
        ]
    }


def _interface_from_json(data: dict) -> list[tuple[Position, list[tuple[Position, Position]]]]:
    """The interfaces with their position pairs, as listed: a malformed
    isomorphism is a bad interface, not bad input."""
    return [
        (
            parse_position(entry["pos"]),
            [(parse_position(c), parse_position(c2)) for c, c2 in entry["phi"]],
        )
        for entry in data["interfaces"]
    ]


def _unique(pairs: list[tuple[K, T]], where: str) -> dict[K, T]:
    """The pairs as a dict; a key (a position or a track) listed twice is a
    `ValueError`."""
    out: dict[K, T] = {}
    for a, value in pairs:
        if a in out:
            name = format_position(a) if isinstance(a, tuple) else a
            raise ValueError(f"{name} is listed twice in {where}")
        out[a] = value
    return out


def _load_operable(path: str, interface_path: str | None) -> OperableDerivation:
    checked = _load_checked(path, None)
    listed: list[tuple[Position, list[tuple[Position, Position]]]] = []
    if interface_path:
        listed = loads_json(Path(interface_path).read_text(), _interface_from_json)
    interface: dict[Position, ZeroOneIso] = {}
    for a, pairs in listed:
        try:
            if a in interface:
                raise ValueError(f"{format_position(a)} is listed twice in the interface file")
            interface[a] = ZeroOneIso(_unique(pairs, f"the interface at {format_position(a)}"))
        except ValueError as exc:
            raise CliError("bad-interface", str(exc), format_position(a)) from exc
    try:
        return make_operable(checked, interface)
    except InterfaceError as exc:
        raise CliError("bad-interface", str(exc), format_position(exc.position)) from exc


def _choice_from_json(data: dict) -> ReductionChoice:
    per_node = [
        (
            parse_position(entry["pos"]),
            _unique(
                [(json_integer(k), json_integer(k2)) for k, k2 in entry["rho"]],
                f"the rho at {entry['pos']}",
            ),
        )
        for entry in data["per_node"]
    ]
    return ReductionChoice(parse_position(data["redex"]), _unique(per_node, "the choice file"))


def cmd_check(args) -> int:
    checked = _load_checked(args.file, args.flavor)
    if args.json:
        print(json.dumps({"judgment": format_judgment(checked.conclusion())}))
    else:
        print(format_judgment(checked.conclusion()))
    return 0


def cmd_collapse(args) -> int:
    checked = _load_checked(args.file, args.flavor)
    rd = collapse_derivation(checked)
    judgment = check_R(rd)
    ctx = ", ".join(
        f"{x}:[{','.join(print_rtype(t) for t in ts)}]" for x, ts in judgment.context
    )
    sep = " " if ctx else ""
    line = f"{ctx}{sep}|- {print_rtype(judgment.rtype)}"
    if args.json:
        print(json.dumps({"judgment": line}))
    else:
        print(line)
    return 0


def cmd_isos(args) -> int:
    checked = _load_checked(args.file, args.flavor)
    pos = _parse_pos(args.pos)
    try:
        isos = interfaces_at(checked, pos)
    except NotAnApplication as exc:
        raise CliError("not-an-application", str(exc), args.pos) from exc
    if args.json:
        payload = {
            "pos": args.pos,
            "count": len(isos),
            "interfaces": [_pairs_to_json(iso.mapping) for iso in isos],
        }
        print(json.dumps(payload))
    else:
        print(f"{len(isos)} interface(s) at {args.pos}")
        for i, iso in enumerate(isos):
            pairs = ", ".join(
                f"{format_position(c)} -> {format_position(c2)}"
                for c, c2 in sorted(iso.mapping.items())
            )
            print(f"  [{i}] {pairs if pairs else '(empty)'}")
    return 0


def cmd_reduce(args) -> int:
    pos = _parse_pos(args.pos)
    try:
        if args.choice:
            checked = _load_checked(args.file, args.flavor)
            choice = loads_json(Path(args.choice).read_text(), _choice_from_json)
            reduced = reduce_Sh(checked, pos, choice)
        elif args.interface:
            op = _load_operable(args.file, args.interface)
            new_op, _, _ = reduce_operable(op, pos)
            reduced = new_op.checked
            if args.interface_out:
                Path(args.interface_out).write_text(
                    json.dumps(_interface_to_json(new_op.interface), indent=2) + "\n"
                )
        else:
            checked = _load_checked(args.file, args.flavor)
            if checked.flavor == "S":
                reduced = reduce_S(checked, pos)
            else:
                op = make_operable(checked)
                new_op, _, _ = reduce_operable(op, pos)
                reduced = new_op.checked
    except (ReductionError, DerivationCheckError) as exc:
        at = args.pos if exc.position is None else format_position(exc.position)
        raise CliError("reduction-failed", str(exc), at) from exc
    if args.out:
        save_derivation(reduced.derivation, args.out)
    if args.json:
        print(json.dumps({"judgment": format_judgment(reduced.conclusion())}))
    else:
        print(format_judgment(reduced.conclusion()))
    return 0


def cmd_threads(args) -> int:
    if args.interface:
        op = _load_operable(args.file, args.interface)
    else:
        op = make_operable(_load_checked(args.file, args.flavor))
    analysis = ThreadAnalysis(op)
    if args.dot:
        Path(args.dot).write_text(dot_export(analysis))
    if args.json:
        label, kind, size = analysis.thread_label, analysis.thread_kind, analysis.thread_size
        payload = {
            "threads": [
                {"id": t, "label": label(t), "kind": kind(t), "edges": size(t)}
                for t in range(len(analysis.threads))
            ],
            "arcs": [
                {
                    "left": arc.left,
                    "right": arc.right,
                    "pos": format_position(arc.pos),
                    "left_polarity": arc.left_polarity,
                    "right_polarity": arc.right_polarity,
                }
                for arc in analysis.consumption()
            ],
        }
        print(json.dumps(payload))
    else:
        print(text_report(analysis), end="")
    return 0


def cmd_trivialize(args) -> int:
    op = _load_operable(args.file, args.interface)
    try:
        result = trivialize(op)
    except BrotherChainError as exc:
        chain = exc.chain
        witness = {
            "threads": list(chain.threads),
            "positions": [format_position(a) for a in chain.positions],
        }
        raise CliError("brother-chain", str(exc), witness=witness) from exc
    if args.out:
        save_derivation(result.trivial.derivation, args.out)
    report = {
        "judgment": format_judgment(result.trivial.conclusion()),
        "classes": [
            {"class": i, "threads": list(tids), "track": result.values[i]}
            for i, tids in enumerate(result.classes.classes)
        ],
        "iso": _pairs_to_json(result.iso.supp_map.mapping),
        "axiom_isos": {
            format_position(a): _pairs_to_json(iso.mapping)
            for a, iso in sorted(result.iso.axiom_isos.items())
        },
    }
    if args.json:
        print(json.dumps(report))
    else:
        print(report["judgment"])
        for entry in report["classes"]:
            print(f"class {entry['class']} -> track {entry['track']}: threads {entry['threads']}")
    return 0


def cmd_gen(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    corpus = sr_corpus(args.seed, args.count, size=args.size, width=args.width)
    for i, checked in enumerate(corpus):
        path = outdir / f"d{i:04d}.deriv"
        path.write_text(dumps_derivation(checked.derivation))
    print(f"wrote {len(corpus)} derivations to {outdir}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: `parse_args` leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="seqtypes", description="Rigid sequence-type derivation toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, flavor=True):
        p.add_argument("--file", required=True, help="derivation file")
        if flavor:
            p.add_argument("--flavor", choices=["S", "Sh"], default=None)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("check", help="check a derivation and print its judgment")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("collapse", help="collapse onto the multiset system")
    add_common(p)
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("isos", help="list the interfaces at an application node")
    add_common(p)
    p.add_argument("--pos", required=True)
    p.set_defaults(func=cmd_isos)

    p = sub.add_parser("reduce", help="fire a redex inside the derivation")
    add_common(p)
    p.add_argument("--pos", required=True)
    p.add_argument("--choice", help="reduction-choice file (root interfaces)")
    p.add_argument("--interface", help="total interface file (operable reduction)")
    p.add_argument("--interface-out", help="write the residual interface here")
    p.add_argument("--out", help="write the reduct derivation here")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("threads", help="thread and consumption report")
    add_common(p)
    p.add_argument("--interface")
    p.add_argument("--dot", help="write a DOT graph here")
    p.set_defaults(func=cmd_threads)

    p = sub.add_parser("trivialize", help="build an isomorphic trivial derivation")
    add_common(p, flavor=False)
    p.add_argument("--interface")
    p.add_argument("--out", help="write the trivial derivation here")
    p.set_defaults(func=cmd_trivialize)

    p = sub.add_parser("gen", help="generate a reproducible corpus")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--size", type=int, default=5)
    p.add_argument("--width", type=int, default=2)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-dot", help="export the derivation tree as DOT")
    add_common(p)
    p.add_argument("--interface")
    p.add_argument("--dot", required=True)
    p.set_defaults(func=cmd_threads)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        return _report(exc.kind, exc.detail, position=exc.position, **exc.extra)
    except LoadError as exc:
        position = None if exc.position is None else format_position(exc.position)
        return _report("bad-input", str(exc), node=exc.node, position=position)
    except FileNotFoundError as exc:
        return _report("file-not-found", str(exc))
    except Exception as exc:  # a fault of the program: reported, never a traceback
        return _report("internal-error", f"{type(exc).__name__}: {exc}")


def _report(kind: str, detail: str, **fields) -> int:
    """Print the failure's JSON object on stderr, with the fields that are
    not None; returns the exit code 1."""
    payload = {"error": kind, "detail": detail}
    payload.update((key, value) for key, value in fields.items() if value is not None)
    print(json.dumps(payload), file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
