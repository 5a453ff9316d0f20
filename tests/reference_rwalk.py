"""The recursive R-tree walkers, kept as reference oracles.

These are the original multiset-side functions: every one walks the
(R-node, term) pairs with its own recursive function.  `_rtype_of_nodes`
re-runs `check_R` and then, at every abstraction, walks the whole body
again to collect the binder's axiom types; `enumerate_r_choices` and
`reduce_R` find the redex nodes and the axioms of the redex variable with
two more walks, and `reduce_R` rebuilds the tree and substitutes the
arguments with two more.  `test_rwalk_differential.py` compares the
single-walker versions in `seqtypes` against them.
"""

from __future__ import annotations

import itertools
from operator import attrgetter

from seqtypes.derivations import (
    AbsNode,
    AppNode,
    AxNode,
    Derivation,
    Node,
    RAbsD,
    RAppD,
    RAxD,
    RCheckError,
    RDerivation,
    RJudgment,
    RNode,
    rapp,
)
from seqtypes.positions import EPS, Position, Track, format_position
from seqtypes.reduction import ChoiceError, RChoice, ReductionError
from seqtypes.stypes import RArrow, RAtom, RType, SArrow, SAtom, SType, rarrow, rmultiset, seq
from seqtypes.terms import Abs, App, Term, Var, beta_reduce_at, subterm_at

RPath = tuple[tuple[int, int], ...]  # (0,0) abs child, (1,0) app left, (2,j) argument j
RContext = dict[str, tuple[RType, ...]]


def _rcontext_merge(parts: list[RContext]) -> RContext:
    out: dict[str, list[RType]] = {}
    for part in parts:
        for x, types in part.items():
            out.setdefault(x, []).extend(types)
    return {x: rmultiset(ts) for x, ts in out.items()}


def check_R(rd: RDerivation) -> RJudgment:
    def go(node: RNode, subj: Term, path: RPath) -> tuple[RContext, RType]:
        if isinstance(node, RAxD):
            if not isinstance(subj, Var):
                raise RCheckError(path, "axiom not at a variable")
            return {subj.name: (node.rtype,)}, node.rtype
        if isinstance(node, RAbsD):
            if not isinstance(subj, Abs):
                raise RCheckError(path, "abstraction node not at an abstraction")
            ctx, rtype = go(node.child, subj.body, path + ((0, 0),))
            source = ctx.pop(subj.binder, ())
            return ctx, rarrow(source, rtype)
        if not isinstance(subj, App):
            raise RCheckError(path, "application node not at an application")
        lctx, ltype = go(node.left, subj.left, path + ((1, 0),))
        if not isinstance(ltype, RArrow):
            raise RCheckError(path, "left premise does not conclude with an arrow")
        if tuple(sorted(node.args, key=attrgetter("key"))) != node.args:
            raise RCheckError(path, "argument premises not in canonical order")
        arg_results = [
            go(arg, subj.right, path + ((2, j),)) for j, arg in enumerate(node.args)
        ]
        premise_types = rmultiset(rtype for _, rtype in arg_results)
        if premise_types != ltype.source:
            raise RCheckError(path, "app_mismatch")
        merged = _rcontext_merge([lctx] + [ctx for ctx, _ in arg_results])
        return merged, ltype.target

    ctx, rtype = go(rd.root, rd.term, ())
    return RJudgment(tuple(sorted((x, ts) for x, ts in ctx.items() if ts)), rtype)


def _rtype_of_nodes(rd: RDerivation) -> dict[RPath, RType]:
    check_R(rd)
    types: dict[RPath, RType] = {}

    def go(node: RNode, subj: Term, path: RPath) -> RType:
        if isinstance(node, RAxD):
            types[path] = node.rtype
            return node.rtype
        if isinstance(node, RAbsD):
            inner = go(node.child, subj.body, path + ((0, 0),))
            sources = _x_axiom_types(node.child, subj.body)
            types[path] = rarrow(sources.get(subj.binder, []), inner)
            return types[path]
        assert isinstance(node, RAppD) and isinstance(subj, App)
        left = go(node.left, subj.left, path + ((1, 0),))
        for j, arg in enumerate(node.args):
            go(arg, subj.right, path + ((2, j),))
        assert isinstance(left, RArrow)
        types[path] = left.target
        return left.target

    go(rd.root, rd.term, ())
    return types


def _x_axiom_types(node: RNode, subj: Term) -> dict[str, list[RType]]:
    out: dict[str, list[RType]] = {}

    def go(n: RNode, s: Term, bound: frozenset[str]) -> None:
        if isinstance(n, RAxD):
            assert isinstance(s, Var)
            if s.name not in bound:
                out.setdefault(s.name, []).append(n.rtype)
            return
        if isinstance(n, RAbsD):
            assert isinstance(s, Abs)
            go(n.child, s.body, bound | {s.binder})
            return
        assert isinstance(n, RAppD) and isinstance(s, App)
        go(n.left, s.left, bound)
        for arg in n.args:
            go(arg, s.right, bound)

    go(node, subj, frozenset())
    return out


def _redex_rnodes(rd: RDerivation, b: Position) -> list[tuple[RPath, RAppD, Term]]:
    found: list[tuple[RPath, RAppD, Term]] = []

    def go(node: RNode, subj: Term, tpos: Position, path: RPath) -> None:
        if isinstance(node, RAxD):
            return
        if isinstance(node, RAbsD):
            go(node.child, subj.body, tpos + (0,), path + ((0, 0),))
            return
        assert isinstance(node, RAppD) and isinstance(subj, App)
        if tpos == b:
            found.append((path, node, subj))
        go(node.left, subj.left, tpos + (1,), path + ((1, 0),))
        for j, arg in enumerate(node.args):
            go(arg, subj.right, tpos + (2,), path + ((2, j),))

    go(rd.root, rd.term, EPS, ())
    return sorted(found, key=lambda item: item[0])


def _x_axiom_paths(body: RNode, subj: Term, x: str) -> list[RPath]:
    out: list[RPath] = []

    def go(n: RNode, s: Term, path: RPath) -> None:
        if isinstance(n, RAxD):
            if isinstance(s, Var) and s.name == x:
                out.append(path)
            return
        if isinstance(n, RAbsD):
            if s.binder == x:
                return
            go(n.child, s.body, path + ((0, 0),))
            return
        assert isinstance(n, RAppD) and isinstance(s, App)
        go(n.left, s.left, path + ((1, 0),))
        for j, arg in enumerate(n.args):
            go(arg, s.right, path + ((2, j),))

    go(body, subj, ())
    return sorted(out)


def enumerate_r_choices(rd: RDerivation, b: Position) -> list[RChoice]:
    subj = subterm_at(rd.term, b)
    if not (isinstance(subj, App) and isinstance(subj.left, Abs)):
        raise ReductionError(f"no redex at {format_position(b)}")
    types = _rtype_of_nodes(rd)
    per_node_options: list[tuple[RPath, list[dict[RPath, int]]]] = []
    for path, node, node_subj in _redex_rnodes(rd, b):
        assert isinstance(node.left, RAbsD)
        x = node_subj.left.binder
        ax_paths = _x_axiom_paths(node.left.child, node_subj.left.body, x)
        body_prefix = path + ((1, 0), (0, 0))
        groups_ax: dict[tuple, list[RPath]] = {}
        for p in ax_paths:
            groups_ax.setdefault(types[body_prefix + p].key, []).append(p)
        groups_arg: dict[tuple, list[int]] = {}
        for j in range(len(node.args)):
            groups_arg.setdefault(types[path + ((2, j),)].key, []).append(j)
        if set(groups_ax) != set(groups_arg):
            return []
        options: list[dict[RPath, int]] = [{}]
        for key in sorted(groups_ax):
            ps, js = sorted(groups_ax[key]), sorted(groups_arg[key])
            if len(ps) != len(js):
                return []
            extended = []
            for perm in itertools.permutations(js):
                for base in options:
                    extended.append({**base, **dict(zip(ps, perm))})
            options = extended
        per_node_options.append((path, options))
    out: list[RChoice] = []
    for combo in itertools.product(*(opts for _, opts in per_node_options)):
        out.append(
            RChoice(b, {path: dict(choice) for (path, _), choice in zip(per_node_options, combo)})
        )
    return out


def reduce_R(rd: RDerivation, b: Position, choice: RChoice) -> RDerivation:
    if choice.redex != b:
        raise ChoiceError("choice addresses a different redex")
    subj = subterm_at(rd.term, b)
    if not (isinstance(subj, App) and isinstance(subj.left, Abs)):
        raise ReductionError(f"no redex at {format_position(b)}")
    types = _rtype_of_nodes(rd)
    redex_nodes = {path for path, _, _ in _redex_rnodes(rd, b)}
    if set(choice.assignments) != redex_nodes:
        raise ChoiceError("choice does not cover exactly the redex nodes")

    def go(node: RNode, s: Term, tpos: Position, path: RPath) -> RNode:
        if isinstance(node, RAxD):
            return node
        if isinstance(node, RAbsD):
            return RAbsD(go(node.child, s.body, tpos + (0,), path + ((0, 0),)))
        assert isinstance(node, RAppD) and isinstance(s, App)
        left = go(node.left, s.left, tpos + (1,), path + ((1, 0),))
        args = tuple(
            go(arg, s.right, tpos + (2,), path + ((2, j),)) for j, arg in enumerate(node.args)
        )
        if tpos != b:
            return rapp(left, args)
        assignment = choice.assignments[path]
        assert isinstance(left, RAbsD) and isinstance(s.left, Abs)
        x = s.left.binder
        ax_paths = _x_axiom_paths(left.child, s.left.body, x)
        if set(assignment) != set(ax_paths):
            raise ChoiceError(f"choice at {path} does not cover the axioms of {x!r}")
        if sorted(assignment.values()) != list(range(len(args))):
            raise ChoiceError(f"choice at {path} is not a bijection onto the premises")
        for p, j in assignment.items():
            ax_type = types[path + ((1, 0), (0, 0)) + p]
            arg_type = types[path + ((2, j),)]
            if ax_type != arg_type:
                raise ChoiceError(f"type mismatch for axiom {p} and premise {j}")
        return _substitute_axioms(left.child, s.left.body, x, assignment, args)

    new_root = go(rd.root, rd.term, EPS, ())
    return RDerivation(beta_reduce_at(rd.term, b), new_root)


def _substitute_axioms(
    body: RNode, subj: Term, x: str, assignment: dict[RPath, int], args: tuple[RNode, ...]
) -> RNode:
    def go(n: RNode, s: Term, path: RPath) -> RNode:
        if isinstance(n, RAxD):
            if isinstance(s, Var) and s.name == x:
                return args[assignment[path]]
            return n
        if isinstance(n, RAbsD):
            if s.binder == x:
                return n
            return RAbsD(go(n.child, s.body, path + ((0, 0),)))
        assert isinstance(n, RAppD) and isinstance(s, App)
        return rapp(
            go(n.left, s.left, path + ((1, 0),)),
            tuple(go(arg, s.right, path + ((2, j),)) for j, arg in enumerate(n.args)),
        )

    return go(body, subj, ())


def hybridize(rd: RDerivation) -> Derivation:
    check_R(rd)
    counter = itertools.count(2)

    def rigidify(rt: RType) -> SType:
        if isinstance(rt, RAtom):
            return SAtom(rt.name)
        entries = {i + 2: rigidify(s) for i, s in enumerate(rt.source)}
        return SArrow(seq(entries), rigidify(rt.target))

    nodes: dict[Position, Node] = {}

    def go(node: RNode, subj: Term, prefix: Position) -> tuple[SType, dict[str, dict[Track, SType]]]:
        if isinstance(node, RAxD):
            assert isinstance(subj, Var)
            stype = rigidify(node.rtype)
            track = next(counter)
            nodes[prefix] = AxNode(track, stype)
            return stype, {subj.name: {track: stype}}
        if isinstance(node, RAbsD):
            assert isinstance(subj, Abs)
            nodes[prefix] = AbsNode()
            inner, ctx = go(node.child, subj.body, prefix + (0,))
            source = seq(ctx.pop(subj.binder, {}))
            return SArrow(source, inner), ctx
        assert isinstance(node, RAppD) and isinstance(subj, App)
        left_type, ctx = go(node.left, subj.left, prefix + (1,))
        assert isinstance(left_type, SArrow)
        tracks: set[Track] = set()
        for j, arg in enumerate(node.args):
            track = j + 2
            tracks.add(track)
            _, arg_ctx = go(arg, subj.right, prefix + (track,))
            for name, entries in arg_ctx.items():
                ctx.setdefault(name, {}).update(entries)
        nodes[prefix] = AppNode(frozenset(tracks))
        return left_type.target, ctx

    go(rd.root, rd.term, EPS)
    return Derivation(rd.term, "Sh", nodes)
