"""Finite lambda terms, their position supports, and beta reduction.

Supports use track 0 under an abstraction and tracks 1/2 under an
application, so every term position is a word over {0, 1, 2}.  `child`
reads any letter >= 2 as the argument, so a derivation's positions address
the term as they are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional

from .positions import EPS, Position, Track, format_position, scan


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Abs:
    binder: str
    body: "Term"


@dataclass(frozen=True)
class App:
    left: "Term"
    right: "Term"


Term = Var | Abs | App


class TermSyntaxError(ValueError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class PositionError(KeyError):
    """The position does not address a node of the term."""


class NotARedexError(ValueError):
    """The addressed subterm is not of the shape (\\x. r) s."""


_TOKEN = re.compile(r"([\\.()])|(\w+)|(\S)")
_KINDS = (None, "ident")


def parse_term(text: str) -> Term:
    """Parse `\\x y. body`, left-associative application, parentheses.

    A recursive-descent parser run on an explicit stack, so nesting depth is
    unbounded.  Each pending frame is one unfinished rule: an abstraction
    awaiting its body, an application awaiting its next argument, or a
    parenthesis awaiting its `)`.
    """
    tokens = scan(text, _TOKEN, _KINDS, TermSyntaxError)
    pos = 0
    stack: list[tuple] = []
    want: Optional[str] = "expr"  # the rule to parse next; None once `term` is parsed
    term: Optional[Term] = None
    while True:
        if want == "expr":
            if tokens[pos][0] != "\\":
                stack.append(("app", None))
                want = "atom"
                continue
            pos += 1
            binders = []
            while tokens[pos][0] == "ident":
                binders.append(tokens[pos][1])
                pos += 1
            if not binders:
                raise TermSyntaxError("expected binder after '\\'", tokens[pos][2])
            if tokens[pos][0] != ".":
                raise TermSyntaxError("expected '.' after binders", tokens[pos][2])
            pos += 1
            stack.append(("abs", binders))
        elif want == "atom":
            kind, value, off = tokens[pos]
            pos += 1
            if kind == "ident":
                term, want = Var(value), None
            elif kind == "(":
                stack.append(("paren", None))
                want = "expr"
            else:
                raise TermSyntaxError(f"unexpected token {value!r}", off)
        elif not stack:
            break
        else:
            rule, data = stack.pop()
            if rule == "abs":
                for name in reversed(data):
                    term = Abs(name, term)
            elif rule == "paren":
                kind, _, off = tokens[pos]
                pos += 1
                if kind != ")":
                    raise TermSyntaxError("expected ')'", off)
            else:
                term = term if data is None else App(data, term)
                if tokens[pos][0] in ("ident", "("):
                    stack.append(("app", term))
                    want = "atom"
    kind, value, off = tokens[pos]
    if kind != "eof":
        raise TermSyntaxError(f"trailing input {value!r}", off)
    return term


def print_term(t: Term) -> str:
    """The text `parse_term` reads back as t, built on an explicit stack."""
    out: list[str] = []
    stack: list[Term | str] = [t]  # terms to print and text, the next one last
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
        elif isinstance(u, Var):
            out.append(u.name)
        elif isinstance(u, Abs):
            binders = []
            while isinstance(u, Abs):
                binders.append(u.binder)
                u = u.body
            out.append(f"\\{' '.join(binders)}. ")
            stack.append(u)
        else:
            parts: list[Term] = []
            while isinstance(u, App):
                parts.append(u.right)
                u = u.left
            parts.append(u)
            for i, p in enumerate(parts):
                stack += [p] if isinstance(p, Var) else [")", p, "("]
                if i < len(parts) - 1:
                    stack.append(" ")
    return "".join(out)


def preorder(t: Term) -> Iterator[tuple[Position, Term]]:
    """Every position of t with its subterm, in preorder, which is increasing
    position order.  The walk runs on an explicit stack, so depth is
    unbounded."""
    stack = [(EPS, t)]
    while stack:
        prefix, u = stack.pop()
        yield prefix, u
        if isinstance(u, Abs):
            stack.append((prefix + (0,), u.body))
        elif isinstance(u, App):
            stack += [(prefix + (2,), u.right), (prefix + (1,), u.left)]


def support(t: Term) -> frozenset[Position]:
    return frozenset(a for a, _ in preorder(t))


def child(u: Term, k: Track) -> Optional[Term]:
    """The subterm of u under the letter k: an abstraction's body under 0,
    an application's left under 1 and its argument under any k >= 2; None
    when u has none there."""
    if isinstance(u, Abs):
        return u.body if k == 0 else None
    if isinstance(u, App):
        return u.left if k == 1 else u.right if k >= 2 else None
    return None


def _path(t: Term, a: Position) -> list[Term]:
    """The subterms of t down the position a, t first and the subterm at a
    last; raises `PositionError` when a leaves the support."""
    path = [t]
    for k in a:
        u = child(path[-1], k)
        if u is None:
            raise PositionError(f"position {format_position(a)} outside the support")
        path.append(u)
    return path


def subterm_at(t: Term, a: Position) -> Term:
    return _path(t, a)[-1]


def replace_at(t: Term, a: Position, new: Term) -> Term:
    """t with the subterm at a replaced by new, rebuilt along the path."""
    path = _path(t, a)
    for k, u in zip(reversed(a), reversed(path[:-1])):
        if isinstance(u, Abs):
            new = Abs(u.binder, new)
        else:
            new = App(new, u.right) if k == 1 else App(u.left, new)
    return new


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of t, walked on an explicit stack: a binder's name
    on the stack closes its scope, and `bound[x]` counts the open scopes of x."""
    free: set[str] = set()
    bound: dict[str, int] = {}
    stack: list[Term | str] = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            bound[u] -= 1
        elif isinstance(u, Var):
            if not bound.get(u.name):
                free.add(u.name)
        elif isinstance(u, Abs):
            bound[u.binder] = bound.get(u.binder, 0) + 1
            stack += (u.binder, u.body)
        else:
            stack += (u.right, u.left)
    return frozenset(free)


def fresh_name(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding t[s/x]; renames binders of t when needed.

    Runs on an explicit stack of tasks, so depth is unbounded.  A task
    substitutes into a term under a substitution (x, s and the free variables
    of s) and leaves its result on `done`; an application's and an
    abstraction's tasks then rebuild the node from the results below it.  A
    binder that would capture a free variable of s is renamed first: its body
    is substituted under the renaming, and the result under (x, s) again.
    """
    done: list[Term] = []
    stack: list[tuple] = [("sub", t, (x, s, free_vars(s)))]
    while stack:
        task, u, sub = stack.pop()
        if task == "app":
            right = done.pop()
            done.append(App(done.pop(), right))
        elif task == "abs":
            done.append(Abs(u, done.pop()))
        elif task == "then":
            stack.append(("sub", done.pop(), sub))
        elif isinstance(u, Var):
            done.append(sub[1] if u.name == sub[0] else u)
        elif isinstance(u, App):
            stack += (("app", None, None), ("sub", u.right, sub), ("sub", u.left, sub))
        elif u.binder == sub[0]:
            done.append(u)
        else:
            x, _, fv_s = sub
            fv_body = free_vars(u.body) if u.binder in fv_s else frozenset()
            if x in fv_body:
                fresh = fresh_name(u.binder, fv_s | fv_body | {x})
                stack += (("abs", fresh, None), ("then", None, sub))
                stack.append(("sub", u.body, (u.binder, Var(fresh), frozenset({fresh}))))
            else:
                stack += (("abs", u.binder, None), ("sub", u.body, sub))
    return done.pop()


def beta_reduce_at(t: Term, b: Position) -> Term:
    r = subterm_at(t, b)
    if not (isinstance(r, App) and isinstance(r.left, Abs)):
        raise NotARedexError(f"no redex at {format_position(b)}")
    return replace_at(t, b, substitute(r.left.body, r.left.binder, r.right))


def redexes(t: Term) -> list[Position]:
    """Redex positions, leftmost-outermost first (lexicographic order)."""
    return [a for a, u in preorder(t) if isinstance(u, App) and isinstance(u.left, Abs)]


def is_normal(t: Term) -> bool:
    return not redexes(t)


def alpha_key(t: Term) -> tuple:
    """De Bruijn shape of the term; equal keys mean alpha-equivalent terms.

    Built on an explicit stack, so depth is unbounded: `scopes[x]` holds the
    depths at which x is bound, innermost last, and a tuple on the stack
    rebuilds an abstraction's or an application's key from the keys below.
    """
    keys: list[tuple] = []
    scopes: dict[str, list[int]] = {}
    depth = 0  # the abstractions above the next term
    stack: list = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, tuple):
            if u[0] == "l":
                scopes[u[1]].pop()
                depth -= 1
                keys.append(("l", keys.pop()))
            else:
                right = keys.pop()
                keys.append(("a", keys.pop(), right))
        elif isinstance(u, Var):
            depths = scopes.get(u.name)
            keys.append(("b", depth - 1 - depths[-1]) if depths else ("f", u.name))
        elif isinstance(u, Abs):
            scopes.setdefault(u.binder, []).append(depth)
            depth += 1
            stack += (("l", u.binder), u.body)
        else:
            stack += (("a",), u.right, u.left)
    return keys.pop()


def alpha_eq(t: Term, u: Term) -> bool:
    """Whether t and u are alpha-equivalent, that is have equal `alpha_key`s.

    The two terms are walked in lockstep on an explicit stack, so depth is
    unbounded, and the walk stops at the first difference without building
    a key.  `scopes1` and `scopes2` hold, for each name, the depths at which
    it is bound on either side, innermost last: two variables agree when
    both are free with one name or both are bound at one depth.  A pair of
    binder names on the stack closes their scopes.
    """
    if t is u:
        return True
    scopes1: dict[str, list[int]] = {}
    scopes2: dict[str, list[int]] = {}
    depth = 0  # the abstractions above the next pair
    stack: list[tuple] = [(t, u)]
    while stack:
        x, y = stack.pop()
        if type(x) is str:
            scopes1[x].pop()
            scopes2[y].pop()
            depth -= 1
        elif type(x) is not type(y):
            return False
        elif type(x) is Var:
            d1, d2 = scopes1.get(x.name), scopes2.get(y.name)
            if (d1[-1] if d1 else x.name) != (d2[-1] if d2 else y.name):
                return False
        elif type(x) is Abs:
            scopes1.setdefault(x.binder, []).append(depth)
            scopes2.setdefault(y.binder, []).append(depth)
            depth += 1
            stack += ((x.binder, y.binder), (x.body, y.body))
        else:
            stack += ((x.right, y.right), (x.left, y.left))
    return True


def binders_above(t: Term, a: Position) -> set[str]:
    """Names bound by abstractions on the path strictly above position a."""
    return {u.binder for u in _path(t, a)[:-1] if isinstance(u, Abs)}
