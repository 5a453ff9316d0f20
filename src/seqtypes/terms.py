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
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Abs):
        return free_vars(t.body) - {t.binder}
    return free_vars(t.left) | free_vars(t.right)


def fresh_name(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def substitute(t: Term, x: str, s: Term) -> Term:
    """Capture-avoiding t[s/x]; renames binders of t when needed."""
    fv_s = free_vars(s)

    def go(u: Term) -> Term:
        if isinstance(u, Var):
            return s if u.name == x else u
        if isinstance(u, App):
            return App(go(u.left), go(u.right))
        if u.binder == x:
            return u
        if u.binder in fv_s and x in free_vars(u.body):
            fresh = fresh_name(u.binder, fv_s | free_vars(u.body) | {x})
            body = substitute(u.body, u.binder, Var(fresh))
            return Abs(fresh, go(body))
        return Abs(u.binder, go(u.body))

    return go(t)


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
    """De Bruijn shape of the term; equal keys mean alpha-equivalent terms."""

    def go(u: Term, env: tuple[str, ...]) -> tuple:
        if isinstance(u, Var):
            for i, name in enumerate(reversed(env)):
                if name == u.name:
                    return ("b", i)
            return ("f", u.name)
        if isinstance(u, Abs):
            return ("l", go(u.body, env + (u.binder,)))
        return ("a", go(u.left, env), go(u.right, env))

    return go(t, ())


def alpha_eq(t: Term, u: Term) -> bool:
    return alpha_key(t) == alpha_key(u)


def binders_above(t: Term, a: Position) -> set[str]:
    """Names bound by abstractions on the path strictly above position a."""
    return {u.binder for u in _path(t, a)[:-1] if isinstance(u, Abs)}
