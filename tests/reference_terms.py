"""The recursive term functions, kept as the oracle of
`test_terms_differential.py`.

`free_vars`, `substitute` and `alpha_key` are the library's former
recursive versions, moved here verbatim before they were rewritten on
explicit stacks; only the imports differ.  They raise `RecursionError` on
terms about a thousand deep.
"""

from __future__ import annotations

from seqtypes.terms import Abs, App, Term, Var, fresh_name


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Abs):
        return free_vars(t.body) - {t.binder}
    return free_vars(t.left) | free_vars(t.right)


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
