"""The two hand-written character scanners, kept as reference oracles.

Before `positions.scan`, `stypes` and `terms` each tokenized their text
with a character loop of their own.  They are copied here verbatim; only
the names and imports differ.  `test_scan_differential.py` compares
`scan` with them.
"""

from __future__ import annotations

from seqtypes.stypes import ARROW, TypeSyntaxError
from seqtypes.terms import TermSyntaxError


def type_tokens(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith(ARROW, i):
            tokens.append(("arrow", ARROW, i))
            i += 2
            continue
        if c in "(),:":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        raise TypeSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", len(text)))
    return tokens


def term_tokens(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "\\.()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise TermSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", len(text)))
    return tokens
