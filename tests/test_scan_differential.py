"""Differential test: `positions.scan` against the two character scanners
it replaced (`reference_tokens`).

Every code point of the Basic Multilingual Plane is scanned alone and after
a letter, and 20,000 seeded random strings besides, by both grammars.  Term
tokens, and the errors with their offsets, are identical.  Type tokens
differ in one way only: a digit that is not ASCII (`str.isdigit()`, `²` or
`٣` say) made the old scanner a `nat` token, which `int()` then failed on
with a bare `ValueError` (`²`) or read as another track's text (`٣`);
`scan` raises `TypeSyntaxError` at it, since a track is written in ASCII
digits only.
"""

from __future__ import annotations

import random

import pytest

from seqtypes.positions import scan
from seqtypes.stypes import TypeSyntaxError, parse_type
from seqtypes.stypes import _KINDS as TYPE_KINDS, _TOKEN as TYPE_TOKEN
from seqtypes.terms import TermSyntaxError
from seqtypes.terms import _KINDS as TERM_KINDS, _TOKEN as TERM_TOKEN

from reference_tokens import term_tokens, type_tokens


def type_scan(text: str) -> list[tuple[str, str, int]]:
    return scan(text, TYPE_TOKEN, TYPE_KINDS, TypeSyntaxError)


def term_scan(text: str) -> list[tuple[str, str, int]]:
    return scan(text, TERM_TOKEN, TERM_KINDS, TermSyntaxError)


def outcome(tokens, text: str):
    """The tokens of text, or the error's type, message and offset."""
    try:
        return tokens(text)
    except (TypeSyntaxError, TermSyntaxError) as exc:
        return type(exc), str(exc), exc.offset


def allowed(text: str, old, new) -> bool:
    """Whether the type scanners differ on text only as documented: the new
    one raises at a digit that is not ASCII, which the old one read into a
    `nat` token, or passed before an error it raised later."""
    if not (isinstance(new, tuple) and text[new[2]].isdigit() and not text[new[2]].isascii()):
        return False
    o = new[2]
    if new[1] != f"unexpected character {text[o]!r} (at offset {o})":
        return False
    if isinstance(old, list):
        return any(kind == "nat" and at <= o < at + len(v) for kind, v, at in old)
    return old[2] > o


def assert_same(text: str) -> bool:
    """Compare both grammars on text; returns whether the documented
    difference showed."""
    assert outcome(term_scan, text) == outcome(term_tokens, text), text
    old, new = outcome(type_tokens, text), outcome(type_scan, text)
    if old == new:
        return False
    assert allowed(text, old, new), (text, old, new)
    return True


def random_text(rng: random.Random) -> str:
    pieces = "->(),:\\. \t\n'_2 10 x o o' ab ² ³ ٣ é ß   $ -".split(" ") + [" "]
    out = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.2:
            out.append(chr(rng.randrange(0x10000)))
        else:
            out.append(rng.choice(pieces))
    return "".join(out)


def test_every_code_point_and_random_strings():
    odd = set()
    for cp in range(0x10000):
        c = chr(cp)
        for text in (c, "a" + c):
            if assert_same(text):
                odd.add(c)
    # all 455 of the plane's digits that are not ASCII, and only they: the 95
    # that are not decimal and the 360 decimal ones
    assert odd == {chr(cp) for cp in range(0x10000) if chr(cp).isdigit() and not chr(cp).isascii()}
    assert len(odd) == 455
    rng = random.Random(20251019)
    differ = sum(assert_same(random_text(rng)) for _ in range(20_000))
    assert differ > 100


def test_a_digit_that_is_not_decimal_is_a_syntax_error():
    # the old scanner made a `nat` token of it, and int() raised ValueError
    with pytest.raises(TypeSyntaxError) as exc:
        parse_type("(²: o) -> o")
    assert exc.value.offset == 1
    assert str(exc.value) == "unexpected character '²' (at offset 1)"


@pytest.mark.parametrize("text, offset", [("(\u0662:o) -> o", 1), ("(0\u0662:o) -> o", 2)])
def test_a_decimal_digit_that_is_not_ascii_is_a_syntax_error(text, offset):
    # the old scanner read "(0\u0662:o) -> o" as the track 2, printed back as
    # "(2:o) -> o"
    with pytest.raises(TypeSyntaxError) as exc:
        parse_type(text)
    assert str(exc.value) == f"unexpected character '\u0662' (at offset {offset})"
