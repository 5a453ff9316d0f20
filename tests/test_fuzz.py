"""Fuzz of the text boundary: type, term and derivation-file texts printed
from the corpora, each with one character inserted, deleted or replaced.

Each edited text either reads and prints back to its canonical text, up to
the normalizations the README documents, or raises the reader's typed
error: `TypeSyntaxError`, `TermSyntaxError` or `LoadError`.  Through
`seqtypes check`, every rejection is the exit-1 JSON object with nothing on
stdout.  Each test draws a fixed number of examples.
"""

from __future__ import annotations

import functools
import json
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqtypes.cli import run
from seqtypes.corpus import sr_corpus
from seqtypes.derivations import AxNode, LoadError, dumps_derivation, loads_derivation
from seqtypes.stypes import TypeSyntaxError, parse_type, print_type
from seqtypes.terms import TermSyntaxError, parse_term, print_term
from seqtypes.trivialize import random_relabelling, reset_derivation

CORPUS_SEED = 20250809
# the characters of the three grammars and of JSON, digits that are not
# ASCII, and any other character but a lone surrogate
CHARS = st.one_of(
    st.sampled_from("()->,:.\\ \"{}[]0123456789xyuvo'_٢²\n"),
    st.characters(codec="utf-8"),
)
FUZZ = settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])


@functools.cache
def corpus_texts() -> tuple[list[str], list[str], list[str]]:
    """The type, term and file texts of 60 corpus derivations and their
    hybrid relabellings."""
    rng = random.Random(CORPUS_SEED + 1)
    types, terms, files = set(), set(), []
    for checked in sr_corpus(CORPUS_SEED, 60, size=7, width=2):
        hybrid = reset_derivation(checked, random_relabelling(checked, rng), flavor="Sh").checked
        for deriv in (checked.derivation, hybrid.derivation):
            files.append(dumps_derivation(deriv))
            types.update(print_type(n.stype) for n in deriv.nodes.values() if type(n) is AxNode)
        terms.add(print_term(checked.term))
    return sorted(types), sorted(terms), files


@st.composite
def edited(draw, which: int) -> tuple[str, str]:
    """A corpus text of the given kind and that text with one edit."""
    text = draw(st.sampled_from(corpus_texts()[which]))
    op = draw(st.sampled_from(["insert", "delete", "replace"]))
    i = draw(st.integers(0, len(text) if op == "insert" else len(text) - 1))
    new = "" if op == "delete" else draw(CHARS)
    return text, text[:i] + new + text[i + (op != "insert") :]


def squeezed(text: str) -> str:
    return "".join(text.split())


def term_shape(text: str) -> str:
    """A term text up to its documented normalizations: spacing,
    parenthesization and grouped binders (`\\x. \\y. b` is `\\x y. b`)."""
    return squeezed(text).replace("(", "").replace(")", "").replace(".\\", "")


def assert_cli_verdict(tmp_path, capsys, text: str, loads: bool) -> None:
    """`seqtypes check` on the file text exits 0, or 1 with one JSON object
    on stderr: `bad-input` exactly where the file does not load."""
    path = tmp_path / "fuzz.deriv"
    path.write_text(text, encoding="utf-8")
    code = run(["check", "--file", str(path)])
    captured = capsys.readouterr()
    if code == 0:
        assert loads
        return
    assert code == 1 and captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == ("check-failed" if loads else "bad-input"), payload


def file_with(field: str, value: str) -> str:
    """A valid file from the corpus, its term or its first axiom's type
    replaced by value."""
    data = json.loads(corpus_texts()[2][0])
    if field == "term":
        data["term"] = value
    else:
        next(n for n in data["nodes"] if n["kind"] == "ax")["type"] = value
    return json.dumps(data, indent=2) + "\n"


@FUZZ
@given(edited(0))
def test_an_edited_type_text_reads_back_or_is_a_type_syntax_error(tmp_path, capsys, pair):
    _, text = pair
    try:
        t = parse_type(text)
    except TypeSyntaxError:
        loads = False
    else:
        loads = True
        printed = print_type(t)
        assert parse_type(printed) == t and print_type(parse_type(printed)) == printed
        # up to spacing and the order of a sequence type's entries
        assert sorted(squeezed(printed)) == sorted(squeezed(text)), (text, printed)
    assert_cli_verdict(tmp_path, capsys, file_with("type", text), loads)


@FUZZ
@given(edited(1))
def test_an_edited_term_text_reads_back_or_is_a_term_syntax_error(tmp_path, capsys, pair):
    _, text = pair
    try:
        t = parse_term(text)
    except TermSyntaxError:
        loads = False
    else:
        loads = True
        printed = print_term(t)
        assert parse_term(printed) == t and print_term(parse_term(printed)) == printed
        assert term_shape(printed) == term_shape(text), (text, printed)
    assert_cli_verdict(tmp_path, capsys, file_with("term", text), loads)


def normal_form(text: str) -> dict:
    """The file's JSON value up to the documented normalizations: JSON
    spacing and escapes, those of its texts (a type's characters are
    compared as a multiset, since its entries may come in any order), and
    an application's argument tracks and the nodes listed in any order (the
    writer lists them ascending and in position order)."""
    data = json.loads(text)

    def position(node: dict) -> tuple[int, ...]:
        pos = squeezed(node["pos"])
        return () if pos in ("", "eps") else tuple(map(int, pos.split(".")))

    nodes = []
    for node in data["nodes"]:
        node = {**node, "pos": squeezed(node["pos"])}
        if "type" in node:
            node["type"] = sorted(squeezed(node["type"]))
        if "args" in node:
            node["args"] = sorted(node["args"])
        nodes.append(node)
    nodes.sort(key=position)
    return {"term": term_shape(data["term"]), "flavor": data["flavor"], "nodes": nodes}


@FUZZ
@given(edited(2))
def test_an_edited_file_text_reads_back_or_is_a_load_error(tmp_path, capsys, pair):
    _, text = pair
    try:
        deriv = loads_derivation(text)
    except LoadError:
        loads = False
    else:
        loads = True
        dumped = dumps_derivation(deriv)
        assert loads_derivation(dumped) == deriv
        assert normal_form(dumped) == normal_form(text), (text, dumped)
    assert_cli_verdict(tmp_path, capsys, text, loads)
