from __future__ import annotations

import json

import pytest

from seqtypes import cli
from seqtypes.cli import build_parser, run
from seqtypes.corpus import expand_root
from seqtypes.derivations import (
    AbsNode,
    AppNode,
    AxNode,
    Derivation,
    LoadError,
    dumps_derivation,
    load_derivation,
    loads_derivation,
    check_derivation,
)
from seqtypes.positions import EPS, parse_position
from seqtypes.stypes import SArrow, SAtom, print_type, seq
from seqtypes.terms import parse_term
from seqtypes.threads import BrotherChain
from seqtypes.trivialize import BrotherChainError

from samples import (
    brothers_operable,
    make_argument_redex,
    make_brothers,
    make_equal_typed,
    make_nested,
    make_self_app,
)
from test_derivations import deep_x_u
from test_stypes import DEEP, deep_type


@pytest.fixture()
def self_app_file(tmp_path):
    path = tmp_path / "self_app.deriv"
    path.write_text(dumps_derivation(make_self_app()))
    return str(path)


@pytest.fixture()
def brothers_file(tmp_path):
    path = tmp_path / "brothers.deriv"
    path.write_text(dumps_derivation(make_brothers()))
    return str(path)


def test_check_self_app(self_app_file, capsys):
    assert run(["check", "--file", self_app_file, "--flavor", "S"]) == 0
    out = capsys.readouterr().out
    assert "|- \\x. x x : (2:o', 4:(2:o, 3:o', 8:o) -> o', 5:o, 9:o) -> o'" in out


def test_check_brothers_fails_as_S(brothers_file, capsys):
    assert run(["check", "--file", brothers_file, "--flavor", "S"]) == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"] == "check-failed"
    assert "position" in payload


def test_check_track_conflict(tmp_path, capsys):
    # \x. x x with both axioms of x on track 4
    o = SAtom("o")
    nodes = {
        EPS: AbsNode(),
        (0,): AppNode(frozenset({2})),
        (0, 1): AxNode(4, SArrow(seq({2: o}), o)),
        (0, 2): AxNode(4, o),
    }
    path = tmp_path / "conflict.deriv"
    path.write_text(dumps_derivation(Derivation(parse_term("\\x. x x"), "S", nodes)))
    assert run(["check", "--file", str(path)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "check-failed"
    assert payload["position"] == "0"
    assert "'x'" in payload["detail"] and "[4]" in payload["detail"]


def test_check_a_derivation_nested_1000_deep(tmp_path, capsys):
    """v (v (... u)), 1,000 applications deep, each v on its own track:
    loading parses the term and the judgment prints it."""
    depth = 1000
    path = tmp_path / "deep.deriv"
    path.write_text(dumps_derivation(make_nested(depth)))
    assert run(["check", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    v_entries = ", ".join(f"{k}:(2:o) -> o" for k in range(2, depth + 2))
    subject = "v (" * (depth - 1) + "v u" + ")" * (depth - 1)
    assert out == f"u:(2:o), v:({v_entries}) |- {subject} : o\n"


def test_check_an_axiom_typed_10000_deep(tmp_path, capsys):
    """The printed type parses back at a depth the recursion limit forbids."""
    t = deep_type(DEEP)
    path = tmp_path / "deep_type.deriv"
    path.write_text(dumps_derivation(Derivation(parse_term("x"), "S", {EPS: AxNode(2, t)})))
    assert run(["check", "--file", str(path)]) == 0
    text = print_type(t)
    assert capsys.readouterr().out == f"x:(2:{text}) |- x : {text}\n"


def test_check_S_compares_sides_300_deep(tmp_path, capsys):
    path = tmp_path / "deep_app.deriv"
    path.write_text(dumps_derivation(deep_x_u(300)))
    assert run(["check", "--file", str(path), "--flavor", "S"]) == 0
    assert capsys.readouterr().out.endswith("|- x u : o\n")


def test_an_axiom_type_with_a_duplicate_track_is_bad_input(tmp_path, capsys):
    node = {"pos": "eps", "kind": "ax", "track": 2, "type": "(2:o, 2:p) -> o"}
    path = write_json_file(tmp_path, "dup.deriv", {"term": "x", "flavor": "S", "nodes": [node]})
    assert run(["check", "--file", path]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "bad-input"
    assert "duplicate track in sequence type" in payload["detail"]


def test_check_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["check"])
    assert exc.value.code == 2


def test_one_parser_serves_every_run(brothers_file, self_app_file, capsys):
    """The parser is built once per process; reusing it changes no output,
    and a usage error in between still exits 2."""
    assert build_parser() is build_parser()
    runs = [
        ["threads", "--file", brothers_file, "--json"],
        ["threads", "--file", self_app_file, "--flavor", "S", "--json"],
        ["trivialize", "--file", brothers_file, "--json"],
    ]
    first = []
    for argv in runs:
        assert run(argv) == 0
        first.append(capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        run(["threads", "--json"])
    assert exc.value.code == 2
    capsys.readouterr()
    for argv, out in zip(runs, first):
        assert run(argv) == 0
        assert capsys.readouterr().out == out


def test_collapse(self_app_file, capsys):
    assert run(["collapse", "--file", self_app_file, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["judgment"].startswith("|- [")


def test_isos_brothers(brothers_file, capsys):
    assert run(["isos", "--file", brothers_file, "--pos", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 2


def test_reduce_and_round_trip(brothers_file, tmp_path, capsys):
    out = tmp_path / "reduct.deriv"
    assert run(["reduce", "--file", brothers_file, "--pos", "1.1", "--out", str(out)]) == 0
    reduct = load_derivation(str(out))
    check_derivation(reduct)
    assert dumps_derivation(reduct) == out.read_text()


def test_reduce_error(self_app_file, capsys):
    assert run(["reduce", "--file", self_app_file, "--pos", "0"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "reduction-failed"


def test_reduce_at_a_derivation_position(tmp_path, capsys):
    # the redex is at term position 2; position 3 addresses its derivation node
    path = tmp_path / "argument_redex.deriv"
    path.write_text(dumps_derivation(make_argument_redex()))
    assert run(["reduce", "--file", str(path), "--pos", "3"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {
        "error": "reduction-failed",
        "detail": "3 is not a term position",
        "position": "3",
    }


def test_reduction_failed_names_the_node_at_fault(tmp_path, capsys):
    # the redex is at term position 2; its one node is at derivation position 3
    path = tmp_path / "argument_redex.deriv"
    path.write_text(dumps_derivation(make_argument_redex()))
    choice = write_json_file(tmp_path, "choice.json", {"redex": "2", "per_node": []})
    assert run(["reduce", "--file", str(path), "--pos", "2", "--choice", choice]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {
        "error": "reduction-failed",
        "detail": "missing root interface at 3",
        "position": "3",
    }


@pytest.mark.parametrize("mode", ["plain", "interface", "choice"])
def test_reduce_off_term_position(brothers_file, tmp_path, mode, capsys):
    # the root of the brothers' term is an application: position 0 is off the term
    argv = ["reduce", "--file", brothers_file, "--pos", "0"]
    if mode == "interface":
        argv += ["--interface", write_json_file(tmp_path, "iface.json", {"interfaces": []})]
    elif mode == "choice":
        choice = {"redex": "0", "per_node": []}
        argv += ["--choice", write_json_file(tmp_path, "choice.json", choice)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload == {"error": "reduction-failed", "detail": "no redex at 0", "position": "0"}


def test_isos_at_an_axiom(self_app_file, capsys):
    assert run(["isos", "--file", self_app_file, "--pos", "0.1"]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "not-an-application"
    assert payload["position"] == "0.1"


def test_threads_report_and_dot(brothers_file, tmp_path, capsys):
    dot = tmp_path / "brothers.dot"
    assert run(["threads", "--file", brothers_file, "--dot", str(dot), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["threads"]
    assert payload["arcs"]
    assert dot.read_text().startswith("digraph")


def test_trivialize_cli(brothers_file, tmp_path, capsys):
    interface_file = tmp_path / "iface.json"
    op = brothers_operable()
    from seqtypes.cli import _interface_to_json

    interface_file.write_text(json.dumps(_interface_to_json(op.interface)))
    out = tmp_path / "trivial.deriv"
    assert (
        run(
            [
                "trivialize",
                "--file",
                brothers_file,
                "--interface",
                str(interface_file),
                "--out",
                str(out),
                "--json",
            ]
        )
        == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["classes"]
    trivial = load_derivation(str(out))
    assert trivial.flavor == "S"
    check_derivation(trivial)


def test_brother_chain_carries_its_witness(brothers_file, monkeypatch, capsys):
    # valid input never yields a brother chain, so trivialize is forged
    def forged(op):
        raise BrotherChainError(BrotherChain((1, 4), ((1, 1, 3), EPS)))

    monkeypatch.setattr(cli, "trivialize", forged)
    assert run(["trivialize", "--file", brothers_file, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "brother-chain",
        "detail": "brother chain through threads (1, 4)",
        "witness": {"threads": [1, 4], "positions": ["1.1.3", "eps"]},
    }


def test_reduce_a_redex_over_a_term_1000_deep(tmp_path, capsys):
    # (\h. v (v (... h))) u: firing it substitutes 1,000 deep
    n = 1000
    deriv = expand_root(check_derivation(make_nested(n)), [(2,) * n], "h")
    path, out = tmp_path / "deep.deriv", tmp_path / "reduct.deriv"
    path.write_text(dumps_derivation(deriv))
    argv = ["reduce", "--file", str(path), "--pos", "eps", "--json", "--out", str(out)]
    assert run(argv) == 0
    want = "v (" * (n - 1) + "v u" + ")" * (n - 1)
    assert json.loads(capsys.readouterr().out)["judgment"].endswith(f" |- {want} : o")
    assert load_derivation(str(out)).nodes == make_nested(n).nodes


def test_gen_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run(["gen", "--seed", "42", "--size", "4", "--count", "5", "--outdir", str(out1)]) == 0
    assert run(["gen", "--seed", "42", "--size", "4", "--count", "5", "--outdir", str(out2)]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and len(files1) == 5
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        deriv = load_derivation(str(out1 / name))
        check_derivation(deriv)


def test_export_dot(self_app_file, tmp_path):
    dot = tmp_path / "self_app.dot"
    assert run(["export-dot", "--file", self_app_file, "--dot", str(dot)]) == 0
    assert "digraph" in dot.read_text()


def test_reduce_with_choice_file(brothers_file, tmp_path, capsys):
    choice = {
        "redex": "1.1",
        "per_node": [{"pos": "1.1", "rho": [[3, 3]]}],
    }
    choice_file = tmp_path / "choice.json"
    choice_file.write_text(json.dumps(choice))
    out = tmp_path / "reduct.deriv"
    assert (
        run(
            [
                "reduce",
                "--file",
                brothers_file,
                "--pos",
                "1.1",
                "--choice",
                str(choice_file),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    reduct = load_derivation(str(out))
    assert reduct.flavor == "Sh"
    check_derivation(reduct)


def bad_input(argv: list[str], capsys) -> dict:
    """Run a command that must fail on its input: exit 1, nothing on stdout,
    and the documented JSON object on stderr."""
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "bad-input"
    assert payload["detail"]
    return payload


def write_edited(tmp_path, edit) -> str:
    """A copy of the self-application file, edited as a JSON object."""
    data = json.loads(dumps_derivation(make_self_app()))
    edit(data)
    path = tmp_path / "edited.deriv"
    path.write_text(json.dumps(data))
    return str(path)


def test_invalid_json_is_bad_input(tmp_path, capsys):
    path = tmp_path / "truncated.deriv"
    path.write_text(dumps_derivation(make_self_app())[:40])
    assert "JSONDecodeError" in bad_input(["check", "--file", str(path)], capsys)["detail"]


def test_json_nested_past_the_decoder_is_bad_input(tmp_path, capsys):
    path = tmp_path / "nested.deriv"
    path.write_text("[" * 100_000)
    assert "RecursionError" in bad_input(["check", "--file", str(path)], capsys)["detail"]


def test_missing_nodes_is_bad_input(tmp_path, capsys):
    path = write_edited(tmp_path, lambda data: data.pop("nodes"))
    assert "nodes" in bad_input(["collapse", "--file", path], capsys)["detail"]


def test_bad_type_syntax_is_bad_input(tmp_path, capsys):
    def break_type(data):
        data["nodes"][-1]["type"] = "(2:o -> o"

    path = write_edited(tmp_path, break_type)
    assert "TypeSyntaxError" in bad_input(["check", "--file", path], capsys)["detail"]


def test_bad_term_syntax_is_bad_input(tmp_path, capsys):
    path = write_edited(tmp_path, lambda data: data.update(term="\\x. (x x"))
    assert "TermSyntaxError" in bad_input(["isos", "--file", path, "--pos", "0"], capsys)["detail"]


@pytest.mark.parametrize("command", ["isos", "reduce"])
def test_bad_position_is_bad_input(self_app_file, command, capsys):
    payload = bad_input([command, "--file", self_app_file, "--pos", "0.x"], capsys)
    assert payload["position"] == "0.x"


# position texts with what `parse_position` reads from them, or the start of
# its message; `int` read each letter, so it took "1_0" as 10, "+1" as 1,
# "-0" as 0 and the Arabic-Indic digit one as 1, and a letter with a leading
# zero was read as well, so "007.1" was (7, 1) and printed back as "7.1"
POSITION_TEXTS = {
    " 1.2 ": (1, 2),
    "": EPS,
    "eps": EPS,
    "0.0": (0, 0),
    "10.20": (10, 20),
    "007.1": "bad position syntax",
    "1.02": "bad position syntax",
    "-01": "bad position syntax",
    "1_0": "bad position syntax",
    "+1": "bad position syntax",
    "1. 2": "bad position syntax",
    "1..2": "bad position syntax",
    "\u0661": "bad position syntax",
    "0.x": "bad position syntax",
    "-0": "negative track",
    "-1": "negative track",
    "2.-3": "negative track",
}


@pytest.mark.parametrize("text", sorted(POSITION_TEXTS))
def test_a_position_letter_is_ascii_digits(self_app_file, text, capsys):
    want = POSITION_TEXTS[text]
    if isinstance(want, tuple):
        assert parse_position(text) == want
        return
    with pytest.raises(ValueError, match=f"^{want}"):
        parse_position(text)
    data = json.loads(dumps_derivation(make_self_app()))
    data["nodes"][-1]["pos"] = text
    with pytest.raises(LoadError, match=f"^ValueError: {want}") as exc:
        loads_derivation(json.dumps(data))
    assert (exc.value.node, exc.value.position) == (len(data["nodes"]) - 1, None)
    payload = bad_input(["reduce", "--file", self_app_file, "--pos", text], capsys)
    assert payload["detail"].startswith(want) and payload["position"] == text


def test_unknown_flavor_is_bad_input(tmp_path, capsys):
    path = write_edited(tmp_path, lambda data: data.update(flavor="T"))
    assert "flavor" in bad_input(["check", "--file", path], capsys)["detail"]


def axioms_file(tmp_path, term: str, nodes: list[dict]) -> str:
    return write_json_file(tmp_path, "hand.deriv", {"term": term, "flavor": "S", "nodes": nodes})


def set_entry(index: int, key: str, value):
    def edit(data):
        data["nodes"][index][key] = value

    return edit


# edits of the self-application file that `int` would truncate or convert:
# the root application is entry 1, the axiom on track 5 the last entry
NON_INTEGER_TRACKS = {
    "float-track": (set_entry(-1, "track", 5.5), "got 5.5"),
    "bool-track": (set_entry(-1, "track", True), "got True"),
    "string-track": (set_entry(-1, "track", "5"), "got '5'"),
    "float-args": (set_entry(1, "args", [2, 3.0, 8]), "got 3.0"),
    "bool-args": (set_entry(1, "args", [True, 2, 3]), "got True"),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_TRACKS))
def test_a_non_integer_track_is_bad_input(tmp_path, case, capsys):
    edit, detail = NON_INTEGER_TRACKS[case]
    path = write_edited(tmp_path, edit)
    assert detail in bad_input(["check", "--file", path], capsys)["detail"]


def test_a_position_listed_twice_is_bad_input(tmp_path, capsys):
    # kept in a dict, the second axiom would replace the first and the file
    # would check as |- \x. x : (3:o) -> o
    nodes = [
        {"pos": "eps", "kind": "abs"},
        {"pos": "0", "kind": "ax", "track": 2, "type": "o"},
        {"pos": "0", "kind": "ax", "track": 3, "type": "o"},
    ]
    path = axioms_file(tmp_path, "\\x. x", nodes)
    payload = bad_input(["check", "--file", path], capsys)
    assert "position 0 is listed twice" in payload["detail"]
    assert (payload["node"], payload["position"]) == (2, "0")


# edits of the self-application file with the node each names and, when its
# pos reads, its position; None where no node is at fault
NODE_FAULTS = {
    "bad-type": (set_entry(-1, "type", "(2:o -> o"), 5, "0.8"),
    "leading-zero-track": (set_entry(-1, "type", "(02:o) -> o"), 5, "0.8"),
    "bad-pos": (set_entry(2, "pos", "0.01"), 2, None),
    "missing-kind": (lambda data: data["nodes"][3].pop("kind"), 3, "0.2"),
    "unknown-kind": (set_entry(0, "kind", "lam"), 0, "eps"),
    "string-args": (set_entry(1, "args", "23"), 1, "0"),
    "bad-term": (lambda data: data.update(term="\\x. (x x"), None, None),
    "bad-flavor": (lambda data: data.update(flavor="T"), None, None),
}


@pytest.mark.parametrize("case", sorted(NODE_FAULTS))
def test_bad_input_names_the_node_at_fault(tmp_path, case, capsys):
    edit, node, position = NODE_FAULTS[case]
    path = write_edited(tmp_path, edit)
    with pytest.raises(LoadError) as exc:
        load_derivation(path)
    assert exc.value.node == node
    assert exc.value.position == (None if position is None else parse_position(position))
    payload = bad_input(["check", "--file", path], capsys)
    assert payload["detail"] == str(exc.value)
    assert payload.get("node") == node and payload.get("position") == position


def test_the_root_listed_as_eps_and_empty_is_bad_input(tmp_path, capsys):
    nodes = [
        {"pos": "eps", "kind": "ax", "track": 2, "type": "o"},
        {"pos": "", "kind": "ax", "track": 3, "type": "o"},
    ]
    path = axioms_file(tmp_path, "x", nodes)
    payload = bad_input(["check", "--file", path], capsys)
    assert "position eps is listed twice" in payload["detail"]


def test_an_argument_track_listed_twice_is_bad_input(tmp_path, capsys):
    path = write_edited(tmp_path, set_entry(1, "args", [2, 3, 3, 8]))
    payload = bad_input(["check", "--file", path], capsys)
    assert "an argument track at 0 is listed twice" in payload["detail"]


def write_json_file(tmp_path, name: str, content) -> str:
    """A file holding `content`: a string as it is, anything else as JSON."""
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def trivialize_with_interface(brothers_file, tmp_path, content, capsys) -> dict:
    interface = write_json_file(tmp_path, "iface.json", content)
    return bad_input(["trivialize", "--file", brothers_file, "--interface", interface], capsys)


def reduce_with_choice(brothers_file, tmp_path, content, capsys) -> dict:
    choice = write_json_file(tmp_path, "choice.json", content)
    argv = ["reduce", "--file", brothers_file, "--pos", "1.1", "--choice", choice]
    return bad_input(argv, capsys)


def test_invalid_interface_json_is_bad_input(brothers_file, tmp_path, capsys):
    payload = trivialize_with_interface(brothers_file, tmp_path, '{"interfaces": [', capsys)
    assert "JSONDecodeError" in payload["detail"]


def test_interface_without_phi_is_bad_input(brothers_file, tmp_path, capsys):
    content = {"interfaces": [{"pos": "eps"}]}
    payload = trivialize_with_interface(brothers_file, tmp_path, content, capsys)
    assert "phi" in payload["detail"]


def test_bad_interface_position_is_bad_input(brothers_file, tmp_path, capsys):
    content = {"interfaces": [{"pos": "eps", "phi": [["8", "3.x"]]}]}
    payload = trivialize_with_interface(brothers_file, tmp_path, content, capsys)
    assert "3.x" in payload["detail"]


def test_invalid_choice_json_is_bad_input(brothers_file, tmp_path, capsys):
    payload = reduce_with_choice(brothers_file, tmp_path, '{"redex": "1.1", ', capsys)
    assert "JSONDecodeError" in payload["detail"]


def test_choice_without_per_node_is_bad_input(brothers_file, tmp_path, capsys):
    payload = reduce_with_choice(brothers_file, tmp_path, {"redex": "1.1"}, capsys)
    assert "per_node" in payload["detail"]


def test_non_integer_rho_track_is_bad_input(brothers_file, tmp_path, capsys):
    content = {"redex": "1.1", "per_node": [{"pos": "1.1", "rho": [["a", 3]]}]}
    payload = reduce_with_choice(brothers_file, tmp_path, content, capsys)
    assert "'a'" in payload["detail"]


@pytest.mark.parametrize("track", [3.9, True])
def test_a_float_or_bool_rho_track_is_bad_input(brothers_file, tmp_path, track, capsys):
    # `int` would truncate 3.9 to 3 and read True as 1
    content = {"redex": "1.1", "per_node": [{"pos": "1.1", "rho": [[track, 3]]}]}
    payload = reduce_with_choice(brothers_file, tmp_path, content, capsys)
    assert f"got {track!r}" in payload["detail"]


def test_a_rho_source_listed_twice_is_bad_input(brothers_file, tmp_path, capsys):
    # the last listing used to win silently
    content = {"redex": "1.1", "per_node": [{"pos": "1.1", "rho": [[3, 9], [3, 3]]}]}
    payload = reduce_with_choice(brothers_file, tmp_path, content, capsys)
    assert "3 is listed twice in the rho at 1.1" in payload["detail"]


def test_a_per_node_position_listed_twice_is_bad_input(brothers_file, tmp_path, capsys):
    entry = {"pos": "1.1", "rho": [[3, 3]]}
    content = {"redex": "1.1", "per_node": [entry, entry]}
    payload = reduce_with_choice(brothers_file, tmp_path, content, capsys)
    assert "1.1 is listed twice in the choice file" in payload["detail"]


def edited_interface(edit) -> dict:
    """The brothers' interface file with the pairs of its interface at 1
    edited; that interface is 5 -> 6, 5.8 -> 6.3, 5.1 -> 6.1, 5.1.8 -> 6.1.2,
    5.1.9 -> 6.1.7 and 5.1.1 -> 6.1.1."""
    from seqtypes.cli import _interface_to_json

    data = _interface_to_json(brothers_operable().interface)
    for entry in data["interfaces"]:
        if entry["pos"] == "1":
            entry["phi"] = edit(entry["phi"])
    return data


def image_of(source: str, image: str):
    return lambda pairs: [[c, image if c == source else c2] for c, c2 in pairs]


# each case exits 1 with the `bad-interface` kind, as it did when interfaces
# were plain dicts checked only against the types; a source listed twice
# with the same image was then silently accepted
MALFORMED_INTERFACES = {
    "image off the parent's image": (image_of("5.8", "7.3"), "5.8 -> 7.3"),
    "image of another length": (image_of("5.8", "3"), "5.8 -> 3"),
    "fixed track moved": (
        lambda pairs: [[c, c2.replace("6.1", "6.4")] for c, c2 in pairs],
        "not a bijection fixing 0 and 1",
    ),
    "parent missing": (lambda pairs: [p for p in pairs if p[0] != "5.1"], "5.1 is not mapped"),
    "source twice, two images": (lambda pairs: pairs + [["5.8", "6.1"]], "5.8 is listed twice"),
    "source twice, one image": (lambda pairs: pairs + [["5.8", "6.3"]], "5.8 is listed twice"),
}


def assert_bad_interface(deriv_file, tmp_path, content, detail, position, capsys) -> None:
    interface = write_json_file(tmp_path, "iface.json", content)
    assert run(["trivialize", "--file", deriv_file, "--interface", interface, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "bad-interface"
    assert detail in payload["detail"]
    assert payload["position"] == position


@pytest.mark.parametrize("case", sorted(MALFORMED_INTERFACES))
def test_malformed_interface_is_a_bad_interface(brothers_file, tmp_path, case, capsys):
    edit, detail = MALFORMED_INTERFACES[case]
    assert_bad_interface(brothers_file, tmp_path, edited_interface(edit), detail, "1", capsys)


def test_an_application_listed_twice_is_a_bad_interface(brothers_file, tmp_path, capsys):
    # the last listing used to win silently
    content = edited_interface(lambda pairs: pairs)
    content["interfaces"].append({"pos": "eps", "phi": [["8", "5"], ["9", "3"]]})
    detail = "eps is listed twice in the interface file"
    assert_bad_interface(brothers_file, tmp_path, content, detail, "eps", capsys)


# an interface that fails at a node names it: before, the first two gave
# no position and the third let a DomainMismatchError out with none
FAULTY_INTERFACES = {
    "at no application node": ("1", [["2", "2"]], "not an application node"),
    "sides not mapped onto each other": (
        "eps",
        [["2", "2"], ["3", "3"], ["4", "5"]],
        "does not map the left sequence type onto the right one",
    ),
    "domain off the left side": ("eps", [["2", "2"]], "mapping domain differs"),
}


@pytest.mark.parametrize("case", sorted(FAULTY_INTERFACES))
def test_a_faulty_interface_names_its_node(tmp_path, case, capsys):
    pos, phi, detail = FAULTY_INTERFACES[case]
    path = tmp_path / "equal_typed.deriv"
    path.write_text(dumps_derivation(make_equal_typed(3)))
    content = {"interfaces": [{"pos": pos, "phi": phi}]}
    assert_bad_interface(str(path), tmp_path, content, detail, pos, capsys)


def test_the_unedited_interface_is_accepted(brothers_file, tmp_path, capsys):
    interface = write_json_file(tmp_path, "iface.json", edited_interface(lambda pairs: pairs))
    assert run(["trivialize", "--file", brothers_file, "--interface", interface, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["judgment"]
