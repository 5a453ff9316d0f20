"""`seqtypes isos` prints what the eager enumerator printed, byte for byte.

`isos_golden.json` holds the text and `--json` outputs at every
application node of the samples, the equal-typed family (k = 1..5) and S_h
relabellings of some of them, as recorded with the group-and-permute
enumerator that `reference_isos.py` keeps.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from seqtypes.cli import run
from seqtypes.derivations import check_derivation, dumps_derivation
from seqtypes.positions import format_position
from seqtypes.trivialize import random_relabelling, reset_derivation

from samples import (
    make_brothers,
    make_equal_typed,
    make_self_app,
    make_tracked_redex,
    make_two_choice_redex,
    make_wide,
)

GOLDEN = Path(__file__).with_name("isos_golden.json")


def isos_cases(tmp: Path) -> dict[str, list[str]]:
    """`isos` command lines at every application node, keyed by a stable name."""
    samples = {
        "self_app": make_self_app(),
        "brothers": make_brothers(),
        "two_choice_redex": make_two_choice_redex(),
        "tracked_redex": make_tracked_redex(),
        "wide2": make_wide(2),
        "wide3": make_wide(3),
        **{f"equal{k}": make_equal_typed(k) for k in range(1, 6)},
    }
    rng = random.Random(20250809)
    for name in ("self_app", "wide2", "equal3", "equal4"):
        checked = check_derivation(samples[name])
        reset = reset_derivation(checked, random_relabelling(checked, rng), flavor="Sh")
        samples[f"{name}_sh"] = reset.checked.derivation
    cases = {}
    for name, deriv in samples.items():
        path = tmp / f"{name}.deriv"
        path.write_text(dumps_derivation(deriv))
        for a in check_derivation(deriv).app_positions():
            pos = format_position(a)
            cases[f"{name} isos {pos}"] = ["isos", "--file", str(path), "--pos", pos]
            cases[f"{name} isos {pos} --json"] = cases[f"{name} isos {pos}"] + ["--json"]
    return cases


def isos_outputs(tmp: Path) -> dict[str, str]:
    outputs = {}
    for name, argv in isos_cases(tmp).items():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(argv) == 0, name
        outputs[name] = out.getvalue()
    return outputs


def test_isos_outputs_match_reference(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    outputs = isos_outputs(tmp_path)
    assert sorted(outputs) == sorted(golden)
    for name, text in outputs.items():
        assert text == golden[name], name
