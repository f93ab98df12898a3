"""Golden reports: the ``--report`` JSON of fixed inputs, byte for byte.

``tests/golden/<input>.<command>[.saturate].json`` is the report that
``coendcalc <command> <input> [--saturate] --report PATH`` writes.  The
inputs are every file in ``sample_inputs/`` under each command that accepts
it, plus one generated instance per benchmark workload in
``tests/golden/inputs/`` (``bench/workloads.py``, seed ``golden``, index 0:
``end`` d=3, ``roundtrip`` regular d=3, ``bialgebra`` Z/6).  Reports are
meant to stay byte-identical across refactors and speed-ups, so a
difference is a change of behaviour: mend the code, never the file.
"""

import pathlib

import pytest

from coendcalc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
INPUT_DIRS = (ROOT / "sample_inputs", GOLDEN / "inputs")
CASES = sorted(GOLDEN.glob("*.json"))


def _input_for(stem: str) -> pathlib.Path:
    found = [d / f"{stem}.json" for d in INPUT_DIRS if (d / f"{stem}.json").exists()]
    assert len(found) == 1, f"no unique input for {stem}"
    return found[0]


def test_every_input_has_a_golden_report():
    stems = {case.name.split(".")[0] for case in CASES}
    inputs = {p.stem for d in INPUT_DIRS for p in d.glob("*.json")}
    assert inputs and stems == inputs


@pytest.mark.parametrize("golden", CASES, ids=lambda p: p.name)
def test_report_matches_golden(golden, tmp_path, capsys):
    stem, command, *flags = golden.name[: -len(".json")].split(".")
    assert flags in ([], ["saturate"])
    out = tmp_path / "report.json"
    argv = [command, str(_input_for(stem)), "--report", str(out)]
    code = main(argv + [f"--{flag}" for flag in flags])
    capsys.readouterr()
    assert code in (0, 1)
    assert out.read_bytes() == golden.read_bytes()
