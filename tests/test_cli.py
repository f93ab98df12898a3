import json

import pytest

from coendcalc import GF, InputFormatError, InternalConsistencyError, WellDefinednessError
from coendcalc.cli import main, run_command
from coendcalc.inputdoc import parse_document

from fixtures import render_document

Z2_DOC = """
{
  "field": {"kind": "rational"},
  "objects": [{"name": "g0", "dim": 1}, {"name": "g1", "dim": 1}],
  "tensor": {
    "unit": "g0",
    "table": {"g0,g0": "g0", "g0,g1": "g1", "g1,g0": "g1", "g1,g1": "g0"}
  }
}
"""

COMATRIX_DOC = """
{
  "field": {"kind": "rational"},
  "objects": [{"name": "X", "dim": 2}],
  "homs": [{"src": "X", "dst": "X", "span": [[["1", "0"], ["0", "1"]]]}]
}
"""

UNSATURATED_DOC = """
{
  "field": {"kind": "rational"},
  "objects": [{"name": "X", "dim": 2}, {"name": "Y", "dim": 2}],
  "homs": [
    {"src": "X", "dst": "Y", "span": [[["0", "1"], ["0", "0"]]]},
    {"src": "Y", "dst": "X", "span": [[["0", "0"], ["1", "0"]]]}
  ]
}
"""

ROUNDTRIP_DOC = """
{
  "field": {"kind": "rational"},
  "coalgebra": {
    "dim": 2,
    "delta": [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]],
    "epsilon": ["1", "1"],
    "comodules": [
      {"dim": 1, "rho": [["1"], ["0"]]},
      {"dim": 1, "rho": [["0"], ["1"]]}
    ]
  }
}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_z2_document():
    doc = parse_document(Z2_DOC)
    assert doc.kind == "diagram"
    assert [n for n, _ in doc.diagram.objects] == ["g0", "g1"]
    assert doc.tensor is not None
    assert doc.tensor.table[("g1", "g1")] == "g0"
    # defaulted spans and comparison maps
    assert len(doc.diagram.span("g0", "g0")) == 1
    assert ("g1", "g1") in doc.tensor.pair_isos


def test_parse_shape_error_names_entry():
    bad = json.loads(COMATRIX_DOC)
    bad["homs"][0]["span"][0][0].append("9")
    with pytest.raises(InputFormatError, match=r"hom \(X -> X\)"):
        parse_document(json.dumps(bad))


def test_parse_nonprime_modulus():
    with pytest.raises(InputFormatError, match="prime"):
        parse_document('{"field": {"kind": "prime", "p": 6}, "objects": []}')


def test_parse_unknown_object_in_hom():
    bad = json.loads(COMATRIX_DOC)
    bad["homs"][0]["dst"] = "Z"
    with pytest.raises(InputFormatError, match="unknown object"):
        parse_document(json.dumps(bad))


def test_render_parse_round_trip():
    for text in (Z2_DOC, COMATRIX_DOC, ROUNDTRIP_DOC):
        doc = parse_document(text)
        rendered = render_document(doc)
        doc2 = parse_document(rendered)
        assert doc2.field == doc.field
        assert doc2.diagram == doc.diagram
        assert doc2.tensor == doc.tensor
        assert doc2.coalgebra == doc.coalgebra
        assert doc2.comodules == doc.comodules
        assert render_document(doc2) == rendered


def test_run_coend_on_comatrix():
    doc = parse_document(COMATRIX_DOC)
    report, code = run_command("coend", doc)
    assert code == 0
    payload = report["coend"]
    assert payload["dim"] == 4
    assert payload["basis"] == ["X:1,1", "X:1,2", "X:2,1", "X:2,2"]
    first = payload["delta"][0]
    assert first["on"] == "X:1,1"
    assert [t for t in first["terms"]] == [
        ["1", "X:1,1", "X:1,1"],
        ["1", "X:1,2", "X:2,1"],
    ]


def test_run_bialgebra_on_z2(tmp_path, capsys):
    path = write(tmp_path, "z2.json", Z2_DOC)
    report_path = str(tmp_path / "report.json")
    code = main(["bialgebra", path, "--report", report_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    data = json.loads(open(report_path).read())
    assert data["passed"] is True
    assert data["bialgebra"]["dim"] == 2
    mult = {tuple(e["on"]): e["terms"] for e in data["bialgebra"]["multiplication"]}
    assert mult[("g1:1,1", "g1:1,1")] == [["1", "g0:1,1"]]


def test_run_end_on_comatrix(tmp_path):
    doc = parse_document(COMATRIX_DOC)
    report, code = run_command("end", doc)
    assert code == 0
    assert report["end"]["dim"] == 4
    assert report["end"]["coend_dim"] == 4


def test_run_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "rt.json", ROUNDTRIP_DOC)
    code = main(["roundtrip", path])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_roundtrip_partial_exits_nonzero(tmp_path):
    data = json.loads(ROUNDTRIP_DOC)
    data["coalgebra"]["comodules"] = data["coalgebra"]["comodules"][:1]
    path = write(tmp_path, "partial.json", json.dumps(data))
    code = main(["roundtrip", path])
    assert code == 1


def test_reports_are_byte_identical(tmp_path):
    path = write(tmp_path, "z2.json", Z2_DOC)
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["bialgebra", path, "--report", r1]) == 0
    assert main(["bialgebra", path, "--report", r2]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()


def test_unsaturated_run_vs_saturate_flag(tmp_path):
    path = write(tmp_path, "unsat.json", UNSATURATED_DOC)
    report, code = run_command("coend", parse_document(open(path).read()))
    assert code == 1  # closure check fails without saturation
    assert any(
        "closure" in c["name"] and not c["passed"] for c in report["checks"]
    )
    report2, code2 = run_command(
        "coend", parse_document(open(path).read()), saturate=True
    )
    assert code2 == 0
    assert report2["saturate"] is True


def test_roundtrip_rejects_saturate(tmp_path, capsys):
    # saturation acts on a diagram; a coalgebra document has none to close
    path = write(tmp_path, "rt.json", ROUNDTRIP_DOC)
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exit_info:
        main(["roundtrip", path, "--saturate", "--report", str(report)])
    assert exit_info.value.code == 2
    assert "--saturate" in capsys.readouterr().err
    assert not report.exists()


def test_field_override(tmp_path, capsys):
    path = write(tmp_path, "z2.json", Z2_DOC)
    code = main(["coend", path, "--field", "prime:5"])
    assert code == 0
    path2 = write(tmp_path, "bad.json", Z2_DOC)
    assert main(["coend", path2, "--field", "prime:6"]) == 2


def test_exit_codes_for_input_errors(tmp_path, capsys):
    assert main(["coend", str(tmp_path / "missing.json")]) == 2
    bad = write(tmp_path, "bad.json", "{not json")
    assert main(["coend", bad]) == 2
    # command/document mismatches
    z2 = write(tmp_path, "z2.json", Z2_DOC)
    rt = write(tmp_path, "rt.json", ROUNDTRIP_DOC)
    assert main(["roundtrip", z2]) == 2
    assert main(["coend", rt]) == 2
    comatrix = write(tmp_path, "c.json", COMATRIX_DOC)
    assert main(["bialgebra", comatrix]) == 2
    # containers of the wrong type, which used to end in a TypeError
    for base, section, key, value in (
        (Z2_DOC, "tensor", "table", {"g0,g0": ["g0"]}),
        (Z2_DOC, "tensor", "unit", ["g0"]),
        (COMATRIX_DOC, None, "homs", 3),
        (COMATRIX_DOC, None, "homs", [{"src": ["X"], "dst": "X"}]),
    ):
        data = json.loads(base)
        (data[section] if section else data)[key] = value
        text = json.dumps(data)
        with pytest.raises(InputFormatError):
            parse_document(text)
        capsys.readouterr()
        assert main(["validate", write(tmp_path, "typed.json", text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unreadable_input_is_an_input_error(tmp_path, capsys):
    # a directory cannot be read as a document
    assert main(["coend", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read {tmp_path}: Is a directory\n"


def test_unwritable_report_is_an_input_error(tmp_path, capsys):
    comatrix = write(tmp_path, "c.json", COMATRIX_DOC)
    report = tmp_path / "missing" / "r.json"
    assert main(["coend", comatrix, "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {report}: No such file or directory\n"
    assert not report.parent.exists()


def test_internal_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    from coendcalc import cli

    def broken(doc, saturate):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "coend", (broken, "diagram"))
    assert main(["coend", write(tmp_path, "c.json", COMATRIX_DOC)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError('boom')\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target, error", [
    ("coendcalc.end.end_algebra", InternalConsistencyError("product tuple escaped the end")),
    ("coendcalc.cli.duality_isomorphism", WellDefinednessError(
        "pairing functional does not vanish on the relation space", witness="generator X:1,1"
    )),
], ids=["InternalConsistencyError", "WellDefinednessError"])
def test_broken_invariant_exits_3_with_one_line(target, error, tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise error

    monkeypatch.setattr(target, broken)
    assert main(["end", write(tmp_path, "c.json", COMATRIX_DOC)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {error!r}\n"


def test_validate_command(tmp_path, capsys):
    z2 = write(tmp_path, "z2.json", Z2_DOC)
    assert main(["validate", z2]) == 0
    unsat = write(tmp_path, "unsat.json", UNSATURATED_DOC)
    assert main(["validate", unsat]) == 1
    assert main(["validate", unsat, "--saturate"]) == 0


def test_shipped_sample_inputs(capsys):
    import pathlib

    samples = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
    assert main(["coend", str(samples / "comatrix2.json")]) == 0
    assert main(["bialgebra", str(samples / "z2_grading.json")]) == 0
    assert main(["roundtrip", str(samples / "comatrix_roundtrip.json")]) == 0
    assert "status: PASS" in capsys.readouterr().out


def test_prime_field_document(tmp_path):
    data = json.loads(COMATRIX_DOC)
    data["field"] = {"kind": "prime", "p": 5}
    data["homs"][0]["span"][0] = [["1", "7"], ["0", "1"]]
    doc = parse_document(json.dumps(data))
    assert doc.field == GF(5)
    assert doc.diagram.span("X", "X")[0][0, 1] == 2


def _with_true_dim(where):
    """A document that passes except for ``"dim": true`` at ``where``."""
    data = json.loads(ROUNDTRIP_DOC if where != "objects" else COMATRIX_DOC)
    if where == "objects":
        data["objects"] = [{"name": "X", "dim": True}]
        data["homs"] = []
    elif where == "coalgebra":
        data["coalgebra"] = {"dim": True, "delta": [["1"]], "epsilon": ["1"],
                             "comodules": [{"dim": 1, "rho": [["1"]]}]}
    else:
        data["coalgebra"]["comodules"][0]["dim"] = True
    return json.dumps(data)


@pytest.mark.parametrize("where", ["objects", "coalgebra", "comodules"])
def test_bool_dimension_is_an_input_error(tmp_path, capsys, where):
    text = _with_true_dim(where)
    with pytest.raises(InputFormatError):
        parse_document(text)
    command = "validate" if where == "objects" else "roundtrip"
    assert main([command, write(tmp_path, "doc.json", text)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("value", [None, 5, {}], ids=repr)
def test_non_list_comodules_is_an_input_error(tmp_path, capsys, value):
    data = json.loads(ROUNDTRIP_DOC)
    data["coalgebra"]["comodules"] = value
    path = write(tmp_path, "doc.json", json.dumps(data))
    assert main(["roundtrip", path]) == 2
    assert capsys.readouterr().err == "error: 'comodules' must be a list\n"


@pytest.mark.parametrize("section", ["table", "f2"])
def test_non_object_tensor_section_is_an_input_error(tmp_path, capsys, section):
    data = json.loads(Z2_DOC)
    data["tensor"][section] = [["g0", "g0"]]
    path = write(tmp_path, "doc.json", json.dumps(data))
    assert main(["bialgebra", path]) == 2
    assert capsys.readouterr().err == f"error: 'tensor.{section}' must be an object\n"


def test_invalid_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(COMATRIX_DOC.replace('"X"', '"\xc4"').encode("latin-1"))
    assert main(["coend", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err and len(err.splitlines()) == 1


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    import coendcalc

    root = pathlib.Path(__file__).resolve().parent.parent
    src = str(pathlib.Path(coendcalc.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    report = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        run = subprocess.run(
            [sys.executable, "-m", "coendcalc", "coend",
             str(root / "sample_inputs" / "comatrix2.json"), "--report", str(report)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    err = run.stderr.decode()
    assert run.returncode == 2
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: cannot write to stdout: Broken pipe\n"
    # the JSON report is still written, byte for byte as with an open stdout
    assert report.read_text() == (root / "tests" / "golden" / "comatrix2.coend.json").read_text()
