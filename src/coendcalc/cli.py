"""Command-line front end.

Subcommands: validate, coend, end, bialgebra, roundtrip.  Each reads one
JSON input document, runs the computation with every verification, prints
a human-readable report and optionally writes a machine-readable JSON
report.  Exit codes: 0 all checks pass, 1 some check failed, 2 input
error or unwritable output (a ``--report`` path, or a closed stdout, after
which ``--report`` is still written), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coend import coaction_naturality, compute_coend, induced_coaction, verify_coalgebra
from .diagram import saturate_spans, validate_diagram
from .end import AlgebraData, compute_end, duality_isomorphism, verify_algebra
from .errors import CoendcalcError, InternalConsistencyError, WellDefinednessError
from .fields import Field, PrimeField, QQ
from .inputdoc import InputDocument, parse_document, render_matrix
from .reports import CheckReport
from .tensor import BialgebraData, coend_multiplication, unit_element, validate_tensor, verify_bialgebra
from .reconstruct import roundtrip_verify

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3


def _parse_field_flag(spec: str) -> Field:
    if spec == "rational":
        return QQ
    if spec.startswith("prime:"):
        try:
            return PrimeField(int(spec.split(":", 1)[1]))
        except ValueError as err:
            raise CoendcalcError(str(err)) from None
    raise CoendcalcError(f"bad --field value {spec!r}; use 'rational' or 'prime:P'")


def _render_terms(field, labels, vec):
    return [
        [field.render(x), labels[i]] for i, x in enumerate(vec) if x
    ]


def _coalgebra_payload(field, labels, coalg):
    n = coalg.dim
    delta = []
    for a in range(n):
        terms = [
            [field.render(w), labels[rs // n], labels[rs % n]]
            for rs, w in coalg.delta.col_terms(a)
        ]
        delta.append({"on": labels[a], "terms": terms})
    epsilon = [
        {"on": labels[a], "value": field.render(coalg.epsilon[0, a])} for a in range(n)
    ]
    return delta, epsilon


def _diagram_preamble(doc: InputDocument, saturate: bool):
    diagram = doc.diagram
    if saturate:
        diagram = saturate_spans(diagram)
    checks = CheckReport()
    checks.extend(validate_diagram(diagram), prefix="diagram: ")
    return diagram, checks


def _coend_section(diagram, checks: CheckReport):
    coend = compute_coend(diagram)
    labels = coend.basis_labels()
    try:
        coalg = coend.coalgebra
        checks.ok("coalgebra well-defined on the quotient")
    except WellDefinednessError as err:
        checks.fail("coalgebra well-defined on the quotient", witness=str(err))
        return coend, None, labels
    checks.extend(verify_coalgebra(coalg), prefix="coalgebra: ")
    return coend, coalg, labels


def cmd_validate(doc: InputDocument, saturate: bool):
    diagram, checks = _diagram_preamble(doc, saturate)
    if doc.tensor is not None:
        checks.extend(validate_tensor(diagram, doc.tensor), prefix="tensor: ")
    payload = {
        "objects": [{"name": n, "dim": d} for n, d in diagram.objects],
        "valid": checks.passed,
    }
    return payload, checks


def cmd_coend(doc: InputDocument, saturate: bool):
    diagram, checks = _diagram_preamble(doc, saturate)
    coend, coalg, labels = _coend_section(diagram, checks)
    field = diagram.field
    payload = {
        "dim": coend.dim,
        "ambient_dim": coend.ambient_dim,
        "relation_dim": coend.relation_dim,
        "basis": labels,
    }
    if coalg is not None:
        delta, epsilon = _coalgebra_payload(field, labels, coalg)
        payload["delta"] = delta
        payload["epsilon"] = epsilon
        try:
            coactions = {
                name: induced_coaction(coend, name) for name, _ in diagram.objects
            }
            checks.ok("coaction axioms for every object")
            checks.extend(coaction_naturality(coend, coactions))
            payload["coactions"] = [
                {"object": name, "matrix": render_matrix(field, coactions[name])}
                for name, _ in diagram.objects
            ]
        except InternalConsistencyError as err:
            checks.fail("coaction axioms for every object", witness=str(err))
    return payload, checks


def cmd_end(doc: InputDocument, saturate: bool):
    diagram, checks = _diagram_preamble(doc, saturate)
    field = diagram.field
    coend = compute_coend(diagram)
    end = compute_end(coend)
    algebra = end.algebra
    checks.extend(verify_algebra(algebra), prefix="end algebra: ")
    checks.add(
        "dim end == dim coend",
        end.dim == coend.dim,
        None if end.dim == coend.dim else f"{end.dim} != {coend.dim}",
    )
    mapping, duality = duality_isomorphism(end, coend)
    checks.extend(duality, prefix="duality: ")
    basis_payload = []
    for b in range(end.dim):
        blocks = end.tuple_blocks(b)
        basis_payload.append(
            {name: render_matrix(field, blocks[name]) for name in end.layout.names}
        )
    payload = {
        "dim": end.dim,
        "coend_dim": coend.dim,
        "basis": basis_payload,
        "algebra": {
            "product": [
                {
                    "on": [a, b],
                    "terms": [
                        [field.render(w), e]
                        for e, w in algebra.product.col_terms(a * end.dim + b)
                    ],
                }
                for a in range(end.dim)
                for b in range(end.dim)
            ],
            "unit": [field.render(x) for x in algebra.unit],
        },
        "duality_map": render_matrix(field, mapping),
    }
    return payload, checks


def cmd_bialgebra(doc: InputDocument, saturate: bool):
    diagram, checks = _diagram_preamble(doc, saturate)
    field = diagram.field
    tensor_report = validate_tensor(diagram, doc.tensor)
    checks.extend(tensor_report, prefix="tensor: ")
    coend, coalg, labels = _coend_section(diagram, checks)
    payload = {
        "dim": coend.dim,
        "basis": labels,
    }
    if coalg is None or not tensor_report.passed:
        return payload, checks
    delta, epsilon = _coalgebra_payload(field, labels, coalg)
    payload["delta"] = delta
    payload["epsilon"] = epsilon
    product, mult_report = coend_multiplication(coend, doc.tensor)
    checks.extend(mult_report, prefix="multiplication: ")
    unit = unit_element(coend, doc.tensor)
    payload["multiplication"] = [
        {
            "on": [labels[a], labels[b]],
            "terms": _render_terms(field, labels, product.col(a * coend.dim + b)),
        }
        for a in range(coend.dim)
        for b in range(coend.dim)
    ]
    payload["unit"] = _render_terms(field, labels, unit)
    bialg = BialgebraData(
        coalgebra=coalg,
        algebra=AlgebraData(dim=coend.dim, product=product, unit=tuple(unit)),
    )
    checks.extend(verify_bialgebra(bialg), prefix="bialgebra: ")
    return payload, checks


def cmd_roundtrip(doc: InputDocument, saturate: bool):
    report = roundtrip_verify(doc.coalgebra, doc.comodules or [])
    checks = CheckReport()
    checks.extend(report.checks, prefix="roundtrip: ")
    field = doc.field
    payload = {
        "status": report.status,
        "coalgebra_dim": doc.coalgebra.dim,
        "coend_dim": report.coend_dim,
        "image_dim": report.image_dim,
    }
    if report.mapping is not None:
        payload["canonical_map"] = render_matrix(field, report.mapping)
    return payload, checks


COMMANDS = {
    "validate": (cmd_validate, "diagram"),
    "coend": (cmd_coend, "diagram"),
    "end": (cmd_end, "diagram"),
    "bialgebra": (cmd_bialgebra, "diagram"),
    "roundtrip": (cmd_roundtrip, "coalgebra"),
}


def _print_human(command: str, payload: dict, checks: CheckReport, out):
    print(f"== {command} report ==", file=out)
    for key in ("dim", "ambient_dim", "relation_dim", "coend_dim", "image_dim", "status"):
        if key in payload:
            print(f"{key}: {payload[key]}", file=out)
    if payload.get("basis"):
        basis = payload["basis"]
        if basis and isinstance(basis[0], str):
            print("basis: " + "  ".join(basis), file=out)
    for entry in payload.get("delta", []):
        terms = " + ".join(f"[{w}] {l} (x) {r}" for w, l, r in entry["terms"]) or "0"
        print(f"delta({entry['on']}) = {terms}", file=out)
    for entry in payload.get("epsilon", []):
        print(f"epsilon({entry['on']}) = {entry['value']}", file=out)
    for entry in payload.get("multiplication", []):
        left, right = entry["on"]
        terms = " + ".join(f"[{w}] {l}" for w, l in entry["terms"]) or "0"
        print(f"m({left} (x) {right}) = {terms}", file=out)
    if "unit" in payload and payload.get("multiplication") is not None:
        terms = " + ".join(f"[{w}] {l}" for w, l in payload["unit"]) or "0"
        print(f"unit = {terms}", file=out)
    print("checks:", file=out)
    for check in checks.checks:
        print(f"  {check}", file=out)


def run_command(command: str, doc: InputDocument, saturate: bool = False):
    """Run one subcommand on a parsed document.

    Returns (report_dict, exit_code); precondition mismatches raise
    CoendcalcError.
    """
    handler, needs = COMMANDS[command]
    if needs == "diagram" and doc.diagram is None:
        raise CoendcalcError(f"'{command}' needs a diagram document")
    if needs == "coalgebra" and doc.coalgebra is None:
        raise CoendcalcError(f"'{command}' needs a coalgebra document")
    if command == "bialgebra" and doc.tensor is None:
        raise CoendcalcError("'bialgebra' needs a tensor section")
    payload, checks = handler(doc, saturate)
    report = {
        "command": command,
        "field": doc.field.descriptor(),
        "saturate": saturate,
        "checks": checks.to_json_obj(),
        "passed": checks.passed,
        command: payload,
    }
    code = EXIT_PASS if checks.passed else EXIT_CHECK_FAILURE
    return report, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coendcalc",
        description="Exact coend/end computation on finite matrix diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("input", help="path to the JSON input document")
        if needs == "diagram":
            p.add_argument(
                "--saturate",
                action="store_true",
                help="close the hom spans under composition before computing",
            )
        p.add_argument("--report", metavar="PATH", help="write a JSON report here")
        p.add_argument(
            "--field",
            metavar="SPEC",
            help="override the document field: 'rational' or 'prime:P'",
        )
    args = parser.parse_args(argv)

    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        print(f"error: cannot read {args.input}: {err.strerror or err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except UnicodeDecodeError as err:
        print(f"error: {args.input} is not valid UTF-8 (byte {err.start})", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        override = _parse_field_flag(args.field) if args.field else None
        doc = parse_document(text, field_override=override)
        report, code = run_command(
            args.command, doc, saturate=getattr(args, "saturate", False)
        )
    except (InternalConsistencyError, WellDefinednessError) as err:
        # a broken invariant; a failure the input can cause is a check
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except CoendcalcError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as err:  # a fault of the program, not of the input
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    checks = CheckReport()
    for c in report["checks"]:
        checks.add(c["name"], c["passed"], c["witness"])
    try:
        _print_human(args.command, report[args.command], checks, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:  # nobody reads stdout: keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to stdout: Broken pipe", file=sys.stderr)
        code = EXIT_INPUT_ERROR
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        except OSError as err:
            print(f"error: cannot write {args.report}: {err.strerror or err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
