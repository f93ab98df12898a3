"""Parsing of the JSON input document, and the rendering of its matrices.

A document either presents a diagram (objects, hom spans, optional tensor
section) or a coalgebra with comodules for round-trip mode.  Scalars are
strings parsed in the declared field; every matrix is shape-checked on
read with a diagnostic naming the offending entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .coend import CoalgebraData
from .diagram import DiagramPresentation
from .errors import InputFormatError
from .fields import Field, field_from_descriptor
from .linalg import Matrix
from .reconstruct import ComodulePresentation
from .tensor import TensorData


def _parse_matrix(field: Field, obj, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(obj, list):
        raise InputFormatError(f"{where}: matrix must be a list of rows")
    if len(obj) != rows:
        raise InputFormatError(f"{where}: expected {rows} rows, got {len(obj)}")
    entries = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise InputFormatError(f"{where}: row {i} is not a list")
        if len(row) != cols:
            raise InputFormatError(
                f"{where}: row {i} has {len(row)} entries, expected {cols}"
            )
        for j, cell in enumerate(row):
            try:
                entries.append(field.parse(cell))
            except (InputFormatError, ZeroDivisionError) as err:
                raise InputFormatError(f"{where}: entry ({i}, {j}): {err}") from None
    return Matrix(field, rows, cols, entries)


def _is_dim(value) -> bool:
    """A JSON dimension: a non-negative integer, where ``true`` is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def render_matrix(field: Field, m: Matrix) -> list:
    """The matrix as rows of rendered scalars, as documents and reports hold it."""
    return [[field.render(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


@dataclass
class InputDocument:
    """A validated input document, either diagram- or coalgebra-shaped."""

    field: Field
    diagram: Optional[DiagramPresentation] = None
    tensor: Optional[TensorData] = None
    coalgebra: Optional[CoalgebraData] = None
    comodules: Optional[list] = None

    @property
    def kind(self) -> str:
        return "coalgebra" if self.coalgebra is not None else "diagram"


def parse_document(text: str, field_override: Optional[Field] = None) -> InputDocument:
    """Parse and validate one document from JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputFormatError(f"invalid JSON: {err}") from None
    if not isinstance(data, dict):
        raise InputFormatError("top level must be a JSON object")

    if field_override is not None:
        field = field_override
    else:
        if "field" not in data:
            raise InputFormatError("missing 'field'")
        field = field_from_descriptor(data["field"])

    if "coalgebra" in data:
        return _parse_coalgebra_document(field, data["coalgebra"])
    if "objects" in data:
        return _parse_diagram_document(field, data)
    raise InputFormatError("document needs either 'objects' or 'coalgebra'")


def _parse_diagram_document(field: Field, data: dict) -> InputDocument:
    objects = []
    if not isinstance(data["objects"], list):
        raise InputFormatError("'objects' must be a list")
    for idx, obj in enumerate(data["objects"]):
        if not isinstance(obj, dict) or "name" not in obj or "dim" not in obj:
            raise InputFormatError(f"objects[{idx}] needs 'name' and 'dim'")
        name, dim = obj["name"], obj["dim"]
        if not isinstance(name, str) or not _is_dim(dim):
            raise InputFormatError(f"objects[{idx}]: bad name or dimension")
        objects.append((name, dim))
    dims = dict(objects)
    if len(dims) != len(objects):
        raise InputFormatError("duplicate object names")

    spans = {}
    homs = data.get("homs", [])
    if not isinstance(homs, list):
        raise InputFormatError("'homs' must be a list")
    for idx, hom in enumerate(homs):
        if not isinstance(hom, dict) or "src" not in hom or "dst" not in hom:
            raise InputFormatError(f"homs[{idx}] needs 'src' and 'dst'")
        src, dst = hom["src"], hom["dst"]
        if not isinstance(src, str) or not isinstance(dst, str):
            raise InputFormatError(f"homs[{idx}]: 'src' and 'dst' must be object names")
        where = f"hom ({src} -> {dst})"
        if src not in dims or dst not in dims:
            raise InputFormatError(f"{where}: unknown object")
        span = hom.get("span", [])
        if not isinstance(span, list):
            raise InputFormatError(f"{where}: 'span' must be a list of matrices")
        mats = [
            _parse_matrix(field, m, dims[dst], dims[src], f"{where} span[{k}]")
            for k, m in enumerate(span)
        ]
        spans[(src, dst)] = spans.get((src, dst), []) + mats
    for name, dim in objects:
        if (name, name) not in spans and dim > 0:
            spans[(name, name)] = [Matrix.identity(field, dim)]

    diagram = DiagramPresentation(field, objects, spans)

    tensor = None
    if "tensor" in data:
        tdata = data["tensor"]
        if not isinstance(tdata, dict) or "unit" not in tdata or "table" not in tdata:
            raise InputFormatError("'tensor' needs 'unit' and 'table'")
        for key in ("table", "f2"):
            if not isinstance(tdata.get(key, {}), dict):
                raise InputFormatError(f"'tensor.{key}' must be an object")
        if not isinstance(tdata["unit"], str):
            raise InputFormatError("'tensor.unit' must be an object name")
        table = {}
        for key, value in tdata["table"].items():
            parts = key.split(",")
            if len(parts) != 2:
                raise InputFormatError(f"tensor table key {key!r} is not 'X,Y'")
            x, y = parts[0].strip(), parts[1].strip()
            if not isinstance(value, str):
                raise InputFormatError(f"tensor table entry {key!r} must be an object name")
            if x not in dims or y not in dims or value not in dims:
                raise InputFormatError(f"tensor table entry {key!r}: unknown object")
            table[(x, y)] = value
        isos = {}
        for key, value in tdata.get("f2", {}).items():
            parts = key.split(",")
            if len(parts) != 2:
                raise InputFormatError(f"tensor f2 key {key!r} is not 'X,Y'")
            x, y = parts[0].strip(), parts[1].strip()
            if (x, y) not in table:
                raise InputFormatError(f"tensor f2 entry {key!r}: pair not in table")
            target = table[(x, y)]
            isos[(x, y)] = _parse_matrix(
                field, value, dims[target], dims[x] * dims[y], f"tensor f2[{key}]"
            )
        tensor = TensorData.build(diagram, tdata["unit"], table, isos)
    return InputDocument(field=field, diagram=diagram, tensor=tensor)


def _parse_coalgebra_document(field: Field, data: dict) -> InputDocument:
    if not isinstance(data, dict) or "dim" not in data:
        raise InputFormatError("'coalgebra' needs 'dim'")
    n = data["dim"]
    if not _is_dim(n):
        raise InputFormatError("'coalgebra.dim' must be a non-negative integer")
    delta = _parse_matrix(field, data.get("delta", []), n * n, n, "coalgebra delta")
    eps_row = data.get("epsilon", [])
    epsilon = _parse_matrix(field, [eps_row], 1, n, "coalgebra epsilon")
    coalg = CoalgebraData(dim=n, delta=delta, epsilon=epsilon)
    mods = data.get("comodules", [])
    if not isinstance(mods, list):
        raise InputFormatError("'comodules' must be a list")
    comodules = []
    for idx, mod in enumerate(mods):
        if not isinstance(mod, dict) or "dim" not in mod or "rho" not in mod:
            raise InputFormatError(f"comodules[{idx}] needs 'dim' and 'rho'")
        d = mod["dim"]
        if not _is_dim(d):
            raise InputFormatError(f"comodules[{idx}]: bad dimension")
        rho = _parse_matrix(field, mod["rho"], d * n, d, f"comodules[{idx}] rho")
        comodules.append(ComodulePresentation(dim=d, rho=rho))
    return InputDocument(field=field, coalgebra=coalg, comodules=comodules)

