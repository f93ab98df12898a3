"""Finite presentations of a linear functor on a matrix diagram.

A diagram lists objects with dimensions and, for each ordered object pair,
a finite set of matrices spanning the image of the corresponding hom-space
under the functor.  Only the linear span of those images matters to every
construction downstream, so presentations never mention abstract
morphisms: two diagrams with the same spans are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .fields import Field
from .linalg import Matrix, VectorSpan, unvec_matrix, vec_matrix
from .reports import CheckReport


class DiagramPresentation:
    """Objects with dimensions plus spanning matrices per object pair.

    ``objects`` is an ordered list of ``(name, dim)``; ``hom_spans`` maps
    ``(src_name, dst_name)`` to a list of ``dim(dst) x dim(src)`` matrices.
    Pairs absent from the mapping present the zero span.  Instances are
    treated as immutable after construction.
    """

    def __init__(self, field: Field, objects, hom_spans):
        self.field = field
        self.objects = tuple((str(name), int(dim)) for name, dim in objects)
        names = [name for name, _ in self.objects]
        if len(set(names)) != len(names):
            raise ShapeError("object names must be unique")
        for name, dim in self.objects:
            if dim < 0:
                raise ShapeError(f"object {name!r} has negative dimension")
        self.index = {name: i for i, (name, _) in enumerate(self.objects)}
        self.dims = {name: dim for name, dim in self.objects}
        spans = {}
        for (src, dst), mats in hom_spans.items():
            if src not in self.index or dst not in self.index:
                raise ShapeError(f"hom span references unknown object ({src!r}, {dst!r})")
            checked = []
            for m in mats:
                if not isinstance(m, Matrix):
                    raise ShapeError(f"hom span ({src!r} -> {dst!r}) contains a non-matrix")
                if m.field != field:
                    raise ShapeError(f"hom span ({src!r} -> {dst!r}) uses a different field")
                if (m.rows, m.cols) != (self.dims[dst], self.dims[src]):
                    raise ShapeError(
                        f"hom span ({src!r} -> {dst!r}) expects "
                        f"{self.dims[dst]}x{self.dims[src]} matrices, got {m.rows}x{m.cols}"
                    )
                checked.append(m)
            spans[(src, dst)] = tuple(checked)
        self.hom_spans = spans

    def names(self):
        return [name for name, _ in self.objects]

    def dim(self, name: str) -> int:
        return self.dims[name]

    def span(self, src: str, dst: str) -> tuple:
        return self.hom_spans.get((src, dst), ())

    def __eq__(self, other):
        return (
            isinstance(other, DiagramPresentation)
            and self.field == other.field
            and self.objects == other.objects
            and self.hom_spans == other.hom_spans
        )

    def __repr__(self):
        objs = ", ".join(f"{n}:{d}" for n, d in self.objects)
        return f"DiagramPresentation({objs})"


@dataclass(frozen=True)
class HomBasis:
    """Echelon-selected basis of one hom span, with its dimension."""

    src: str
    dst: str
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def hom_basis(d: DiagramPresentation, src: str, dst: str) -> HomBasis:
    """Canonical linearly independent basis of the span of (src -> dst).

    The basis consists of the nonzero rref rows of the vectorized span,
    turned back into matrices, so it only depends on the span itself.
    """
    rows_d, cols_d = d.dim(dst), d.dim(src)
    span = span_of(d.field, rows_d * cols_d, d.span(src, dst))
    basis = tuple(unvec_matrix(d.field, v, rows_d, cols_d) for v in span.basis())
    return HomBasis(src, dst, basis)


def span_of(field: Field, dim: int, mats) -> VectorSpan:
    """The span of the vectorized matrices, in a space of dimension ``dim``."""
    span = VectorSpan(field, dim)
    for m in mats:
        span.add(vec_matrix(m))
    return span


def validate_diagram(d: DiagramPresentation) -> CheckReport:
    """Check identity containment and composition closure of the spans.

    Shape consistency is enforced at construction time, so it is reported
    as a plain pass here; closure failures carry the witness pair.
    """
    report = CheckReport()
    report.ok("shapes")

    for name, dim in d.objects:
        if dim == 0:
            continue
        span = span_of(d.field, dim * dim, d.span(name, name))
        if span.contains(vec_matrix(Matrix.identity(d.field, dim))):
            report.ok(f"identity in span ({name} -> {name})")
        else:
            report.fail(
                f"identity in span ({name} -> {name})",
                witness=f"identity of {name!r} not in its endomorphism span",
            )

    names = d.names()
    bases = {x: {y: hom_basis(d, x, y) for y in names} for x in names}  # no pair keys
    for x in names:
        targets = {}  # z -> the span of (x -> z), built once
        for y in names:
            first = bases[x][y]
            if not first.basis:
                continue
            for z in names:
                second = bases[y][z]
                if not second.basis:
                    continue
                if z not in targets:
                    targets[z] = span_of(d.field, d.dim(z) * d.dim(x), bases[x][z].basis)
                target = targets[z]
                report.add_first(f"closure ({x} -> {y} -> {z})", (
                    f"composite of span matrices escapes span ({x} -> {z})"
                    for a in first.basis
                    for b in second.basis
                    if not target.contains(vec_matrix(b * a))
                ))
    return report


def saturate_spans(d: DiagramPresentation) -> DiagramPresentation:
    """Smallest spans containing the input, closed under composition and
    identities.

    Spans grow monotonically and each is bounded by dim(dst)*dim(src), so
    the product iteration terminates; the result passes closure.
    """
    names = d.names()
    spans = {}
    for x in names:
        for y in names:
            spans[(x, y)] = span_of(d.field, d.dim(y) * d.dim(x), d.span(x, y))
    for name, dim in d.objects:
        if dim > 0:
            spans[(name, name)].add(vec_matrix(Matrix.identity(d.field, dim)))

    def mats(x, y):
        return [unvec_matrix(d.field, v, d.dim(y), d.dim(x)) for v in spans[(x, y)].basis()]

    changed = True
    while changed:
        changed = False
        for x in names:
            for y in names:
                if spans[(x, y)].dim == 0:
                    continue
                for z in names:
                    if spans[(y, z)].dim == 0:
                        continue
                    for a in mats(x, y):
                        for b in mats(y, z):
                            if spans[(x, z)].add(vec_matrix(b * a)):
                                changed = True

    hom_spans = {
        (x, y): tuple(mats(x, y)) for x in names for y in names if spans[(x, y)].dim > 0
    }
    return DiagramPresentation(d.field, d.objects, hom_spans)
