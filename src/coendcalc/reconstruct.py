"""Comodule diagrams and the coalgebra reconstruction round trip.

Given coalgebra structure constants and a finite list of comodules, the
forgetful diagram has the comodules as objects and the full spaces of
comodule morphisms as hom spans; ``roundtrip_verify`` checks each
comodule once, before anything is built, and nothing checks it again.
The canonical map reads the coalgebra leg off each coaction; when the
chosen comodules see enough of the coalgebra it is an isomorphism onto
it, and a proper subcoalgebra is reported honestly as a partial
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coend import (
    CoalgebraData,
    CoendStructure,
    compute_coend,
    induced_coaction,
    is_coalgebra_map,
    verify_coaction,
)
from .diagram import DiagramPresentation
from .errors import ShapeError, WellDefinednessError
from .linalg import Matrix, SparseMap, kernel_basis, kron, rank, unvec_matrix
from .reports import CheckReport


@dataclass(frozen=True)
class ComodulePresentation:
    """A finite-dimensional right comodule given by its coaction matrix.

    ``rho`` is (dim * n) x dim over a coalgebra of dimension n; column j
    lists the coordinates of the coaction of basis vector j in the
    (vector (x) coalgebra) ordering used by the Kronecker convention.
    """

    dim: int
    rho: Matrix


def verify_comodule(c: CoalgebraData, m: ComodulePresentation) -> CheckReport:
    """Exact coaction axioms for one comodule."""
    return verify_coaction(c, m.rho, m.dim)


def comodule_hom_span(
    c: CoalgebraData, m: ComodulePresentation, n: ComodulePresentation
) -> list:
    """Basis of the space of comodule morphisms from m to n.

    A map g must satisfy rho_n . g = (g (x) id) . rho_m; the solutions
    form the kernel of a linear system over the entries of g, where
    unknown s*dn + r is g[r, s].  Row (q*dn + r)*nc + t of the system is
    entry (r*nc + t, q) of rho_n . g - (g (x) id) . rho_m and is read off
    the coactions without a product: row r*nc + t of rho_n against
    column q of g, minus the entries rho_m[s*nc + t, q] against row r
    of g.

    Precondition: m and n are comodules of c; this does not check them.
    """
    field = c.field
    dm, dn, nc = m.dim, n.dim, c.dim
    one, minus = field.one, field.neg(field.one)
    system = []
    for q in range(dm):
        for r in range(dn):
            for t in range(nc):
                on_n = {q * dn + s: x for s, x in n.rho.row_terms(r * nc + t).items()}
                col = m.rho.entries[t * dm + q :: nc * dm]  # rho_m[s*nc + t, q] over s
                on_m = {s * dn + r: x for s, x in enumerate(col) if x}
                system.append(field.lincomb(((one, on_n), (minus, on_m))))
    return [unvec_matrix(field, v, dn, dm) for v in kernel_basis(field, dn * dm, system)]


def diagram_from_comodules(
    c: CoalgebraData, mods: list, names: Optional[list] = None
) -> DiagramPresentation:
    """The forgetful diagram of the given comodules.

    Hom spans are the full comodule morphism spaces, so composition
    closure holds automatically.
    """
    if names is None:
        names = [f"M{i}" for i in range(len(mods))]
    objects = [(name, mod.dim) for name, mod in zip(names, mods)]
    spans = {}
    for i, src in enumerate(mods):
        for j, dst in enumerate(mods):
            basis = comodule_hom_span(c, src, dst)
            if basis:
                spans[(names[i], names[j])] = tuple(basis)
    return DiagramPresentation(c.field, objects, spans)


def canonical_map(
    coend: CoendStructure, c: CoalgebraData, mods: list
) -> Matrix:
    """The map from the coend onto the coalgebra, read off the coactions.

    The generator (i, j) of the block of comodule X goes to the
    coalgebra leg of the coaction of basis vector j paired against dual
    basis vector i.  It must kill the relation space to descend to the coend.
    """
    field = c.field
    nc = c.dim
    names = coend.layout.names
    if len(names) != len(mods):
        raise ShapeError("coend and comodule list do not match")
    cols = []
    for name, mod in zip(names, mods):
        d = coend.diagram.dim(name)
        if d != mod.dim:
            raise ShapeError(f"object {name!r} and its comodule disagree on dimension")
        for i in range(d):
            for j in range(d):
                cols.append(tuple(mod.rho[i * nc + a, j] for a in range(nc)))
    return coend.descend(("canonical map", SparseMap.from_columns(field, nc, cols)))[0]


@dataclass
class RoundtripReport:
    """Outcome of one reconstruction round trip."""

    status: str  # PASS, PARTIAL, or FAIL
    coend_dim: int
    image_dim: int
    checks: CheckReport
    mapping: Optional[Matrix] = None

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def roundtrip_verify(c: CoalgebraData, mods: list) -> RoundtripReport:
    """Rebuild the coalgebra from its comodules and compare.

    PASS means the canonical map is a bijective coalgebra map; PARTIAL
    means it is injective onto a proper subcoalgebra (the image dimension
    is reported); anything else is FAIL.
    """
    checks = CheckReport()
    ok = True
    for idx, mod in enumerate(mods):
        report = verify_comodule(c, mod)
        checks.extend(report, prefix=f"comodule {idx}: ")
        ok = ok and report.passed
    if not ok:
        return RoundtripReport("FAIL", 0, 0, checks)

    diagram = diagram_from_comodules(c, mods)
    coend = compute_coend(diagram)
    try:
        phi = canonical_map(coend, c, mods)
        checks.ok("canonical map well-defined")
    except WellDefinednessError as err:
        checks.fail("canonical map well-defined", witness=str(err.witness))
        return RoundtripReport("FAIL", coend.dim, 0, checks)

    image_dim = rank(phi)
    injective = image_dim == coend.dim
    surjective = image_dim == c.dim
    checks.add(
        "injective",
        injective,
        None if injective else f"rank {image_dim} of coend dim {coend.dim}",
    )
    checks.add(
        "surjective onto coalgebra",
        surjective,
        None if surjective else f"image dim {image_dim} of {c.dim}",
    )

    checks.extend(is_coalgebra_map(coend.coalgebra, c, phi), prefix="canonical map: ")

    checks.add_first("induced coactions carried back", (
        f"comodule at object {name!r}"
        for name, mod in zip(coend.layout.names, mods)
        if kron(Matrix.identity(c.field, mod.dim), phi) * induced_coaction(coend, name)
        != mod.rho
    ))

    map_ok = all(
        ch.passed
        for ch in checks.checks
        if ch.name not in ("surjective onto coalgebra",)
    )
    if map_ok and surjective:
        status = "PASS"
    elif map_ok:
        status = "PARTIAL"
    else:
        status = "FAIL"
    return RoundtripReport(status, coend.dim, image_dim, checks, mapping=phi)
