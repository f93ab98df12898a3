from fractions import Fraction

import pytest

from coendcalc import (
    GF,
    QQ,
    ComodulePresentation,
    Matrix,
    canonical_map,
    coalgebra_structure,
    comodule_hom_span,
    compute_coend,
    diagram_from_comodules,
    grouplike_coalgebra,
    induced_coaction,
    is_coalgebra_map,
    kron,
    roundtrip_verify,
    validate_diagram,
    verify_comodule,
)
from coendcalc.linalg import rank

from fixtures import (
    comatrix_with_two_comodules,
    regular_comodule_setup,
    shipped_samples,
    two_grouplike_setup,
)
from oracles import oracle_comodule_hom_span


def grouplike_comodule(field, index, count):
    """The 1-dim comodule whose coaction lands on one grouplike."""
    coords = [[field.one if a == index else field.zero] for a in range(count)]
    return ComodulePresentation(dim=1, rho=Matrix.from_rows(field, coords))


def test_verify_comodule():
    coalg, (regular,) = regular_comodule_setup(QQ)
    assert verify_comodule(coalg, regular).passed
    broken = ComodulePresentation(dim=4, rho=Matrix.zeros(QQ, 16, 4))
    assert not verify_comodule(coalg, broken).passed


def test_hom_span_same_grouplike_is_scalars():
    coalg = grouplike_coalgebra(QQ, 2)
    m0 = grouplike_comodule(QQ, 0, 2)
    span = comodule_hom_span(coalg, m0, m0)
    assert len(span) == 1
    assert span[0].rows == span[0].cols == 1


def test_hom_span_distinct_grouplikes_is_zero():
    coalg = grouplike_coalgebra(QQ, 2)
    m0 = grouplike_comodule(QQ, 0, 2)
    m1 = grouplike_comodule(QQ, 1, 2)
    assert comodule_hom_span(coalg, m0, m1) == []
    assert comodule_hom_span(coalg, m1, m0) == []


def test_hom_span_regular_comodule_endomorphisms():
    coalg, (regular,) = regular_comodule_setup(QQ)
    span = comodule_hom_span(coalg, regular, regular)
    assert len(span) == 4
    # every solution really is a comodule morphism
    ident = Matrix.identity(QQ, 4)
    for g in span:
        assert regular.rho * g == kron(g, ident) * regular.rho


@pytest.mark.parametrize("field", [QQ, GF(7), GF(2**31 - 1)], ids=repr)
def test_hom_span_matches_product_oracle(field):
    """Direct assembly gives the product-based hom-span basis."""
    cases = [
        (name, doc.coalgebra, doc.comodules)
        for name, doc in shipped_samples(field)
        if doc.coalgebra is not None
    ]
    for d in (2, 3):
        cases.append((f"regular d={d}", *regular_comodule_setup(field, d)))
    cases.append(("regular and fundamental d=2", *comatrix_with_two_comodules(field)))
    for name, coalg, mods in cases:
        for m in mods:
            for n in mods:
                assert comodule_hom_span(coalg, m, n) == oracle_comodule_hom_span(coalg, m, n), name


def test_roundtrip_rejects_a_broken_comodule_before_any_hom_span(monkeypatch):
    from coendcalc import reconstruct as reconstruct_module

    def unreachable(*args):
        raise AssertionError("hom span solved for an unchecked comodule")

    monkeypatch.setattr(reconstruct_module, "comodule_hom_span", unreachable)
    coalg = grouplike_coalgebra(QQ, 2)
    broken = ComodulePresentation(dim=1, rho=Matrix.zeros(QQ, 2, 1))
    report = roundtrip_verify(coalg, [grouplike_comodule(QQ, 0, 2), broken])
    assert report.status == "FAIL" and report.mapping is None
    failures = report.checks.failures()
    assert [c.name for c in failures] == ["comodule 1: coaction counit law"]
    assert failures[0].witness == "column 0, coordinate 0"


def test_diagram_from_two_grouplikes():
    coalg, mods = two_grouplike_setup(QQ)
    d = diagram_from_comodules(coalg, mods)
    assert validate_diagram(d).passed
    assert d.span("M0", "M1") == ()
    assert d.span("M1", "M0") == ()
    assert len(d.span("M0", "M0")) == 1
    assert compute_coend(d).dim == 2


def test_diagram_from_regular_comodule():
    coalg, mods = regular_comodule_setup(QQ)
    d = diagram_from_comodules(coalg, mods)
    assert validate_diagram(d).passed
    assert len(d.span("M0", "M0")) == 4


def test_empty_comodule_list():
    coalg = grouplike_coalgebra(QQ, 2)
    d = diagram_from_comodules(coalg, [])
    assert d.objects == ()
    assert compute_coend(d).dim == 0
    report = roundtrip_verify(coalg, [])
    assert report.status == "PARTIAL"
    assert report.image_dim == 0


def test_canonical_map_grouplike_line():
    coalg = grouplike_coalgebra(QQ, 1)
    mod = grouplike_comodule(QQ, 0, 1)
    d = diagram_from_comodules(coalg, [mod])
    coend = compute_coend(d)
    phi = canonical_map(coend, coalg, [mod])
    assert phi == Matrix.from_rows(QQ, [[1]])


def test_canonical_map_two_grouplikes_bijective():
    coalg, mods = two_grouplike_setup(QQ)
    d = diagram_from_comodules(coalg, mods)
    coend = compute_coend(d)
    phi = canonical_map(coend, coalg, mods)
    assert rank(phi) == 2
    # each block generator goes to its own grouplike
    labels = coend.basis_labels()
    for a, label in enumerate(labels):
        col = phi.col(a)
        assert sorted(col) == [Fraction(0), Fraction(1)]


def test_canonical_map_well_definedness_guard():
    from coendcalc.errors import WellDefinednessError

    coalg, mods = regular_comodule_setup(QQ)
    d = diagram_from_comodules(coalg, mods)
    coend = compute_coend(d)
    entries = list(coalg.delta.entries)
    entries[0] += 1  # tamper the coaction but keep its shape
    bad = ComodulePresentation(dim=4, rho=Matrix(QQ, 16, 4, entries))
    with pytest.raises(WellDefinednessError):
        canonical_map(coend, coalg, [bad])


def test_canonical_map_regular_comodule_bijective():
    coalg, mods = regular_comodule_setup(QQ)
    d = diagram_from_comodules(coalg, mods)
    coend = compute_coend(d)
    assert coend.dim == 4
    phi = canonical_map(coend, coalg, mods)
    assert rank(phi) == 4


def test_roundtrip_regular_comodule_passes():
    coalg, mods = regular_comodule_setup(QQ)
    report = roundtrip_verify(coalg, mods)
    assert report.status == "PASS"
    assert report.coend_dim == 4 and report.image_dim == 4
    assert report.checks.passed


def test_roundtrip_two_grouplikes_passes():
    coalg, mods = two_grouplike_setup(QQ)
    report = roundtrip_verify(coalg, mods)
    assert report.status == "PASS"


def test_roundtrip_partial_with_one_comodule():
    coalg, mods = two_grouplike_setup(QQ)
    report = roundtrip_verify(coalg, mods[:1])
    assert report.status == "PARTIAL"
    assert report.image_dim == 1
    assert any(
        "surjective" in c.name and not c.passed for c in report.checks.checks
    )


def test_roundtrip_reproduces_structure_constants():
    # when the round trip passes, transporting the coend's coalgebra
    # through the canonical map gives back the original structure constants
    coalg, mods = regular_comodule_setup(QQ)
    d = diagram_from_comodules(coalg, mods)
    coend = compute_coend(d)
    phi = canonical_map(coend, coalg, mods)
    report = is_coalgebra_map(coalgebra_structure(coend), coalg, phi)
    assert report.passed


def test_roundtrip_carries_coactions_back():
    coalg, mods = two_grouplike_setup(QQ)
    d = diagram_from_comodules(coalg, mods)
    coend = compute_coend(d)
    phi = canonical_map(coend, coalg, mods)
    for name, mod in zip(d.names(), mods):
        rho_ind = induced_coaction(coend, name)
        carried = kron(Matrix.identity(QQ, mod.dim), phi) * rho_ind
        assert carried == mod.rho


@pytest.mark.parametrize("setup, checks", [
    (regular_comodule_setup, 2),  # the input, its induced coaction
    (comatrix_with_two_comodules, 4),  # 2 inputs, 2 induced coactions
])
def test_roundtrip_checks_each_coaction_and_builds_one_coalgebra(setup, checks, monkeypatch):
    from coendcalc import coend as coend_module
    from coendcalc import reconstruct as reconstruct_module

    calls = {"verify_coaction": 0, "coalgebra_structure": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    verify = counted("verify_coaction", coend_module.verify_coaction)
    monkeypatch.setattr(coend_module, "verify_coaction", verify)
    monkeypatch.setattr(reconstruct_module, "verify_coaction", verify)
    monkeypatch.setattr(coend_module, "coalgebra_structure",
                        counted("coalgebra_structure", coend_module.coalgebra_structure))
    coalg, mods = setup(GF(7))
    assert roundtrip_verify(coalg, mods).status == "PASS"
    assert calls == {"verify_coaction": checks, "coalgebra_structure": 1}
