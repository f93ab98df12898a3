import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from coendcalc import (
    GF,
    QQ,
    AlgebraData,
    Matrix,
    coalgebra_structure,
    comatrix_coalgebra,
    compute_coend,
    compute_end,
    duality_isomorphism,
    end_algebra,
    grouplike_coalgebra,
    relation_space,
    saturate_spans,
    verify_algebra,
)
from coendcalc.end import EndStructure, pairing_functional
from coendcalc.errors import InternalConsistencyError
from coendcalc.linalg import VectorSpan, rank, vec_matrix

from fixtures import (
    all_diagram_fixtures,
    comatrix_diagram,
    connected_pair,
    dual_algebra,
    full_matrix_diagram,
    small_diagrams,
)
from oracles import oracle_end_basis, oracle_rank

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_end_dim_identity_span():
    assert compute_end(compute_coend(comatrix_diagram(QQ, 2))).dim == 4


def test_end_dim_full_matrix_is_center():
    e = compute_end(compute_coend(full_matrix_diagram(QQ, 2)))
    assert e.dim == 1
    # the only commuting tuples are the scalars
    t = e.tuple_blocks(0)["X"]
    assert t[0, 1] == 0 and t[1, 0] == 0 and t[0, 0] == t[1, 1] != 0


def test_end_constraint_forces_equal_components():
    e = compute_end(compute_coend(connected_pair(QQ)))
    assert e.dim == 1
    vec = e.basis[0]
    assert vec[0] == vec[1] != 0


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_end_basis_matches_the_commuting_system_oracle(field):
    for name, d in all_diagram_fixtures(field):
        assert list(compute_end(compute_coend(d)).basis) == oracle_end_basis(d), name


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=repr)
def test_end_is_the_annihilator_of_the_relations(field):
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(small_diagrams(field))
    def check(unclosed):
        for d in (unclosed, saturate_spans(unclosed)):
            e, rows = compute_end(compute_coend(d)), relation_space(d)
            for b in range(e.dim):
                functional = pairing_functional(e, b)
                for row in rows:
                    assert field.dot([functional[k] for k in row], list(row.values())) == 0
            dense = [[row.get(k, field.zero) for k in range(e.layout.total)] for row in rows]
            assert e.dim + oracle_rank(field, dense) == e.layout.total

    check()


def test_commuting_condition_holds_on_basis():
    for name, d in all_diagram_fixtures(QQ, max_comatrix_dim=3):
        e = compute_end(compute_coend(d))
        for b in range(e.dim):
            blocks = e.tuple_blocks(b)
            for x in d.names():
                for y in d.names():
                    for a in d.span(x, y):
                        assert blocks[y] * a == a * blocks[x], name


def test_identity_tuple_in_span():
    for name, d in all_diagram_fixtures(QQ, max_comatrix_dim=3):
        e = compute_end(compute_coend(d))
        if e.dim == 0:
            continue
        span = VectorSpan(QQ, e.layout.total)
        for vec in e.basis:
            span.add(vec)
        assert span.contains(e.identity_vector()), name


def test_end_algebra_of_identity_span_is_matrix_algebra():
    e = compute_end(compute_coend(comatrix_diagram(QQ, 2)))
    alg = end_algebra(e)
    assert verify_algebra(alg).passed
    # oracle: multiply the basis tuples directly and re-express by hand;
    # the basis of the kernel of an empty system is the elementary vectors,
    # whose block matrices multiply like matrix units
    mats = [e.tuple_blocks(b)["X"] for b in range(4)]
    for a in range(4):
        for b in range(4):
            prod = mats[a] * mats[b]
            expected = vec_matrix(prod)
            got = [QQ.zero] * 4
            for idx, w in enumerate(alg.product.col(a * 4 + b)):
                got = [g + w * x for g, x in zip(got, vec_matrix(mats[idx]))]
            assert tuple(got) == expected


def test_end_algebra_one_dimensional():
    for d in (full_matrix_diagram(QQ, 2), connected_pair(QQ)):
        alg = end_algebra(compute_end(compute_coend(d)))
        assert alg.dim == 1
        assert alg.product == Matrix.from_rows(QQ, [[1]])
        assert alg.unit == (Fraction(1),)


def test_end_algebra_rejects_a_basis_not_closed_under_composition():
    # the swap [[0, 1], [1, 0]] squares to the identity, which it does not span
    d = comatrix_diagram(QQ, 2)
    swap = vec_matrix(Matrix.from_rows(QQ, [[0, 1], [1, 0]]))
    e = compute_end(compute_coend(d))
    bogus = EndStructure(diagram=d, layout=e.layout, basis=(swap,), free=(2,))
    with pytest.raises(InternalConsistencyError, match="escaped the end"):
        end_algebra(bogus)


def test_identity_tuple_is_unit():
    for name, d in all_diagram_fixtures(QQ, max_comatrix_dim=3):
        alg = end_algebra(compute_end(compute_coend(d)))
        report = verify_algebra(alg)
        assert report.passed, (name, str(report))


def test_dual_of_comatrix_is_matrix_algebra():
    dual = dual_algebra(comatrix_coalgebra(QQ, 2))
    assert verify_algebra(dual).passed
    # dual basis u^(i,j) multiplies like matrix units:
    # u^(i,j) . u^(k,l) = [j == k] u^(i,l)
    n = 4
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    col = dual.product.col((i * 2 + j) * n + (k * 2 + l))
                    expected = [QQ.zero] * n
                    if j == k:
                        expected[i * 2 + l] = QQ.one
                    assert list(col) == expected


def test_dual_of_grouplikes_is_pointwise():
    dual = dual_algebra(grouplike_coalgebra(QQ, 2))
    assert verify_algebra(dual).passed
    for a in range(2):
        for b in range(2):
            col = dual.product.col(a * 2 + b)
            expected = [QQ.zero, QQ.zero]
            if a == b:
                expected[a] = QQ.one
            assert list(col) == expected
    assert dual.unit == (Fraction(1), Fraction(1))


def test_dual_of_one_dim_is_ground_field():
    dual = dual_algebra(grouplike_coalgebra(QQ, 1))
    assert dual.product == Matrix.from_rows(QQ, [[1]])
    assert dual.unit == (Fraction(1),)


def test_verify_algebra_detects_broken_unit():
    alg = AlgebraData(
        dim=1, product=Matrix.from_rows(QQ, [[1]]), unit=(Fraction(2),)
    )
    report = verify_algebra(alg)
    assert not report.passed


def test_duality_identity_span():
    d = comatrix_diagram(QQ, 2)
    c = compute_coend(d)
    e = compute_end(c)
    mapping, report = duality_isomorphism(e, c)
    assert report.passed, str(report)
    assert rank(mapping) == 4


def test_duality_full_matrix():
    d = full_matrix_diagram(QQ, 2)
    c = compute_coend(d)
    mapping, report = duality_isomorphism(compute_end(c), c)
    assert report.passed
    assert (mapping.rows, mapping.cols) == (1, 1)


def test_duality_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        duality_isomorphism(
            compute_end(compute_coend(comatrix_diagram(QQ, 2))),
            compute_coend(full_matrix_diagram(QQ, 2)),
        )


def test_dim_end_equals_dim_coend_everywhere():
    for name, d in all_diagram_fixtures(QQ, max_comatrix_dim=3):
        c = compute_coend(d)
        assert compute_end(c).dim == c.dim, name


def test_structures_compute_their_coalgebra_and_algebra_once():
    for d in (comatrix_diagram(QQ, 2), connected_pair(QQ), full_matrix_diagram(QQ, 2)):
        coend = compute_coend(d)
        end = compute_end(coend)
        coalg, alg = coend.coalgebra, end.algebra
        assert coend.coalgebra is coalg and end.algebra is alg
        assert coalg == coalgebra_structure(coend)
        assert alg == end_algebra(end)


def test_end_command_builds_each_structure_once(monkeypatch):
    from coendcalc import coend as coend_module
    from coendcalc import end as end_module
    from coendcalc import linalg
    from coendcalc.cli import run_command
    from coendcalc.inputdoc import parse_document

    calls = {"end_algebra": 0, "coalgebra_structure": 0, "relation_space": 0, "kernel_basis": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(end_module, "end_algebra", counted("end_algebra", end_module.end_algebra))
    monkeypatch.setattr(coend_module, "coalgebra_structure",
                        counted("coalgebra_structure", coend_module.coalgebra_structure))
    monkeypatch.setattr(coend_module, "relation_space",
                        counted("relation_space", coend_module.relation_space))
    # every module that imported kernel_basis holds its own reference
    original = linalg.kernel_basis
    for module in [m for name, m in sys.modules.items() if name.startswith("coendcalc")]:
        if getattr(module, "kernel_basis", None) is original:
            monkeypatch.setattr(module, "kernel_basis", counted("kernel_basis", original))
    text = (ROOT / "sample_inputs" / "comatrix2.json").read_text()
    report, code = run_command("end", parse_document(text))
    assert code == 0 and report["passed"]
    # the end is read off the coend's split, so one relation system is
    # built and eliminated once
    assert calls == {
        "end_algebra": 1, "coalgebra_structure": 1, "relation_space": 1, "kernel_basis": 1
    }
