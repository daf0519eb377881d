"""Full-mesh diagram verification: healthy families, the naive deficit, and
the jump-constraint kernel."""

from fractions import Fraction

import pytest

from derham.complexcheck import (
    DIAGRAMS,
    NAIVE_DIAGRAM,
    appendix_report,
    audit_report,
    build_diagram,
    dof_comparison,
    naive_quad_report,
    verify_diagram,
)
from derham.mesh import MeshKind

F = Fraction


def check_value(report, name):
    return next(c.computed for c in report.checks if c.name == name)


def test_diagram_registry():
    assert set(DIAGRAMS) == {
        "tri-dp", "tri-dp-curl", "quad-enriched", "quad-enriched-curl",
        "tri-drt", "tri-dn", "quad-drt", "quad-dn",
    }
    assert NAIVE_DIAGRAM == "quad-naive-k0"
    assert NAIVE_DIAGRAM not in DIAGRAMS


def test_tri_dp_frozen_numbers():
    rep = verify_diagram("tri-dp", 2, 2, 0)
    assert rep.passed
    assert check_value(rep, "dim_A") == 4
    assert check_value(rep, "dim_B") == 16
    assert check_value(rep, "dim_C") == 12
    assert check_value(rep, "first_rank") == 3
    assert check_value(rep, "second_rank") == 11
    assert check_value(rep, "second_kernel_dim") == 5
    assert check_value(rep, "betti_numbers") == [1, 2, 1]


def test_tri_dp_32x32_verifies():
    # stamp assembly and the local certificate keep a 32x32 mesh fast
    rep = verify_diagram("tri-dp", 32, 32, 1)
    assert rep.passed
    assert check_value(rep, "dim_A") == 4096


def test_enriched_quad_kernel_dim():
    rep = verify_diagram("quad-enriched", 2, 2, 1)
    assert rep.passed
    assert check_value(rep, "second_kernel_dim") == 17  # N(k+1)^2 + 1


@pytest.mark.parametrize("name", ["tri-dp-curl", "quad-enriched-curl"])
def test_curl_route_passes(name):
    assert verify_diagram(name, 2, 2, 1).passed


@pytest.mark.parametrize("name", ["tri-drt", "tri-dn", "quad-drt", "quad-dn"])
def test_lifted_families_pass(name):
    rep = verify_diagram(name, 2, 2, 0)
    assert rep.passed
    assert check_value(rep, "betti_numbers") == [1, 2, 1]


def test_stretched_cells_change_nothing():
    # all claims are combinatorial; anisotropic cells must not disturb them
    rep = verify_diagram("quad-enriched", 2, 2, 1, lx=F(7, 2), ly=F(1, 3))
    assert rep.passed
    rep = verify_diagram("tri-dp", 2, 2, 1, lx=F(5), ly=F(2, 7))
    assert rep.passed


def test_second_composes_first_to_zero():
    inst = build_diagram("tri-dp", 2, 2, 1)
    assert inst.second.compose(inst.first).is_zero


def test_constant_fields_kernel_witnesses():
    inst = build_diagram("quad-drt", 2, 2, 0)
    for w in inst.constant_fields():
        assert all(v == 0 for v in inst.second.matvec(w))


@pytest.mark.parametrize("nx,ny,rank,excess", [
    (2, 2, 4, 3),
    (3, 4, 17, 6),
    (4, 3, 17, 6),
])
def test_naive_quad_deficit(nx, ny, rank, excess):
    rep = naive_quad_report(nx, ny)
    assert rep.passed
    assert check_value(rep, "rank") == rank == 2 * nx * ny - nx - ny
    assert check_value(rep, "kernel_dim") == nx + ny
    assert check_value(rep, "harmonic_excess") == excess == nx + ny - 1


def test_naive_quad_strip_kernel():
    rep = naive_quad_report(3, 2)
    assert check_value(rep, "strip_fields_in_kernel") is True
    assert check_value(rep, "strips_span_kernel") is True


@pytest.mark.parametrize("nx,ny,nullity", [(2, 2, 5), (3, 3, 10), (2, 4, 9)])
def test_appendix_nullity(nx, ny, nullity):
    rep = appendix_report(nx, ny)
    assert rep.passed
    assert check_value(rep, "nullity") == nullity == nx * ny + 1
    assert check_value(rep, "gamma_row_and_column_sums_zero") is True


def test_appendix_stretched_cells():
    assert appendix_report(2, 2, lx=F(3), ly=F(1, 2)).passed


def test_dof_comparison_report():
    rep = dof_comparison(4)
    assert rep.passed
    assert len(rep.checks) == 10  # two families x k = 0..4
    with pytest.raises(ValueError, match="k_max must be >= 0, got -1"):
        dof_comparison(-1)


@pytest.mark.parametrize("kind", [MeshKind.TRIANGULAR, MeshKind.CARTESIAN])
def test_audit_report(kind):
    assert audit_report(kind, 2, 2, 2).passed


def test_float_cross_check_items():
    rep = verify_diagram("tri-dp", 2, 2, 0, float_check=True)
    float_items = [c for c in rep.checks if c.backend == "float"]
    assert len(float_items) == 2
    assert all(c.passed for c in float_items)


def test_report_serialization():
    rep = verify_diagram("tri-dp", 2, 2, 0)
    doc = rep.to_dict()
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert doc["params"]["diagram"] == "tri-dp"
    assert any(c["name"] == "first_rank" for c in doc["checks"])
    text = rep.format_text()
    assert "[PASS]" in text and "-> PASS" in text
