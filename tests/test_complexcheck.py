"""Full-mesh diagram verification: healthy families, the naive deficit, and
the jump-constraint kernel."""

import gc
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from derham import complexcheck, hodge, operators
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
from derham.hodge import hodge_report
from derham.mesh import MeshKind, edge_segment
from derham.poly import Poly, VecPoly, trace_legendre
from derham.sparse import OpMatrix, Stamp

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


def hand_rolled_jumps(mesh):
    """The appendix jump matrix formed face side by face side, as the report
    once did on its own: for the three fields (1,0), (0,1), (1-2x, 2y-1) of
    each cell, the Legendre coefficient of the normal trace against the
    face's unnormalized normal, +1 on the right side and -1 on the left."""
    triple = [VecPoly.constant(1, 0), VecPoly.constant(0, 1),
              VecPoly(Poly({(0, 0): 1, (1, 0): -2}), Poly({(0, 0): -1, (0, 1): 2}))]
    entries = {}
    for face in mesh.faces:
        for side, sign in (("left", -1), ("right", 1)):
            cell = mesh.cells[face.cell_on(side)]
            [(edge, along)] = [(e, along) for e, (f, along) in enumerate(cell.edge_faces)
                               if f == face.index]
            _, _, chord = edge_segment(cell.ref, cell.fmap.m, edge, along)
            normal = (-chord[1], chord[0])
            for i, u in enumerate(triple):
                [value] = trace_legendre(u, cell.ref, edge, along, normal, 0)
                at = (face.index, 3 * cell.index + i)
                entries[at] = entries.get(at, 0) + sign * value
    return OpMatrix.from_entries(mesh.num_faces, 3 * mesh.num_cells, entries)


@pytest.mark.parametrize("nx,ny,lx,ly", [(3, 3, 1, 1), (2, 2, F(3), F(1, 2)),
                                         (4, 3, F(7, 3), F(5, 11))])
def test_appendix_jumps_match_hand_rolled(monkeypatch, nx, ny, lx, ly):
    seen = []
    prefix_ranks = complexcheck.prefix_ranks
    monkeypatch.setattr(complexcheck, "prefix_ranks",
                        lambda blocks, upper=None: seen.append(blocks) or prefix_ranks(blocks, upper))
    assert appendix_report(nx, ny, lx, ly).passed
    jumps = seen[0][0]
    oracle = hand_rolled_jumps(complexcheck.build_mesh(MeshKind.CARTESIAN, nx, ny, lx, ly))
    assert (jumps.nrows, jumps.ncols) == (oracle.nrows, oracle.ncols)
    assert jumps.entries == oracle.entries


def test_one_trace_convention(monkeypatch):
    """The operators and the appendix read one trace stamp: flipping the sign
    of the right side breaks both."""
    original = operators._trace_stamp

    def flipped(source, m, edge, along, tangential, degree, sign):
        return original(source, m, edge, along, tangential, degree, -sign if along else sign)

    monkeypatch.setattr(operators, "_trace_stamp", flipped)
    assert not verify_diagram("quad-enriched", 2, 2, 1).passed
    assert not appendix_report(3, 3).passed


def test_warm_appendix_forms_no_trace():
    """A warm appendix report places cached stamps only: no call, from any
    module, reaches the trace kernel or forms a stamp, so no second copy of
    the trace code can form its own."""
    appendix_report(3, 3)
    watched = {trace_legendre.__code__, Stamp.of.__func__.__code__}
    calls = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            calls.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        rep = appendix_report(3, 3)
    finally:
        sys.setprofile(None)
    assert rep.passed
    assert calls == []


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


def test_repeated_verify_retains_no_memory():
    """Once warm, more verify passes leave the traced memory nearly flat.
    numpy keeps a bounded cache of small freed buffers, which still takes
    up to about 20 KB as it fills; keeping one operator per report adds about
    170 KB over these 30 reports."""
    cases = [("tri-dp", 2, 2, 1), ("quad-enriched", 2, 2, 1), ("quad-dn", 2, 2, 0)]

    def one_pass():
        for case in cases:
            assert verify_diagram(*case, float_check=True).passed

    tracemalloc.start()
    try:
        for _ in range(10):
            one_pass()
        gc.collect()
        warm = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            one_pass()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - warm
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def test_report_serialization():
    rep = verify_diagram("tri-dp", 2, 2, 0)
    doc = rep.to_dict()
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert doc["params"]["diagram"] == "tri-dp"
    assert any(c["name"] == "first_rank" for c in doc["checks"])
    text = rep.format_text()
    assert "[PASS]" in text and "-> PASS" in text


@pytest.mark.parametrize("module,step,run", [
    (complexcheck, "build_diagram", lambda: verify_diagram("tri-dp", 2, 2, 0)),
    (complexcheck, "build_mesh", lambda: naive_quad_report(2, 2)),
    (complexcheck, "build_mesh", lambda: appendix_report(2, 2)),
    (complexcheck, "build_mesh", lambda: audit_report(MeshKind.CARTESIAN, 2, 2, 0)),
    (hodge, "build_diagram", lambda: hodge_report("tri-dp", 2, 2, 0, fields=1)),
], ids=["verify", "naive", "appendix", "audit", "hodge"])
def test_wall_time_counts_the_build(monkeypatch, module, step, run):
    """A report's clock starts before it builds its mesh or diagram."""
    build = getattr(module, step)

    def slow_build(*args, **kwargs):
        time.sleep(0.05)
        return build(*args, **kwargs)
    monkeypatch.setattr(module, step, slow_build)
    assert run().wall_ms >= 50
