"""The witness-plus-rank-mod-p route of verify_diagram, naive_quad_report
and the Hodge splitter: no nullspace and no densified operator on a healthy
complex, the same report through a retry or the exact fallback, and a FAIL
with the exact route's values on a broken one."""

from fractions import Fraction

import pytest

from derham import complexcheck, exactla, hodge
from derham.cli import main
from derham.complexcheck import build_diagram, naive_quad_report, verify_diagram
from derham.exactla import exact_rank
from derham.operators import GramMatrix, OpMatrix


def check_dicts(report):
    return [c.to_dict() for c in report.checks]


def failing(report):
    return {c.name for c in report.checks if not c.passed}


def forbid(monkeypatch, *names, owner=complexcheck):
    def boom(*args, **kwargs):
        raise AssertionError(f"forbidden call among {names}")
    for name in names:
        monkeypatch.setattr(owner, name, boom)


def forbid_densify(monkeypatch):
    """The float cross-check reads the nonzeros, never a dense copy."""
    forbid(monkeypatch, "dense_rows", owner=OpMatrix)
    forbid(monkeypatch, "dense_rows", owner=GramMatrix)
    forbid(monkeypatch, "column", "columns", owner=OpMatrix)


def exact_only(monkeypatch):
    """No usable prime: every rank goes through the exact fallback."""
    monkeypatch.setattr(exactla, "_PRIMES", ())


@pytest.mark.parametrize("name,nx,ny,k", [
    ("tri-dp", 3, 2, 1), ("quad-enriched-curl", 2, 2, 2), ("tri-dn", 2, 2, 1),
])
def test_healthy_diagram_needs_no_nullspace(monkeypatch, name, nx, ny, k):
    forbid(monkeypatch, "rank_nullspace", "span_compare")
    forbid_densify(monkeypatch)
    assert verify_diagram(name, nx, ny, k, float_check=True).passed


def test_naive_diagnostic_needs_no_nullspace(monkeypatch):
    forbid(monkeypatch, "rank_nullspace", "span_compare")
    forbid_densify(monkeypatch)
    assert naive_quad_report(3, 4, float_check=True).passed


@pytest.mark.parametrize("name,nx,ny,k", [("tri-dp", 2, 2, 1), ("quad-dn", 2, 2, 0)])
def test_certificate_and_exact_route_agree(monkeypatch, name, nx, ny, k):
    certified = verify_diagram(name, nx, ny, k, float_check=True)
    exact_only(monkeypatch)
    exact = verify_diagram(name, nx, ny, k, float_check=True)
    assert check_dicts(certified) == check_dicts(exact)
    assert certified.witnesses == exact.witnesses


def test_unlucky_prime_falls_back_to_exact(monkeypatch):
    # mod 2 every entry of tri-dp's rotated gradient vanishes: rank 0, not 15
    reference = verify_diagram("tri-dp", 2, 2, 1)
    monkeypatch.setattr(exactla, "_PRIMES", (2,))
    calls = []
    original = complexcheck._exact_ranks
    monkeypatch.setattr(complexcheck, "_exact_ranks",
                        lambda inst: calls.append(1) or original(inst))
    rep = verify_diagram("tri-dp", 2, 2, 1)
    assert calls == [1]
    assert rep.passed
    assert check_dicts(rep) == check_dicts(reference)


def test_unlucky_prime_is_retried(monkeypatch):
    reference = verify_diagram("tri-dp", 2, 2, 1)
    monkeypatch.setattr(exactla, "_PRIMES", (2, exactla._PRIMES[0]))
    forbid(monkeypatch, "rank_nullspace", "span_compare")
    rep = verify_diagram("tri-dp", 2, 2, 1)
    assert rep.passed
    assert check_dicts(rep) == check_dicts(reference)


def broken_build(mutate):
    def build(*args, **kwargs):
        inst = build_diagram(*args, **kwargs)
        mutate(inst)
        return inst
    return build


def perturb_second(inst):
    key = min(inst.second.entries)
    inst.second.entries[key] += 1


def zero_first_column(inst):
    for key in [key for key in inst.first.entries if key[1] == 0]:
        del inst.first.entries[key]


def run_broken(monkeypatch, mutate):
    monkeypatch.setattr(complexcheck, "build_diagram", broken_build(mutate))
    rep = verify_diagram("tri-dp", 2, 2, 1)
    with monkeypatch.context() as m:
        exact_only(m)
        exact = verify_diagram("tri-dp", 2, 2, 1)
    assert check_dicts(rep) == check_dicts(exact)
    return rep


def test_perturbed_second_entry_fails(monkeypatch):
    rep = run_broken(monkeypatch, perturb_second)
    assert not rep.passed
    assert {"second_after_first_is_zero", "second_rank"} <= failing(rep)
    inst = build_diagram("tri-dp", 2, 2, 1)
    perturb_second(inst)
    rank = exact_rank(inst.second.dense_rows(), ncols=inst.b_space.dim)
    assert rank == inst.c_space.dim  # the uniform element no longer escapes the range
    assert rep.witnesses["rank_second"] == rank


def test_zeroed_first_column_fails(monkeypatch):
    rep = run_broken(monkeypatch, zero_first_column)
    assert not rep.passed
    assert "first_kernel_is_constants" in failing(rep)
    inst = build_diagram("tri-dp", 2, 2, 1)
    zero_first_column(inst)
    assert rep.witnesses["rank_first"] == exact_rank(inst.first.dense_rows(),
                                                     ncols=inst.a_space.dim)


def test_naive_perturbed_face_entry_fails(monkeypatch):
    original = complexcheck.assemble_div_distributional

    def assemble(b_space, c_space):
        op = original(b_space, c_space)
        face_row = c_space.face_offset(0)
        key = min(key for key in op.entries if key[0] == face_row)
        op.entries[key] += Fraction(1, 2)
        return op

    monkeypatch.setattr(complexcheck, "assemble_div_distributional", assemble)
    rep = naive_quad_report(3, 4, float_check=True)
    with monkeypatch.context() as m:
        exact_only(m)
        exact = naive_quad_report(3, 4, float_check=True)
    assert not rep.passed
    assert {"rank", "strip_fields_in_kernel"} <= failing(rep)
    assert check_dicts(rep) == check_dicts(exact)
    assert rep.witnesses == exact.witnesses


@pytest.mark.parametrize("name,nx,ny,k", [("tri-dp", 3, 2, 1), ("quad-dn", 2, 2, 0)])
def test_hodge_needs_no_adjoint_or_nullspace(monkeypatch, name, nx, ny, k):
    with monkeypatch.context() as m:
        forbid(m, "adjoint", "rank_nullspace", "solve_square", owner=hodge)
        forbid(m, "rank_nullspace", "span_compare")
        forbid_densify(m)
        built = []
        m.setattr(hodge, "LinearExpander",
                  lambda cols: built.append(len(cols)) or exactla.LinearExpander(cols))
        rep = hodge.hodge_report(name, nx, ny, k, fields=4, seed=3)
    assert rep.passed
    # one normal matrix on all columns of first but one, one 2x2 for the constants
    dim_a = build_diagram(name, nx, ny, k).a_space.dim
    assert built == [dim_a - 1, 2]
    exact_only(monkeypatch)
    assert check_dicts(rep) == check_dicts(hodge.hodge_report(name, nx, ny, k, fields=4, seed=3))


@pytest.mark.parametrize("mutate", [perturb_second, zero_first_column])
def test_broken_complex_fails_hodge(monkeypatch, capsys, mutate):
    monkeypatch.setattr(hodge, "build_diagram", broken_build(mutate))
    rep = hodge.hodge_report("tri-dp", 2, 2, 1, fields=3, seed=5)
    assert not rep.passed
    assert "rank_identity" in failing(rep)
    assert main(["hodge", "--diagram", "tri-dp", "--k", "1", "--fields", "3"]) == 1
    out, err = capsys.readouterr()
    assert "rank_identity" in out and "FAIL" in out
    assert "Traceback" not in err


def test_hodge_batch_makes_no_per_field_products(monkeypatch):
    """Once the splitter is built, splitting and the report's checks use only
    whole-batch products: no matvec or inner, and as many compose calls for
    one field as for twenty."""
    armed = []
    composes = []

    def guarded(owner, name):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            if armed:
                raise AssertionError(f"per-field {owner.__name__}.{name}")
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    for owner, name in ((OpMatrix, "matvec"), (OpMatrix, "rmatvec"),
                        (GramMatrix, "matvec"), (GramMatrix, "inner")):
        guarded(owner, name)
    init, compose = hodge.HodgeSplitter.__init__, OpMatrix.compose
    monkeypatch.setattr(hodge.HodgeSplitter, "__init__",
                        lambda self, inst: init(self, inst) or armed.append(1))
    monkeypatch.setattr(OpMatrix, "compose",
                        lambda self, other: composes.append(1) or compose(self, other))
    counts = []
    for fields in (1, 20):
        armed.clear()
        composes.clear()
        assert hodge.hodge_report("tri-dp", 2, 2, 1, fields=fields, seed=3).passed
        assert armed  # the guards were on while the batch was split and checked
        counts.append(len(composes))
    assert counts[0] == counts[1]


def test_hodge_batched_checks_can_fail(monkeypatch):
    """One wrong curl coefficient of one field fails that field's certificate
    and its orthogonality, and nothing else."""
    built, batches = [], []

    class Perturbed(exactla.LinearExpander):
        calls = 0

        def __init__(self, cols):
            super().__init__(cols)
            built.append(self)

        def expand(self, target):
            x = super().expand(target)
            if self is built[0]:  # the curl normal matrix, not the 2x2
                Perturbed.calls += 1
                if Perturbed.calls == 3:  # the third field of the first batch
                    x[0] += 1
            return x

    split_batch = hodge.HodgeSplitter.split_batch
    monkeypatch.setattr(hodge, "LinearExpander", Perturbed)
    monkeypatch.setattr(hodge.HodgeSplitter, "split_batch",
                        lambda self, fields: batches.append(split_batch(self, fields))
                        or batches[-1])
    rep = hodge.hodge_report("tri-dp", 2, 2, 1, fields=5, seed=3)
    assert [p.harmonic_is_constant for p in batches[0]] == [True, True, False, True, True]
    assert not rep.passed
    assert failing(rep) == {"harmonic_part_is_constant", "parts_pairwise_orthogonal"}
    computed = {c.name: c.computed for c in rep.checks}
    assert computed["harmonic_part_is_constant"] == 4
    assert computed["parts_pairwise_orthogonal"] == 4
