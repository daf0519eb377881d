"""The rank routes of verify_diagram, naive_quad_report, appendix_report
and the Hodge splitter: never a nullspace or a span comparison, and no
densified operator on a healthy complex.

A healthy diagram is certified locally: exact witnesses, G_b positive
definite, and per-cell blocks of first and second^T with one-dimensional
kernels that glue into one component (``_cell_blocks``).  The distinct
blocks are ranked in one elimination (``_corank_one``), block-diagonally,
so no row meets more than one cell's block.  Anything else falls through to exact prefix
ranks of two global stacks plus the witnesses.

The reference here is the nullspace-and-span computation of the same facts
(``oracle_facts``): rank_nullspace of each operator, span_compare of the
kernel of second against range(first) plus the constants, and of the
harmonic kernel against the constants.  The certificate must match it on
healthy diagrams and on a seeded family of broken ones, and a broken
diagram's FAIL report must carry the oracle's values."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from derham import complexcheck, exactla, hodge
from derham.cli import main
from derham.complexcheck import (
    DIAGRAMS,
    appendix_report,
    build_diagram,
    certify_complex,
    naive_quad_report,
    verify_diagram,
)
from derham.exactla import exact_rank, rank_nullspace, span_compare
from derham.operators import GramBlock, GramMatrix, OpMatrix
from oracles import kernel_is_weight_loop


def perturbed(op, deltas):
    """op with each ``{(row, col): delta}`` added, as a new matrix."""
    return op + OpMatrix.from_entries(op.nrows, op.ncols, deltas)


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
    """No usable prime: every prefix rank is eliminated over Q."""
    monkeypatch.setattr(exactla, "_PRIMES", ())


def oracle_facts(inst):
    """(rank first, rank second, kernel = range + constants, harmonic dim,
    harmonic = constants) by exact nullspaces and span comparisons."""
    ra = rank_nullspace(inst.first.dense_rows(), ncols=inst.a_space.dim)
    second_rows = inst.second.dense_rows()
    rd = rank_nullspace(second_rows, ncols=inst.b_space.dim)
    const_fields = inst.constant_fields()
    range_cols = inst.first.columns()
    split = span_compare(rd.nullspace, range_cols + const_fields)
    harmonic_rows = second_rows + [inst.gram_b.matvec(col) for col in range_cols]
    hres = rank_nullspace(harmonic_rows, ncols=inst.b_space.dim)
    hspan = span_compare(hres.nullspace, const_fields)
    return ra.rank, rd.rank, split.equal, hres.nullity, hspan.equal


def assert_true_bounds(monkeypatch):
    """Every upper bound complexcheck hands to prefix_ranks must hold: each
    is compared with the ranks over Q of the same blocks."""
    prefix_ranks = exactla.prefix_ranks

    def checked(blocks, upper=None):
        if upper is not None:
            exact = prefix_ranks(blocks)
            assert all(u >= r for u, r in zip(upper, exact)), (upper, exact)
        return prefix_ranks(blocks, upper)
    monkeypatch.setattr(complexcheck, "prefix_ranks", checked)


def certificate_facts(cert):
    return (cert.rank_first, cert.rank_second, cert.kernel_is_range_plus_constants,
            cert.harmonic_dim, cert.harmonic_is_constants)


def report_facts(rep):
    computed = {c.name: c.computed for c in rep.checks}
    return tuple(computed[name] for name in (
        "first_rank", "second_rank", "second_kernel_is_range_plus_constants",
        "harmonic_dim", "harmonic_fields_are_constants"))


@pytest.mark.parametrize("name,nx,ny,k", [
    ("tri-dp", 3, 2, 1), ("quad-enriched-curl", 2, 2, 2), ("tri-dn", 2, 2, 1),
])
def test_healthy_diagram_needs_no_nullspace(monkeypatch, name, nx, ny, k):
    # the reference local bases are solved once per process, as columns;
    # build them before the guards, as any earlier diagram would
    build_diagram(name, nx, ny, k)
    forbid(monkeypatch, "rank_nullspace", "span_compare")
    forbid_densify(monkeypatch)
    assert verify_diagram(name, nx, ny, k, float_check=True).passed


def test_naive_diagnostic_needs_no_nullspace(monkeypatch):
    forbid(monkeypatch, "rank_nullspace", "span_compare")
    forbid_densify(monkeypatch)
    assert naive_quad_report(3, 4, float_check=True).passed


def test_naive_float_check_never_forms_the_whole_operator(monkeypatch):
    """At 64x64 the dense jump operator is 8,192 x 8,192 (512 MB); the float
    rank reads its translation symbol and densifies nothing whole."""
    forbid(monkeypatch, "float_array", owner=OpMatrix)
    forbid_densify(monkeypatch)
    rep = naive_quad_report(64, 64, float_check=True)
    assert rep.passed
    assert [c.computed for c in rep.checks if c.name == "rank_float"] == [2 * 4096 - 64 - 64]


def test_float_check_at_32x32_never_forms_a_whole_operator(monkeypatch):
    """tri-dp 32x32 k=1 ``second`` is 8,192 x 12,288 (805 MB dense); both
    float ranks read the translation symbol and densify nothing whole."""
    forbid(monkeypatch, "float_array", owner=OpMatrix)
    forbid_densify(monkeypatch)
    rep = verify_diagram("tri-dp", 32, 32, 1, float_check=True)
    assert rep.passed
    floats = {c.name: c.computed for c in rep.checks if c.backend == "float"}
    assert floats == {"first_rank_float": 4096 - 1, "second_rank_float": 8192 - 1}


@pytest.mark.parametrize("name,nx,ny,k", [("tri-dp", 2, 2, 1), ("quad-dn", 2, 2, 0)])
def test_certificate_and_exact_route_agree(monkeypatch, name, nx, ny, k):
    certified = verify_diagram(name, nx, ny, k, float_check=True)
    exact_only(monkeypatch)
    exact = verify_diagram(name, nx, ny, k, float_check=True)
    assert check_dicts(certified) == check_dicts(exact)
    assert certified.witnesses == exact.witnesses


def count_eliminations_over_q(monkeypatch):
    """Record each rank elimination over Q (no factor kept) that
    ``prefix_ranks`` starts."""
    calls = []

    class Counting(exactla._Echelon):
        def __init__(self, p=0, factor=False):
            if p == 0 and not factor:
                calls.append(1)
            super().__init__(p, factor)
    monkeypatch.setattr(exactla, "_Echelon", Counting)
    return calls


def global_only(monkeypatch):
    """The local route declines, so the four global prefix ranks run."""
    monkeypatch.setattr(complexcheck, "_local_route", lambda *args: False)


def test_unlucky_prime_falls_back_to_exact(monkeypatch):
    # mod 2 every entry of tri-dp's rotated gradient vanishes: rank 0, not 15
    reference = verify_diagram("tri-dp", 2, 2, 1)
    global_only(monkeypatch)
    calls = count_eliminations_over_q(monkeypatch)
    assert verify_diagram("tri-dp", 2, 2, 1).passed
    assert calls == []  # a healthy diagram closes every rank mod p
    monkeypatch.setattr(exactla, "_PRIMES", (2,))
    forbid(monkeypatch, "rank_nullspace", "span_compare")
    rep = verify_diagram("tri-dp", 2, 2, 1)
    assert calls == [1, 1]  # both stacks miss mod 2 and are eliminated over Q
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
    inst.second = perturbed(inst.second, {min(inst.second.entries): 1})


def zero_first_column(inst):
    inst.first = perturbed(inst.first, {key: -v for key, v in inst.first.entries.items()
                                        if key[1] == 0})


def run_broken(monkeypatch, mutate):
    """The broken report, whose rank facts must be the oracle's."""
    inst = build_diagram("tri-dp", 2, 2, 1)
    mutate(inst)
    expected = oracle_facts(inst)
    monkeypatch.setattr(complexcheck, "build_diagram", broken_build(mutate))
    with monkeypatch.context() as m:
        forbid(m, "rank_nullspace", "span_compare")
        rep = verify_diagram("tri-dp", 2, 2, 1)
    assert report_facts(rep) == expected
    return rep


def perturb_entry(attr):
    def mutate(inst, rng):
        op = getattr(inst, attr)
        setattr(inst, attr, perturbed(op, {rng.choice(sorted(op.entries)): 1}))
    return mutate


def tilt_first_row(inst, rng):
    """+1 and -1 in one row of first: first 1 = 0 and both ranks stay, but
    range(first) leaves ker(second) and the constants' complement."""
    rows = sorted({r for r, _ in inst.first.entries})
    keys = []
    while len(keys) < 2:
        row = rng.choice(rows)
        keys = sorted(key for key in inst.first.entries if key[0] == row)
    plus, minus = rng.sample(keys, 2)
    inst.first = perturbed(inst.first, {plus: 1, minus: -1})


def zero_seeded_first_column(inst, rng):
    col = rng.randrange(inst.first.ncols)
    inst.first = perturbed(inst.first, {key: -v for key, v in inst.first.entries.items()
                                        if key[1] == col})


def drop_seeded_second_row(inst, rng):
    row = rng.randrange(inst.second.nrows)
    inst.second = perturbed(inst.second, {key: -v for key, v in inst.second.entries.items()
                                          if key[0] == row})


BROKEN = {"perturb_first": perturb_entry("first"), "perturb_second": perturb_entry("second"),
          "zero_first_column": zero_seeded_first_column,
          "drop_second_row": drop_seeded_second_row, "tilt_first_row": tilt_first_row}


def witnesses(cert):
    return (cert.composes_to_zero, cert.kills_constants, cert.constants_orthogonal,
            cert.uniform_orthogonal)


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_certificate_matches_nullspace_oracle(monkeypatch, name, k):
    """Healthy and seeded broken diagrams: the four prefix ranks and the
    witnesses give exactly the facts that nullspaces and spans give."""
    forbid(monkeypatch, "rank_nullspace", "span_compare")
    assert_true_bounds(monkeypatch)
    healthy = build_diagram(name, 2, 2, k)
    reference = oracle_facts(healthy)
    assert reference[2:] == (True, 2, True)
    cert = certify_complex(healthy)
    assert certificate_facts(cert) == reference
    for seed, mutate in enumerate(BROKEN.values()):
        inst = build_diagram(name, 2, 2, k)
        mutate(inst, random.Random(seed))
        broken = certify_complex(inst)
        assert certificate_facts(broken) == oracle_facts(inst)
        # every mutation breaks a rank fact or a witness, so verify FAILs
        assert (certificate_facts(broken), witnesses(broken)) != (reference, witnesses(cert))


def test_perturbed_second_entry_fails(monkeypatch):
    rep = run_broken(monkeypatch, perturb_second)
    assert not rep.passed
    assert failing(rep) == {
        "betti_numbers", "second_after_first_is_zero", "second_kernel_dim",
        "second_kernel_is_range_plus_constants", "second_range_plus_uniform_fills_codomain",
        "second_rank", "uniform_orthogonal_to_second_range"}
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


def naive_with(monkeypatch, mutate):
    """naive_quad_report(3, 4) on a mutated operator, checked against the
    oracle: the exact rank and kernel of that operator, and whether the
    strip fields span the kernel."""
    original = complexcheck.assemble_div_distributional

    def assemble(b_space, c_space):
        return mutate(original(b_space, c_space), c_space)

    monkeypatch.setattr(complexcheck, "assemble_div_distributional", assemble)
    with monkeypatch.context() as m:
        forbid(m, "rank_nullspace", "span_compare")
        assert_true_bounds(m)
        rep = naive_quad_report(3, 4, float_check=True)
    mesh = complexcheck.build_mesh(complexcheck.MeshKind.CARTESIAN, 3, 4)
    b_space = complexcheck.DGVectorSpace(mesh, "vec_q", 0)
    op = assemble(b_space, complexcheck.CodomainSpace(mesh, 0, None, 0))
    res = rank_nullspace(op.dense_rows(), ncols=b_space.dim)
    strips = complexcheck._strip_fields(b_space).columns()
    computed = {c.name: c.computed for c in rep.checks}
    assert computed["rank"] == res.rank
    assert computed["strips_span_kernel"] == span_compare(strips, res.nullspace).equal
    return rep


def perturb_face_entry(op, c_space):
    face_row = c_space.face_offset(0)
    return perturbed(op, {min(key for key in op.entries if key[0] == face_row): Fraction(1, 2)})


def scale_first_column(op, c_space):
    """Same rank, but the kernel is scaled off the strips."""
    return perturbed(op, {key: v for key, v in op.entries.items() if key[1] == 0})


def test_naive_perturbed_face_entry_fails(monkeypatch):
    rep = naive_with(monkeypatch, perturb_face_entry)
    assert not rep.passed
    assert {"rank", "strip_fields_in_kernel"} <= failing(rep)


def test_naive_scaled_column_fails(monkeypatch):
    rep = naive_with(monkeypatch, scale_first_column)
    assert failing(rep) == {"strip_fields_in_kernel", "strips_span_kernel"}


@pytest.mark.parametrize("dropped", [(), (0, 1), (0, 9)])
def test_appendix_matches_nullspace_oracle(monkeypatch, dropped):
    """The nullity and the gamma check from two prefix ranks equal the kernel
    of the jump rows and the row and column sums on each kernel vector.
    Dropping faces 0 and 1 (zeroing their jump rows) raises the nullity;
    dropping 0 and 9 also breaks the gamma sums."""
    assemble_jumps, prefix_ranks = complexcheck.assemble_jumps, exactla.prefix_ranks
    blocks = []

    def fewer_faces(b_space, c_space):
        jumps = assemble_jumps(b_space, c_space)
        rows = {c_space.face_offset(f) for f in dropped}
        return OpMatrix.from_entries(jumps.nrows, jumps.ncols,
                                     {key: v for key, v in jumps.entries.items()
                                      if key[0] not in rows})

    monkeypatch.setattr(complexcheck, "assemble_jumps", fewer_faces)
    monkeypatch.setattr(complexcheck, "prefix_ranks",
                        lambda b, upper=None: blocks.append(b) or prefix_ranks(b, upper))
    forbid(monkeypatch, "rank_nullspace", "span_compare")
    rep = appendix_report(3, 3)
    null = rank_nullspace(blocks[0][0].dense_rows(), ncols=27).nullspace

    def gamma_sums_vanish(vec):
        gamma = [vec[3 * c + 2] for c in range(9)]
        return (all(not sum(gamma[3 * j + i] for i in range(3)) for j in range(3))
                and all(not sum(gamma[3 * j + i] for j in range(3)) for i in range(3)))

    computed = {c.name: c.computed for c in rep.checks}
    assert computed == {"nullity": len(null),
                        "gamma_row_and_column_sums_zero": all(map(gamma_sums_vanish, null))}
    assert rep.passed == (dropped == ())


@pytest.mark.parametrize("name,nx,ny,k", [("tri-dp", 3, 2, 1), ("quad-dn", 2, 2, 0)])
def test_hodge_needs_no_adjoint_or_nullspace(monkeypatch, name, nx, ny, k):
    with monkeypatch.context() as m:
        forbid(m, "adjoint", "rank_nullspace", "solve_square", owner=hodge)
        forbid(m, "rank_nullspace", "span_compare")
        forbid_densify(m)
        built = []
        m.setattr(hodge, "LiftedSolver",
                  lambda system: built.append(system.nrows) or exactla.LiftedSolver(system))
        rep = hodge.hodge_report(name, nx, ny, k, fields=4, seed=3)
    assert rep.passed
    # one block-diagonal system: the normal matrix on all columns of first but
    # one, then the 2x2 for the constants
    dim_a = build_diagram(name, nx, ny, k).a_space.dim
    assert built == [dim_a + 1]
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


def test_hodge_batch_stays_in_integer_operators(monkeypatch):
    """Once the splitter is built, splitting and the report's checks read
    no operator back as Fractions: the fields are read once, and every part,
    certificate and count stays an integer OpMatrix."""
    armed = []

    def guarded(name):
        original = getattr(OpMatrix, name)

        def call(*args, **kwargs):
            if armed:
                raise AssertionError(f"OpMatrix.{name} while splitting the batch")
            return original(*args, **kwargs)
        monkeypatch.setattr(OpMatrix, name, call)

    for name in ("columns", "column", "dense_rows"):
        guarded(name)
    init = hodge.HodgeSplitter.__init__
    monkeypatch.setattr(hodge.HodgeSplitter, "__init__",
                        lambda self, inst: init(self, inst) or armed.append(1))
    assert hodge.hodge_report("tri-dp", 3, 3, 1, fields=6, seed=3).passed
    assert armed


def test_hodge_batched_checks_can_fail(monkeypatch):
    """One wrong curl coefficient of one field, changed after the solver's
    own check, fails that field's certificate and its orthogonality, and
    nothing else."""
    built, batches = [], []

    class Perturbed(exactla.LiftedSolver):
        calls = 0

        def __init__(self, system):
            super().__init__(system)
            built.append(self)

        def solve(self, rhs):
            xs = super().solve(rhs)
            if self is built[0]:  # the splitter's one system; row 0 is a curl unknown
                Perturbed.calls += 1
                if Perturbed.calls == 1:  # the first batch
                    # its third field
                    xs = xs + OpMatrix.from_entries(xs.nrows, xs.ncols, {(0, 2): Fraction(1)})
            return xs

    split_matrix = hodge.HodgeSplitter.split_matrix
    monkeypatch.setattr(hodge, "LiftedSolver", Perturbed)
    monkeypatch.setattr(hodge.HodgeSplitter, "split_matrix",
                        lambda self, u: batches.append(split_matrix(self, u)) or batches[-1])
    rep = hodge.hodge_report("tri-dp", 2, 2, 1, fields=5, seed=3)
    assert batches[0][4].tolist() == [True, True, False, True, True]
    assert not rep.passed
    assert failing(rep) == {"harmonic_part_is_constant", "parts_pairwise_orthogonal"}
    computed = {c.name: c.computed for c in rep.checks}
    assert computed["harmonic_part_is_constant"] == 4
    assert computed["parts_pairwise_orthogonal"] == 4


def record_prefix_blocks(monkeypatch):
    """Record the row count of every block complexcheck hands to prefix_ranks."""
    rows = []
    prefix_ranks = complexcheck.prefix_ranks
    monkeypatch.setattr(complexcheck, "prefix_ranks",
                        lambda blocks, upper=None: rows.extend(b.nrows for b in blocks)
                        or prefix_ranks(blocks, upper))
    return rows


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_healthy_diagram_eliminates_only_cell_blocks(monkeypatch, name):
    assert_true_bounds(monkeypatch)
    rows = record_prefix_blocks(monkeypatch)
    assert verify_diagram(name, 3, 2, 1).passed
    assert rows and max(rows) <= build_diagram(name, 2, 2, 1).b_space.local_dim


def test_local_eliminations_do_not_grow_with_the_mesh(monkeypatch):
    """One elimination per distinct block content, however many cells."""
    rows = record_prefix_blocks(monkeypatch)
    counts = []
    for n in (4, 8):
        rows.clear()
        assert verify_diagram("tri-dp", n, n, 1).passed
        counts.append(len(rows))
    assert counts[0] == counts[1] <= 4
    assert max(rows) == 6


def test_unlucky_prime_on_cell_blocks(monkeypatch):
    """Mod 2 the cell blocks miss their bounds and are eliminated over Q,
    each block of one cell's rows; the report is unchanged."""
    reference = verify_diagram("tri-dp", 2, 2, 1)
    monkeypatch.setattr(exactla, "_PRIMES", (2,))
    rows = record_prefix_blocks(monkeypatch)
    calls = count_eliminations_over_q(monkeypatch)
    rep = verify_diagram("tri-dp", 2, 2, 1)
    assert calls and len(calls) <= len(rows)
    assert max(rows) == 6
    assert check_dicts(rep) == check_dicts(reference)


def cell_block(op, cell_size, cell=0):
    """Rows cell * cell_size ... of op, as dense rows over the columns they touch."""
    entries = op.entries
    cols = sorted({c for r, c in entries if r // cell_size == cell})
    return [[entries.get((r, c), 0) for c in cols]
            for r in range(cell * cell_size, (cell + 1) * cell_size)]


def perturb_cell_block(inst):
    """One entry of cell 0's block of first plus 1, the first one that makes
    the block nonsingular: local kernel 0."""
    size = inst.b_space.local_dim
    for key in sorted(key for key in inst.first.entries if key[0] < size):
        changed = perturbed(inst.first, {key: 1})
        block = cell_block(changed, size)
        if exact_rank(block) == len(block[0]):
            inst.first = changed
            return
    raise AssertionError("no entry makes the block nonsingular")


def zero_cell_block_row(inst):
    """Zero a row of cell 0's block of first whose loss drops the block's rank:
    local kernel 2, first 1 = 0 kept."""
    size = inst.b_space.local_dim
    block = cell_block(inst.first, size)
    rank = exact_rank(block)
    row = next(r for r in range(size) if exact_rank(block[:r] + block[r + 1:]) < rank)
    inst.first = perturbed(inst.first, {key: -v for key, v in inst.first.entries.items()
                                        if key[0] == row})


@pytest.mark.parametrize("mutate,kernel", [(perturb_cell_block, 0), (zero_cell_block_row, 2)])
def test_cell_block_with_wrong_kernel_falls_through(monkeypatch, mutate, kernel):
    inst = build_diagram("tri-dp", 2, 2, 1)
    mutate(inst)
    block = cell_block(inst.first, inst.b_space.local_dim)
    assert len(block[0]) - exact_rank(block) == kernel
    assert not kernel_is_weight(inst.first, inst.b_space.local_dim,
                                inst.a_space.constant_vector(1))
    rep = run_broken(monkeypatch, mutate)
    assert not rep.passed


def kernel_is_weight(op, cell_size, weight, by_columns=False):
    """The local route's verdict on one operator: whether the kernel of op,
    or of op^T when ``by_columns``, is exactly span(weight), from its cell
    blocks and their one elimination."""
    stacks = complexcheck._cell_blocks(op, cell_size, weight, by_columns)
    return stacks is not None and complexcheck._corank_one(stacks)


def rows_op(rows, ncols):
    """The sparse rows ({column: value}) as an OpMatrix with ncols columns."""
    return OpMatrix.from_entries(len(rows), ncols, {(r, c): v for r, row in enumerate(rows)
                                                   for c, v in row.items()})


def test_union_find_joins_only_where_the_weight_is_nonzero():
    """Two cells share dof 2, where the weight vanishes: each block has a
    one-dimensional kernel, but the whole kernel is two-dimensional."""
    one, minus = Fraction(1), Fraction(-1)
    lines = [{0: one, 1: minus}, {2: one}, {3: one, 4: minus}, {2: one}]
    weight = [one, one, Fraction(0), one, one]
    dense = [[line.get(c, 0) for c in range(5)] for line in lines]
    assert 5 - exact_rank(dense) == 2
    assert not kernel_is_weight(rows_op(lines, 5), 2, weight)
    # joined through a dof where the weight is nonzero, the kernel is span(weight)
    lines[2] = {1: one, 3: minus}
    lines[3] = {3: one, 4: minus}
    dense = [[line.get(c, 0) for c in range(5)] for line in lines]
    assert 5 - exact_rank(dense) == 1
    assert kernel_is_weight(rows_op(lines, 5), 2, weight)
    # a block where the weight vanishes says nothing about the kernel
    assert not kernel_is_weight(rows_op([{0: one, 1: minus}], 2), 1, [Fraction(0)] * 2)


def test_two_components_do_not_certify():
    """A direct sum of two copies of first: every cell block is healthy and
    every dof is covered, but no column group is shared across the copies."""
    inst = build_diagram("tri-dp", 2, 2, 1)
    first, dim_a, size = inst.first, inst.a_space.dim, inst.b_space.local_dim
    twice = dict(first.entries)
    twice.update({(r + first.nrows, c + dim_a): v for (r, c), v in first.entries.items()})
    twice = OpMatrix.from_entries(2 * first.nrows, 2 * dim_a, twice)
    ones = inst.a_space.constant_vector(1)
    assert kernel_is_weight(first, size, ones)
    assert not kernel_is_weight(twice, size, ones + ones)
    assert 2 * dim_a - exact_rank(twice.dense_rows()) == 2


def test_uncovered_dof_fails_the_local_test():
    inst = build_diagram("tri-dp", 2, 2, 1)
    size = inst.b_space.local_dim
    ones = inst.a_space.constant_vector(1)
    assert kernel_is_weight(inst.first, size, ones)
    wider = OpMatrix.from_entries(inst.first.nrows, inst.a_space.dim + 1, inst.first.entries)
    assert not kernel_is_weight(wider, size, ones + [Fraction(1)])
    weight = inst.gram_c.matvec(inst.c_space.uniform_vector())
    second_t = inst.second.transpose()
    assert kernel_is_weight(second_t, size, weight)
    wider = OpMatrix.from_entries(second_t.nrows, inst.c_space.dim + 1, second_t.entries)
    assert not kernel_is_weight(wider, size, weight + [Fraction(1)])


@st.composite
def cell_operators(draw):
    """(rows, ncols, cell_size, weight) for ``kernel_is_weight``: cells of
    rows that are integer combinations of differences of a few dofs (so each
    kills a weight that is 1 on those dofs), some given the previous cell's
    block on other dofs, over small denominators and, in some draws, scaled
    past int64; then up to cell_size - 1 rows past the last cell, and a
    weight that may vanish at one dof."""
    cell_size, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1, 1, 2 ** 70]))
    rows, block = [], None
    for _ in range(draw(st.integers(1, 4))):
        if block and draw(st.booleans()):  # the previous block, on other dofs
            old = sorted({d for row in block for d in row})
            new = draw(st.lists(st.integers(0, ncols - 1), min_size=len(old), max_size=len(old),
                                unique=True))
            block = [{new[old.index(d)]: v for d, v in row.items()} for row in block]
        else:
            dofs = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=cell_size + 1,
                                 unique=True))
            block = []
            for _ in range(cell_size):
                row = dict.fromkeys(dofs, 0)
                for a, b in zip(dofs, dofs[1:]):
                    c = draw(st.integers(-3, 3))
                    row[a] += c
                    row[b] -= c
                if draw(st.integers(0, 9)) == 0:  # a row that no longer kills the weight
                    row[dofs[0]] += 1
                den = draw(st.integers(1, 4))
                block.append({d: Fraction(v * scale, den) for d, v in row.items() if v})
        rows += block
    rows += [{0: Fraction(1)}] * draw(st.integers(0, cell_size - 1))
    weight = [1] * ncols
    zero = draw(st.none() | st.integers(0, ncols - 1))
    if zero is not None:
        weight[zero] = 0
    return rows, ncols, cell_size, weight


@seed(2611)
@settings(max_examples=300, deadline=None)
@given(cell_operators())
@example(([{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 3: -1}, {}], 4, 2, [1] * 4))  # unequal columns
@example(([{0: 2 ** 70, 1: -2 ** 70}, {1: 1, 2: -1}, {2: 1, 3: -1}, {}], 4, 2, [1] * 4))
@example(([{0: 1, 1: -1}, {}, {2: 1, 3: -1}, {}], 4, 2, [1] * 4))  # two components
@example(([{0: 1, 1: -1}, {1: 1, 2: -1}], 3, 1, [1, 0, 1]))  # joined where weight vanishes
@example(([{0: 1, 1: -1}, {1: 1, 2: -1}], 4, 1, [1] * 4))  # an uncovered dof
@example(([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1}], 3, 2, [1] * 3))  # a row past the last cell
@example(([{0: 1}, {1: 1}, {1: 1, 2: 1, 3: -2}, {1: 2, 2: 2, 3: -4}], 4, 2,
          [1] * 4))  # full rank beside a two-dimensional kernel: ranks sum to the bound
def test_array_kernel_test_matches_the_cell_loop(case):
    """The array cell check gives the cell-by-cell loop's verdict."""
    rows, ncols, cell_size, weight = case
    op = rows_op(rows, ncols)
    assert kernel_is_weight(op, cell_size, weight) == kernel_is_weight_loop(
        op, cell_size, weight)


@seed(2612)
@settings(max_examples=200, deadline=None)
@given(cell_operators())
@example(([{0: 1, 1: -1}, {1: 1, 2: -1}, {2: 1, 3: -1}, {}], 4, 2, [1] * 4))  # unequal columns
@example(([{0: 1, 1: -1}, {}, {2: 1, 3: -1}, {}], 4, 2, [1] * 4))  # two components
@example(([{0: 1, 1: -1}, {1: 1, 2: -1}], 4, 1, [1] * 4))  # an uncovered dof
def test_cell_check_by_columns_matches_the_cell_loop(case):
    """Read from the columns of op^T, with op^T's rows over their own
    denominators, the cell check gives the cell-by-cell loop's verdict on
    those columns and the verdict on op's rows."""
    rows, ncols, cell_size, weight = case
    op = rows_op(rows, ncols)
    op_t = op.transpose()
    by_columns = kernel_is_weight(op_t, cell_size, weight, by_columns=True)
    assert by_columns == kernel_is_weight_loop(op_t, cell_size, weight, by_columns=True)
    assert by_columns == kernel_is_weight_loop(op, cell_size, weight)


def test_healthy_certificate_ranks_every_block_in_one_elimination(monkeypatch):
    """One healthy certificate, its constants formed inside: the distinct
    cell blocks of first and second^T go to one ``prefix_ranks`` call, and
    at most 15 matrices are built (19 when each block was ranked alone and
    every witness was its own product)."""
    inst = build_diagram("tri-dp", 2, 2, 1)
    calls, built = [], []
    prefix_ranks = complexcheck.prefix_ranks
    monkeypatch.setattr(complexcheck, "prefix_ranks",
                        lambda blocks, upper=None: calls.append(len(blocks))
                        or prefix_ranks(blocks, upper))
    set_storage = OpMatrix._set
    monkeypatch.setattr(OpMatrix, "_set", lambda self, *args: built.append(1)
                        or set_storage(self, *args))
    cert = certify_complex(inst)
    assert cert.rank_first == inst.a_space.dim - 1 and cert.harmonic_is_constants
    assert calls == [4]  # two distinct blocks of each operator, one per chart
    assert len(built) <= 15


def test_first_row_off_its_constant_fails(monkeypatch):
    """A first row whose numerators no longer sum to zero: first 1 != 0,
    read from the row sums, and the report fails these checks."""
    def shift(inst):
        inst.first = perturbed(inst.first, {min(inst.first.entries): 1})
    inst = build_diagram("tri-dp", 2, 2, 1)
    shift(inst)
    assert not inst.first.rows_sum_to_zero()
    assert not certify_complex(inst).kills_constants
    rep = run_broken(monkeypatch, shift)
    assert failing(rep) == {
        "betti_numbers", "constants_orthogonal_to_first_range", "first_kernel_dim",
        "first_kernel_is_constants", "first_rank", "harmonic_dim",
        "harmonic_fields_are_constants", "second_after_first_is_zero",
        "second_kernel_is_range_plus_constants"}


def negated(rows):
    return GramBlock([[-v for v in row] for row in rows])


def test_gram_must_be_positive_definite(monkeypatch):
    inst = build_diagram("tri-dp", 2, 2, 1)
    gram = inst.gram_b
    assert gram.positive_definite()
    rows = gram.blocks[0]
    skew = [list(row) for row in rows]  # positive pivots, but not symmetric
    skew[0][1] += 1
    skew[1][0] -= 1
    for bad in (negated(rows), GramBlock(skew)):
        assert not GramMatrix(gram.dim, (bad,) + gram.blocks[1:]).positive_definite()
    for short_or_long in (gram.blocks[1:], gram.blocks + gram.blocks[:1]):
        with pytest.raises(ValueError, match="do not fill"):  # no tiling of the diagonal
            GramMatrix(gram.dim, short_or_long)
    # with a negated block verify falls through to the global route, and the
    # facts are the oracle's
    blocks = list(gram.blocks)
    blocks[3] = negated(blocks[3])
    inst = dataclasses.replace(inst, gram_b=GramMatrix(gram.dim, blocks))
    monkeypatch.setattr(complexcheck, "_local_route", lambda *args: pytest.fail("local route"))
    assert certificate_facts(certify_complex(inst)) == oracle_facts(inst)


def test_gram_verdict_stays_with_its_block():
    """A cached Gram block computes its definiteness verdict once, on first
    read, and keeps it; a verdict is never shared by two blocks of the same
    shape, whichever was certified first."""
    inst = build_diagram("quad-enriched", 2, 2, 1)
    rows = inst.gram_b.blocks[0]
    assert isinstance(rows, GramBlock)
    assert "definite" not in vars(negated(rows))  # no verdict before the first read
    assert inst.gram_b.positive_definite()
    assert vars(rows)["definite"] is True
    assert build_diagram("quad-enriched", 2, 2, 1).gram_b.blocks[0] is rows
    bad = negated(rows)
    hand = GramMatrix(len(rows), (bad,))
    for _ in range(2):
        assert not hand.positive_definite()
    assert vars(bad)["definite"] is False
    assert rows.definite is True
    assert GramMatrix(len(rows), (rows,)).positive_definite()


def test_dependent_constants_or_wrong_dimensions_fall_through(monkeypatch):
    """The 2x2 Gram matrix of the constants and dim A - dim B + dim C = 0 are
    part of the local certificate."""
    inst = build_diagram("quad-enriched", 2, 2, 1)
    columns = inst.b_space.constant_columns
    monkeypatch.setattr(inst.b_space, "constant_columns", lambda *values: columns((1, 0), (1, 0)))
    local = certify_complex(inst)
    global_only(monkeypatch)
    assert certificate_facts(local) == certificate_facts(certify_complex(inst))
    assert not local.kernel_is_range_plus_constants
    monkeypatch.undo()
    inst = build_diagram("quad-enriched", 2, 2, 1)
    args = (inst, inst.gram_c.matvec(inst.c_space.uniform_vector()),
            inst.gram_b.compose(OpMatrix.from_columns(inst.b_space.dim, inst.constant_fields()))
            .transpose().compose(OpMatrix.from_columns(inst.b_space.dim, inst.constant_fields()))
            .dense_rows())
    assert complexcheck._local_route(*args)
    inst.b_space.dim += 1
    assert not complexcheck._local_route(*args)


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
@seed(2407)
@settings(max_examples=5, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 2),
       st.fractions(Fraction(1, 3), 3, max_denominator=7),
       st.fractions(Fraction(1, 3), 3, max_denominator=7))
def test_local_route_matches_global_route(name, nx, ny, k, lx, ly):
    inst = build_diagram(name, nx, ny, k, lx, ly)
    with pytest.MonkeyPatch.context() as m:
        taken = []
        local_route = complexcheck._local_route
        m.setattr(complexcheck, "_local_route",
                  lambda *args: taken.append(local_route(*args)) or taken[-1])
        local = certify_complex(inst)
    assert taken == [True]
    with pytest.MonkeyPatch.context() as m:
        global_only(m)
        assert certificate_facts(local) == certificate_facts(certify_complex(inst))


def test_tri_dp_16x16_verifies():
    assert verify_diagram("tri-dp", 16, 16, 1).passed
