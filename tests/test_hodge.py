"""Three-way orthogonal splitting of discrete vector fields."""

import dataclasses
import json
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from derham.complexcheck import build_diagram
from derham.exactla import LiftedSolver, rank_nullspace, solve_any, solve_square
from derham.hodge import (
    FloatHodgeSplitter,
    HodgeSplitter,
    hodge_report,
    load_field,
    random_field,
    save_field,
)
from derham.operators import GramBlock, GramMatrix, adjoint
from derham.sparse import OpMatrix

F = Fraction


@pytest.fixture(scope="module")
def tri_instance():
    return build_diagram("tri-dp", 2, 2, 1)


@pytest.fixture(scope="module")
def tri_splitter(tri_instance):
    return HodgeSplitter(tri_instance)


def test_rank_identity(tri_splitter):
    s = tri_splitter
    assert s.dim == s.rank_first + s.rank_adjoint + 2


def test_parts_sum_and_orthogonality(tri_instance, tri_splitter):
    rng = random.Random(41)
    gram = tri_instance.gram_b
    for _ in range(3):
        u = random_field(tri_instance.b_space, rng)
        parts = tri_splitter.split(u)
        assert parts.total() == u
        assert gram.inner(parts.curl, parts.div) == 0
        assert gram.inner(parts.curl, parts.harmonic) == 0
        assert gram.inner(parts.div, parts.harmonic) == 0
        assert parts.harmonic_is_constant


def test_constant_operators_are_formed_once(monkeypatch):
    """certify_complex and the splitter share one C and one (G_b C)^T."""
    inst = build_diagram("tri-dp", 2, 2, 1)
    calls = []
    compose = type(inst.gram_b).compose
    monkeypatch.setattr(type(inst.gram_b), "compose",
                        lambda self, op: calls.append(op) or compose(self, op))
    sp = HodgeSplitter(inst)
    consts, gram_consts_t = inst.constant_operators()
    assert sp._consts is consts and sp._gram_consts_t is gram_consts_t
    assert sum(op is consts for op in calls) == 1


def test_constant_field_is_purely_harmonic(tri_instance, tri_splitter):
    u = tri_instance.b_space.constant_vector(F(3), F(-2, 5))
    parts = tri_splitter.split(u)
    assert not any(parts.curl)
    assert not any(parts.div)
    assert parts.harmonic == u
    assert parts.harmonic_coeffs == (F(3), F(-2, 5))


def test_projections_idempotent(tri_instance, tri_splitter):
    rng = random.Random(43)
    u = random_field(tri_instance.b_space, rng)
    parts = tri_splitter.split(u)
    again = tri_splitter.split(parts.curl)
    assert again.curl == parts.curl
    assert not any(again.div) and not any(again.harmonic)
    again = tri_splitter.split(parts.div)
    assert again.div == parts.div
    assert not any(again.curl) and not any(again.harmonic)


def assert_batch_equals_singles(inst, splitter, seed):
    rng = random.Random(seed)
    u, v = (random_field(inst.b_space, rng) for _ in range(2))
    zero = [F(0)] * inst.b_space.dim  # an empty column of the batch
    const = inst.b_space.constant_vector(F(3), F(-2, 5))
    fields = [u, zero, v, u, const]
    assert splitter.split_batch(fields) == [splitter.split(w) for w in fields]
    assert splitter.split_batch([]) == []


def test_batch_matches_single(tri_instance, tri_splitter):
    assert_batch_equals_singles(tri_instance, tri_splitter, 47)


def test_batch_matches_single_on_stretched_quad():
    inst = build_diagram("quad-enriched", 2, 2, 1, F(7, 3), F(5, 11))
    assert_batch_equals_singles(inst, HodgeSplitter(inst), 49)


def test_hodge_report_without_fields():
    rep = hodge_report("tri-dp", 2, 2, 1, fields=0)
    assert rep.passed
    assert [c.name for c in rep.checks] == [
        "rank_identity", "parts_sum_to_input", "parts_pairwise_orthogonal",
        "harmonic_part_is_constant"]


@pytest.mark.parametrize("seed", [0, 3, 41])
def test_random_field_draws_as_before(tri_instance, seed):
    """The value table gives the fields Fraction(randint, randint) gives,
    from the same draws."""
    space = tri_instance.b_space
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(3):
        expected = [F(reference.randint(-9, 9), reference.randint(1, 9)) for _ in range(space.dim)]
        assert random_field(space, rng) == expected
    assert rng.getstate() == reference.getstate()


def test_float_splitter_tracks_exact(tri_instance, tri_splitter):
    fs = FloatHodgeSplitter(tri_instance)
    assert fs.rank_first == tri_splitter.rank_first
    assert fs.rank_adjoint == tri_splitter.rank_adjoint
    rng = random.Random(53)
    u = random_field(tri_instance.b_space, rng)
    exact = tri_splitter.split(u)
    approx = fs.split(u)
    assert approx.harmonic_is_constant
    for a, b in zip(exact.curl, approx.curl):
        assert abs(float(a) - b) < 1e-8


def test_float_batch_split_matches_single_fields():
    inst = build_diagram("tri-dp", 3, 3, 1)
    fs = FloatHodgeSplitter(inst)
    rng = random.Random(0)
    us = [random_field(inst.b_space, rng) for _ in range(20)]
    curl, div, harmonic, coeffs, is_const = fs.split_matrix(np.array(us, dtype=float).T)
    for j, u in enumerate(us):
        one = fs.split(u)
        for batch, single in ((curl, one.curl), (div, one.div), (harmonic, one.harmonic),
                              (coeffs, one.harmonic_coeffs)):
            assert np.max(np.abs(batch[:, j] - np.array(single))) <= 1e-12
        assert is_const[j] == one.harmonic_is_constant


def test_float_report_checks():
    rep = hodge_report("tri-dp", 3, 3, 1, fields=20, backend="float")
    assert [c.to_dict() for c in rep.checks] == [
        {"name": "rank_identity", "expected": 108, "computed": 108, "passed": True,
         "backend": "float"},
        {"name": "parts_sum_to_input", "expected": 20, "computed": 20, "passed": True,
         "backend": "float"},
        {"name": "parts_pairwise_orthogonal", "expected": 20, "computed": 20, "passed": True,
         "backend": "float"},
        {"name": "harmonic_part_is_constant", "expected": 20, "computed": 20, "passed": True,
         "backend": "float"},
    ]
    assert hodge_report("tri-dp", 2, 2, 1, fields=0, backend="float").passed


def projection(gram, cols, u):
    """G-orthogonal projection of u onto the span of independent columns,
    by the normal equations R^T G R x = R^T G u."""
    gcols = [gram.matvec(c) for c in cols]
    normal = [[sum(a * b for a, b in zip(c, g)) for g in gcols] for c in cols]
    rhs = [sum(a * b for a, b in zip(g, u)) for g in gcols]
    x = solve_square(normal, [rhs])[0]
    return [sum(xj * c[i] for xj, c in zip(x, cols)) for i in range(len(u))]


@pytest.mark.parametrize("name,lx,ly", [
    ("tri-dp", 1, 1), ("quad-enriched", F(7, 3), F(5, 11)),
])
def test_split_matches_adjoint_reference(name, lx, ly):
    inst = build_diagram(name, 2, 2, 1, lx, ly)
    pivots = rank_nullspace(inst.first.dense_rows(), want_nullspace=False).pivot_cols
    columns = inst.first.columns()
    range_first = [columns[j] for j in pivots]
    adj = adjoint(inst.second, inst.gram_b, inst.gram_c).dense_rows()
    splitter = HodgeSplitter(inst)
    rng = random.Random(61)
    for _ in range(3):
        u = random_field(inst.b_space, rng)
        parts = splitter.split(u)
        assert parts.curl == projection(inst.gram_b, range_first, u)
        assert parts.harmonic == projection(inst.gram_b, inst.constant_fields(), u)
        assert solve_any(adj, parts.div) is not None
        assert parts.harmonic_is_constant


def test_split_is_two_separate_projections_when_constants_are_not_orthogonal():
    """With 1 added to the first diagonal entry of G_b, the constants are
    not G_b-orthogonal to range(first).  The one block-diagonal solve still
    gives the two separate projections, onto range(first) and onto the
    constants, not the joint projection onto their sum."""
    inst = build_diagram("tri-dp", 2, 2, 1)
    first_block, *rest = inst.gram_b.blocks
    bent = GramBlock([[v + (i == j == 0) for j, v in enumerate(row)]
                      for i, row in enumerate(first_block)])
    inst = dataclasses.replace(inst, gram_b=GramMatrix(inst.gram_b.dim, (bent, *rest),
                                                       inst.gram_b.space_tag))
    assert not inst.constant_operators()[1].compose(inst.first).is_zero
    splitter = HodgeSplitter(inst)
    assert splitter.rank_first == inst.a_space.dim - 1
    basis, consts = inst.first.columns()[:-1], inst.constant_fields()
    rng = random.Random(67)
    fields = [random_field(inst.b_space, rng) for _ in range(3)]
    split = splitter.split_batch(fields + consts)
    for u, parts in zip(fields + consts, split):
        assert parts.curl == projection(inst.gram_b, basis, u)
        assert parts.harmonic == projection(inst.gram_b, consts, u)
        assert parts.div == [a - b - c for a, b, c in zip(u, parts.curl, parts.harmonic)]
    # the joint projection onto range(first) + constants, with the cross
    # blocks, differs
    for u, parts in zip(fields, split):
        joint = projection(inst.gram_b, basis + consts, u)
        assert joint != [a + b for a, b in zip(parts.curl, parts.harmonic)]


@pytest.mark.parametrize("name,k", [("tri-dp", 1), ("quad-drt", 0)])
def test_hodge_report_exact(name, k):
    rep = hodge_report(name, 2, 2, k, fields=5, seed=11)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert {"rank_identity", "parts_sum_to_input", "parts_pairwise_orthogonal",
            "harmonic_part_is_constant", "projections_idempotent"} <= names


TAMPER_FIELDS = 5


def unit(shape, row, col):
    return OpMatrix.from_entries(*shape, {(row, col): 1})


def tampered_report(monkeypatch, tamper):
    """The exact tri-dp 2x2 k=1 report with ``tamper(call, curl, div,
    harmonic)`` giving the parts of each ``split_matrix`` call: call 1 splits
    the batch, call 2 the idempotence probe."""
    split_matrix, calls = HodgeSplitter.split_matrix, []

    def wrapped(self, u):
        curl, div, harmonic, coeffs, certified = split_matrix(self, u)
        calls.append(u.ncols)
        return (*tamper(len(calls), curl, div, harmonic), coeffs, certified)

    monkeypatch.setattr(HodgeSplitter, "split_matrix", wrapped)
    rep = hodge_report("tri-dp", 2, 2, 1, fields=TAMPER_FIELDS, seed=11)
    assert calls == [TAMPER_FIELDS, 3]
    return {c.name: (c.passed, c.expected, c.computed) for c in rep.checks}


def test_a_part_off_by_one_entry_fails_the_sum(monkeypatch):
    def tamper(call, curl, div, harmonic):
        if call == 1:
            curl = curl + unit(curl.shape, 0, 2)
        return curl, div, harmonic

    checks = tampered_report(monkeypatch, tamper)
    assert checks["parts_sum_to_input"] == (False, TAMPER_FIELDS, TAMPER_FIELDS - 1)


def test_harmonic_moved_into_the_curl_part_fails_orthogonality(monkeypatch):
    """The parts still sum to the input, but the curl part of field 2 now
    holds its harmonic part, which is not G_b-orthogonal to itself."""
    def tamper(call, curl, div, harmonic):
        if call == 1:
            moved = harmonic.column_block(2, 3, TAMPER_FIELDS, 2)
            assert not moved.is_zero
            curl, div = curl + moved, div - moved
        return curl, div, harmonic

    checks = tampered_report(monkeypatch, tamper)
    assert checks["parts_sum_to_input"] == (True, TAMPER_FIELDS, TAMPER_FIELDS)
    assert checks["parts_pairwise_orthogonal"] == (False, TAMPER_FIELDS, TAMPER_FIELDS - 1)


def test_a_harmonic_coefficient_off_by_one_fails_the_certificate(monkeypatch):
    """One more unit of the first constant in the harmonic part of field 2
    leaves the div part short of it, so that part is not G_b-orthogonal to
    the constants and is not certified."""
    solve = LiftedSolver.solve

    def wrapped(self, rhs):
        x = solve(self, rhs)
        return x + unit(x.shape, x.nrows - 2, 2) if rhs.ncols == TAMPER_FIELDS else x

    monkeypatch.setattr(LiftedSolver, "solve", wrapped)
    checks = tampered_report(monkeypatch, lambda call, *parts: parts)
    assert checks["parts_sum_to_input"] == (True, TAMPER_FIELDS, TAMPER_FIELDS)
    assert checks["harmonic_part_is_constant"] == (False, TAMPER_FIELDS, TAMPER_FIELDS - 1)


def test_a_resplit_off_by_one_entry_fails_idempotence(monkeypatch):
    def tamper(call, curl, div, harmonic):
        if call == 2:
            div = div + unit(div.shape, 0, 1)
        return curl, div, harmonic

    checks = tampered_report(monkeypatch, tamper)
    assert checks["projections_idempotent"] == (False, True, False)
    assert checks["parts_sum_to_input"] == (True, TAMPER_FIELDS, TAMPER_FIELDS)


def test_warm_exact_report_draws_by_words_and_builds_no_selector(monkeypatch):
    """A warm exact report calls neither randrange nor from_entries, and
    reports what it reports without the guards."""
    hodge_report("tri-dp", 3, 3, 1)  # fills the caches
    plain = hodge_report("tri-dp", 3, 3, 1).to_dict()

    def refuse(*args, **kwargs):
        raise AssertionError("a warm exact report drew by randrange or built from entries")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    monkeypatch.setattr(OpMatrix, "from_entries", staticmethod(refuse))
    guarded = hodge_report("tri-dp", 3, 3, 1).to_dict()
    del plain["wall_ms"], guarded["wall_ms"]
    assert guarded == plain and guarded["passed"]


def test_hodge_report_exact_at_6x6():
    # the normal matrix has 143 columns; each batch is solved by lifting
    rep = hodge_report("tri-dp", 6, 6, 1, fields=20)
    assert rep.passed
    assert {c.name for c in rep.checks} >= {"parts_sum_to_input", "projections_idempotent"}


def test_hodge_report_float_backend():
    rep = hodge_report("tri-dp", 2, 2, 0, fields=5, seed=11, backend="float")
    assert rep.passed
    assert any(c.backend == "float" for c in rep.checks)


def test_field_io_roundtrip(tmp_path, tri_instance):
    rng = random.Random(59)
    space = tri_instance.b_space
    coeffs = random_field(space, rng)
    path = tmp_path / "field.json"
    save_field(str(path), space, coeffs)
    meta, back = load_field(str(path))
    assert back == coeffs
    assert all(isinstance(v, F) for v in back)
    assert meta["space"] == "dg_vector"
    assert meta["family"] == "vec_p"

    floats = [float(v) for v in coeffs]
    save_field(str(path), space, floats)
    _, back = load_field(str(path))
    assert back == floats


def test_loaded_float_coefficient_is_a_clear_error(tmp_path, tri_instance, tri_splitter):
    """A JSON-number coefficient loads as a float, which the exact splitter
    refuses with TypeError naming its column and row."""
    space = tri_instance.b_space
    coeffs = random_field(space, random.Random(59))
    coeffs[3] = 0.25
    path = tmp_path / "field.json"
    save_field(str(path), space, coeffs)
    _, back = load_field(str(path))
    assert isinstance(back[3], float)
    with pytest.raises(TypeError, match=r"column 0, row 3 .* not an int or a Fraction"):
        tri_splitter.split(back)
    with pytest.raises(TypeError, match=r"column 1, row 3 "):
        tri_splitter.split_batch([coeffs[:3] + [F(1, 4)] + coeffs[4:], back])


def test_load_field_rejects_bad_fields(tmp_path, tri_instance):
    space = tri_instance.b_space
    path = tmp_path / "field.json"
    save_field(str(path), space, [F(1, 2)] * (space.dim - 1))
    with pytest.raises(ValueError, match=f"has {space.dim - 1} coefficients for a space of dim {space.dim}$"):
        load_field(str(path))

    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["coeffs"] = ["1/0"] * space.dim
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="^zero denominator in a coefficient of "):
        load_field(str(path))


@pytest.mark.parametrize("doc,reason", [
    ([1, 2], "the top level is not a JSON object"),
    ({"schema": 1, "coeffs": []}, '"space" must be an object with an integer "dim"'),
    ({"schema": 1, "space": {"space": "dg_vector"}, "coeffs": []},
     '"space" must be an object with an integer "dim"'),
    ({"schema": 1, "space": {"dim": 0}}, '"coeffs" must be a list'),
    ({"schema": 1, "space": {"dim": 1}, "coeffs": ["one"]}, "a coefficient does not parse"),
], ids=["not-object", "no-space", "no-dim", "no-coeffs", "unparsed"])
def test_load_field_rejects_bad_headers(tmp_path, doc, reason):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(reason)}"):
        load_field(str(path))
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} is not JSON"):
        load_field(str(path))
