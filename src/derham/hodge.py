"""Orthogonal three-way splitting of vector fields on a verified diagram.

Every field u in the middle space splits as u = u_curl + u_div + u_const,
with u_curl in range(first), u_div in range(adjoint of second) and u_const a
constant field, pairwise orthogonal in the mass inner product G_b.  The
exact splitter never forms the adjoint.  It takes verify's certificate
(``certify_complex``: first 1 = 0, rank(first) = dim A - 1 and ker(second)
= range(first) + constants), and then

1. u_curl is the G_b-projection onto B, the first w columns of first
   (all but the last), a basis of range(first) by the certificate (the
   constant of A is 1 at every dof), and u_const the G_b-projection onto
   C, the two constant fields;
2. both come from one system, factored once per splitter: the normal
   matrices side by side, diag(B^T G_b B, C^T G_b C), never the cross
   blocks, so each part is its own projection even where the constants
   are not G_b-orthogonal to range(first).  The two blocks are placed at
   columns 0 and w of a w + 2 wide system and stacked.  Without a
   certified curl basis w is 0 and the system is the 2x2 of the constants;
3. u_div is the remainder.  Each split checks that it is exactly
   G_b-orthogonal to every column of first and to both constants, hence to
   ker(second), which places it in range(adjoint) = ker(second)^perp.

A batch of fields is split as one sparse matrix U of columns, never field by
field (``HodgeSplitter.split_matrix``).  Every selector is a slice of frozen
storage, with no arithmetic: B is a column block of first, (G_b B)^T a row
block of (G_b first)^T, and the curl and harmonic unknowns X and coeffs the
first w and the last two rows of the solution.  [(G_b B)^T; (G_b C)^T] U
gives every right-hand side, B X and C coeffs every curl and harmonic part,
U - B X - C coeffs every div part D as one signed sum, and one product with
[(G_b first)^T; (G_b C)^T], stacked once per splitter, every certificate.
Each is one ``OpMatrix`` kernel on integer operators: numerators over one
denominator per row, in int64 where a bound proven from the operands
allows, else in Python ints (see ``sparse``).  (G_b C)^T is formed once
per diagram instance (``DiagramInstance.constant_operators``), shared by
``certify_complex`` and the splitter.  The system is solved for the
whole batch at once by ``exactla.LiftedSolver``, which takes
and returns integer operators: p-adic lifting mod one prime finds each
solution, and a solution is kept only after an exact integer product with
the system's rows reproduces its right-hand side, so no modular value
reaches a part unchecked.  ``hodge_report`` draws the random fields
straight into the integer columns of U (``random_field``'s one draw,
shared with ``refcheck``) and checks the parts the same way: the sum of
the parts minus U as one signed sum, G_b D and G_b H once per batch, every
pairing of matching columns as one exact integer sum
(``OpMatrix.column_dots``), and each count from the columns of a product
that are empty.  The idempotence probe sets the parts of field 0 side by
side and compares their split with them by equal storage, which equal
values have (``OpMatrix.__eq__``).  Fractions are built only for the
``HodgeParts`` that ``split_batch`` and ``split`` return to library
callers.

rank(adjoint) = rank(second), as G_b and G_c are invertible.  A float
backend is a cross-check, neither a proof nor faster: it densifies G_b,
G_c, first and second, and it never feeds back into the exact route.  It
splits a batch the same way, as the columns of one float array with one
least-squares solve per system (``FloatHodgeSplitter.split_matrix``), and
``hodge_report`` checks it with batch products, each field against
``_FLOAT_TOL`` times its own scale.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexcheck import DiagramInstance, build_diagram, certify_complex
from .exactla import LiftedSolver, float_rank
from .exactla import rank_nullspace  # unused; perfbench/tracing.py rebinds it here
from .exactla import solve_square  # unused; perfbench/tracing.py rebinds it here
from .fespace import DGVectorSpace
from .operators import adjoint  # unused; perfbench/tracing.py rebinds it here
from .refcheck import _draw
from .report import Report
from .sparse import OpMatrix

__all__ = [
    "HodgeParts",
    "HodgeSplitter",
    "FloatHodgeSplitter",
    "random_field",
    "hodge_report",
    "save_field",
    "load_field",
]

# relative tolerance of every check of the float backend
_FLOAT_TOL = 1e-10


@dataclass
class HodgeParts:
    curl: list
    div: list
    harmonic: list
    harmonic_coeffs: tuple
    harmonic_is_constant: bool

    def total(self) -> list:
        return [a + b + c for a, b, c in zip(self.curl, self.div, self.harmonic)]


class HodgeSplitter:
    """Exact projections onto the three orthogonal ranges of one diagram.

    ``rank_first`` and ``rank_adjoint`` count a range only when its part is
    certified to lie in it, else 0: rank(first) once first 1 = 0 and
    rank(first) = dim A - 1, rank(second) once ker(second) = range(first) +
    constants.  Without the curl basis every curl part is 0, so a broken
    diagram fails ``rank_identity`` instead of raising in a singular solve.
    """

    def __init__(self, inst: DiagramInstance):
        self.dim = inst.b_space.dim
        cert = certify_complex(inst)
        self._consts, self._gram_consts_t = inst.constant_operators()
        self._gram_first_t = inst.gram_b.compose(inst.first).transpose()
        basis = cert.kills_constants and cert.rank_first == inst.a_space.dim - 1
        self.rank_first = cert.rank_first if basis else 0
        # the unknowns: w curl coefficients on every column of first but the
        # last (none without the curl basis), then the two harmonic ones
        w = inst.first.ncols - 1 if basis else 0
        self._basis = inst.first.column_block(0, w)
        gram_basis_t = self._gram_first_t.row_block(0, w)
        self._gram_unknowns_t = OpMatrix.stack([gram_basis_t, self._gram_consts_t])
        # every certificate pairing, (G_b first)^T and (G_b C)^T, in one product
        self._gram_certified_t = OpMatrix.stack([self._gram_first_t, self._gram_consts_t])
        # diag(B^T G_b B, C^T G_b C): each block's normal matrix, never the
        # cross blocks, so the curl part is the projection onto range(first)
        # even where the constants are not G_b-orthogonal to it
        self._solver = LiftedSolver(OpMatrix.stack([
            gram_basis_t.compose(self._basis).column_block(0, w, w + 2),
            self._gram_consts_t.compose(self._consts).column_block(0, 2, w + 2, w)]))
        self.rank_adjoint = cert.rank_second if cert.kernel_is_range_plus_constants else 0

    def split_matrix(self, u: OpMatrix) -> tuple[OpMatrix, OpMatrix, OpMatrix, OpMatrix,
                                                   np.ndarray]:
        """Split every column of u with one sparse product per step and one
        batch solve.  Returns the curl, div and harmonic parts, each of the
        shape of u, the 2 x ncols harmonic coefficients, and a boolean
        array, True where the column's div part is certified."""
        w = self._basis.ncols
        x = self._solver.solve(self._gram_unknowns_t.compose(u))
        curl = self._basis.compose(x.row_block(0, w))
        coeffs = x.row_block(w, w + 2)
        harmonic = self._consts.compose(coeffs)
        div = OpMatrix.signed_sum([(1, u), (-1, curl), (-1, harmonic)])
        # a field is certified when its div column is G_b-orthogonal to first and the constants
        certified = self._gram_certified_t.compose(div).zero_columns()
        return curl, div, harmonic, coeffs, certified

    def split_batch(self, fields) -> list[HodgeParts]:
        """Split every field of the batch, as ``split_matrix`` does, into
        dense ``HodgeParts``."""
        curl, div, harmonic, coeffs, certified = self.split_matrix(
            OpMatrix.from_columns(self.dim, fields))
        return [HodgeParts(c, d, h, tuple(x), bool(ok))
                for c, d, h, x, ok in zip(curl.columns(), div.columns(), harmonic.columns(),
                                          coeffs.columns(), certified)]

    def split(self, field) -> HodgeParts:
        return self.split_batch([field])[0]


class FloatHodgeSplitter:
    """Numerical route: weighted least-squares projections via Cholesky.

    Independent of the exact route; a cross-check, never merged into exact
    results.  Like ``HodgeSplitter`` it splits a batch of fields as the
    columns of one matrix: one least-squares solve per system (curl,
    adjoint, constants) for the whole batch.
    """

    def __init__(self, inst: DiagramInstance):
        gb = inst.gram_b.float_array()
        gc = inst.gram_c.float_array()
        first = inst.first.float_array()
        second = inst.second.float_array()
        self._weight = np.linalg.cholesky(gb).T  # <u,v>_G = (Wu).(Wv)
        self._first = first
        self._adj = np.linalg.solve(gb, second.T @ gc)
        self._consts = inst.b_space.constant_columns((1, 0), (0, 1)).float_array()
        self._wf = self._weight @ self._first
        self._wa = self._weight @ self._adj
        self._wc = self._weight @ self._consts
        self.rank_first = float_rank(inst.first, spaces=(inst.b_space, inst.a_space))
        self.rank_adjoint = float_rank(self._adj)

    def split_matrix(self, u: np.ndarray) -> tuple[
            np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Split every column of u, a float array of fields as columns, with
        one least-squares solve per system.  Returns the curl, div and
        harmonic parts, each of the shape of u, the 2 x ncols harmonic
        coefficients, and a boolean array, True where the column's harmonic
        part is constant to within ``_FLOAT_TOL`` times max(1, |W u|)."""
        u = np.asarray(u, dtype=float)
        wu = self._weight @ u
        curl = self._first @ np.linalg.lstsq(self._wf, wu, rcond=None)[0]
        div = self._adj @ np.linalg.lstsq(self._wa, wu, rcond=None)[0]
        rem = u - curl - div
        coeffs = np.linalg.lstsq(self._wc, self._weight @ rem, rcond=None)[0]
        resid = np.linalg.norm(self._weight @ (rem - self._consts @ coeffs), axis=0)
        scale = np.maximum(1.0, np.linalg.norm(wu, axis=0))
        return curl, div, rem, coeffs, resid <= _FLOAT_TOL * scale

    def split(self, field) -> HodgeParts:
        """``split_matrix`` on a batch of one field."""
        curl, div, rem, coeffs, is_const = self.split_matrix(
            np.array([[float(v)] for v in field]))
        return HodgeParts(list(curl[:, 0]), list(div[:, 0]), list(rem[:, 0]),
                          tuple(coeffs[:, 0]), bool(is_const[0]))


def random_field(space: DGVectorSpace, rng: random.Random) -> list[Fraction]:
    """Seeded random coefficient vector with bounded rational entries: per
    entry a numerator in -9..9 over a denominator in 1..9, both read from
    one random word (``refcheck._draw``).  ``hodge_report`` draws its batch
    as one such draw, one column per field."""
    num, den = _draw(rng, space.dim)
    return [Fraction(a, d) for a, d in zip(num.tolist(), den.tolist())]


def hodge_report(name: str, nx: int, ny: int, k: int, fields: int = 20,
                 seed: int = 0, backend: str = "exact") -> Report:
    """Split seeded random fields on one diagram and certify the identities."""
    if backend not in ("exact", "float"):
        raise ValueError(f"backend must be 'exact' or 'float', got {backend!r}")
    if fields < 0:
        raise ValueError(f"fields must be >= 0, got {fields}")
    rep = Report("orthogonal field splitting",
                 params={"diagram": name, "nx": nx, "ny": ny, "k": k,
                         "fields": fields, "seed": seed, "backend": backend})
    inst = build_diagram(name, nx, ny, k)
    rng = random.Random(seed)
    dim = inst.b_space.dim
    num, den = _draw(rng, dim * fields)
    u = OpMatrix._from_dense(num.reshape(fields, dim).T, den.reshape(fields, dim).T)

    if backend == "exact":
        sp = HodgeSplitter(inst)
        rep.check("rank_identity", dim, sp.rank_first + sp.rank_adjoint + 2)
        curl, div, harmonic, _, certified = sp.split_matrix(u)
        # one integer kernel per check over the whole batch: field j passes
        # when column j of the residual, or of each pairing, is zero
        sums = OpMatrix.signed_sum([(1, curl), (1, div), (1, harmonic), (-1, u)]).zero_columns()
        g_div, g_harmonic = inst.gram_b.compose(div), inst.gram_b.compose(harmonic)
        orth = np.ones(fields, dtype=bool)
        for a, g in ((curl, g_div), (curl, g_harmonic), (div, g_harmonic)):
            orth &= a.column_dots(g).zero_columns()
        rep.check("parts_sum_to_input", fields, int(sums.sum()))
        rep.check("parts_pairwise_orthogonal", fields, int(orth.sum()))
        rep.check("harmonic_part_is_constant", fields, int(certified.sum()))
        if fields:
            # the curl, div and harmonic parts of field 0 side by side: splitting
            # them again gives each part back in its own column, equal in storage
            parts = (curl, div, harmonic)
            again = sp.split_matrix(OpMatrix.hstack([p.column_block(0, 1) for p in parts]))[:3]
            rep.check("projections_idempotent", True,
                      all(a == p.column_block(0, 1, 3, t)
                          for t, (a, p) in enumerate(zip(again, parts))))
        return rep.finish()

    sp = FloatHodgeSplitter(inst)
    rep.check("rank_identity", dim, sp.rank_first + sp.rank_adjoint + 2, backend="float")
    # one batch product per check; field j passes on its own column.  Each
    # entry of U is one correctly rounded division of small integers, as
    # float() of its Fraction is
    u = u.float_array()
    curl, div, harmonic, _, is_const = sp.split_matrix(u)
    gb = inst.gram_b.float_array()
    scale = np.maximum(1.0, np.linalg.norm(u, axis=0))
    sums = np.linalg.norm(curl + div + harmonic - u, axis=0) <= _FLOAT_TOL * scale
    orth = np.ones(fields, dtype=bool)
    for a, b in ((curl, div), (curl, harmonic), (div, harmonic)):
        orth &= np.abs(np.einsum("ij,ij->j", a, gb @ b)) <= _FLOAT_TOL * scale * scale
    rep.check("parts_sum_to_input", fields, int(sums.sum()), backend="float")
    rep.check("parts_pairwise_orthogonal", fields, int(orth.sum()), backend="float")
    rep.check("harmonic_part_is_constant", fields, int(is_const.sum()), backend="float")
    return rep.finish()


def save_field(path: str, space: DGVectorSpace, coeffs) -> None:
    """Write a field as JSON: the space descriptor plus coefficients, exact
    rationals as "p/q" strings, floats as JSON numbers."""
    vals = [f"{c.numerator}/{c.denominator}" if isinstance(c, Fraction) else float(c)
            for c in coeffs]
    doc = {"schema": 1, "space": space.descriptor(), "coeffs": vals}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_field(path: str) -> tuple[dict, list]:
    """Read a field written by ``save_field``.  A file that is not a JSON
    object with ``"space"`` (an object with an integer ``"dim"``) and
    ``"coeffs"`` (a list), a coefficient that does not parse or has a zero
    denominator, or a coefficient count other than ``dim`` raises
    ``ValueError`` naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level is not a JSON object")
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported field schema in {path}")
    space, raw = doc.get("space"), doc.get("coeffs")
    if not isinstance(space, dict) or not isinstance(space.get("dim"), int):
        raise ValueError(f"{path}: \"space\" must be an object with an integer \"dim\"")
    if not isinstance(raw, list):
        raise ValueError(f"{path}: \"coeffs\" must be a list")
    try:
        coeffs = [Fraction(v) if isinstance(v, str) else float(v) for v in raw]
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in a coefficient of {path}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: a coefficient does not parse: {exc}") from exc
    dim = space["dim"]
    if len(coeffs) != dim:
        raise ValueError(f"{path} has {len(coeffs)} coefficients for a space of dim {dim}")
    return space, coeffs
