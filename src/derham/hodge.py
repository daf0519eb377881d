"""Orthogonal three-way splitting of vector fields on a verified diagram.

Every field u in the middle space splits as

    u = u_curl + u_div + u_const

with u_curl in range(first), u_div in range(adjoint of second) and u_const a
constant field.  The three subspaces are pairwise orthogonal in the mass
inner product (the cross terms reduce to second∘first = 0), their dimensions
add up to the whole space, and the exact backend certifies all of that with
zero tolerance.  A float backend covers meshes beyond the exact-arithmetic
budget; it never feeds back into the exact route.

Projections solve SPD normal equations R^T G R x = R^T G u where the columns
of R span the target range.  Factorizations and normal matrices are built
once per diagram and shared across fields; batches of fields go through one
elimination per range.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexcheck import DiagramInstance, build_diagram
from .exactla import float_rank, rank_nullspace, solve_square
from .fespace import DGVectorSpace
from .operators import adjoint
from .report import Report

__all__ = [
    "HodgeParts",
    "HodgeSplitter",
    "FloatHodgeSplitter",
    "random_field",
    "hodge_report",
    "save_field",
    "load_field",
]

_ZERO = Fraction(0)


def _dot(x, y) -> Fraction:
    s = _ZERO
    for a, b in zip(x, y):
        if a and b:
            s += a * b
    return s


def _combine(cols, coeffs, dim: int) -> list[Fraction]:
    out = [_ZERO] * dim
    for c, col in zip(coeffs, cols):
        if c:
            for i, v in enumerate(col):
                if v:
                    out[i] += c * v
    return out


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
    """Exact projections onto the three orthogonal ranges of one diagram."""

    def __init__(self, inst: DiagramInstance):
        self.inst = inst
        self.dim = inst.b_space.dim
        fr = rank_nullspace(inst.first.dense_rows(), ncols=inst.a_space.dim,
                            want_nullspace=False)
        self.rank_first = fr.rank
        self.range_first = [inst.first.column(j) for j in fr.pivot_cols]
        adj = adjoint(inst.second, inst.gram_b, inst.gram_c)
        ar = rank_nullspace(adj.dense_rows(), ncols=inst.c_space.dim,
                            want_nullspace=False)
        self.rank_adjoint = ar.rank
        self.range_adjoint = [adj.column(j) for j in ar.pivot_cols]
        self.constants = inst.constant_fields()
        self._normal_first, self._gcols_first = self._normal(self.range_first)
        self._normal_adj, self._gcols_adj = self._normal(self.range_adjoint)
        self._normal_const, self._gcols_const = self._normal(self.constants)

    def _normal(self, cols):
        gcols = [self.inst.gram_b.matvec(c) for c in cols]
        return [[_dot(c, g) for g in gcols] for c in cols], gcols

    def _project_batch(self, cols, normal, fields_gram):
        if not cols:
            return [[_ZERO] * self.dim for _ in fields_gram]
        rhs = [[_dot(c, gu) for c in cols] for gu in fields_gram]
        sols = solve_square(normal, rhs)
        return [_combine(cols, x, self.dim) for x in sols]

    def split_batch(self, fields) -> list[HodgeParts]:
        gus = [self.inst.gram_b.matvec(u) for u in fields]
        curls = self._project_batch(self.range_first, self._normal_first, gus)
        divs = self._project_batch(self.range_adjoint, self._normal_adj, gus)
        out = []
        for u, uc, ud in zip(fields, curls, divs):
            rem = [a - b - c for a, b, c in zip(u, uc, ud)]
            grem = self.inst.gram_b.matvec(rem)
            coeffs = solve_square(self._normal_const,
                                  [[_dot(c, grem) for c in self.constants]])[0]
            recon = _combine(self.constants, coeffs, self.dim)
            is_const = all(a == b for a, b in zip(rem, recon))
            out.append(HodgeParts(uc, ud, rem, tuple(coeffs), is_const))
        return out

    def split(self, field) -> HodgeParts:
        return self.split_batch([field])[0]


class FloatHodgeSplitter:
    """Numerical route: weighted least-squares projections via Cholesky.

    Independent of the exact route; used for scale and for cross-checking,
    never merged into exact results.
    """

    def __init__(self, inst: DiagramInstance):
        self.inst = inst
        gb = inst.gram_b.float_array()
        gc = inst.gram_c.float_array()
        first = inst.first.float_array()
        second = inst.second.float_array()
        self._weight = np.linalg.cholesky(gb).T  # <u,v>_G = (Wu).(Wv)
        self._first = first
        self._adj = np.linalg.solve(gb, second.T @ gc)
        self._consts = np.array(
            [[float(v) for v in c] for c in inst.constant_fields()]).T
        self._wf = self._weight @ self._first
        self._wa = self._weight @ self._adj
        self._wc = self._weight @ self._consts
        self.rank_first = float_rank(first)
        self.rank_adjoint = float_rank(self._adj)

    def split(self, field, tol: float = 1e-10) -> HodgeParts:
        u = np.array([float(v) for v in field])
        wu = self._weight @ u
        xc, *_ = np.linalg.lstsq(self._wf, wu, rcond=None)
        curl = self._first @ xc
        xd, *_ = np.linalg.lstsq(self._wa, wu, rcond=None)
        div = self._adj @ xd
        rem = u - curl - div
        coeffs, *_ = np.linalg.lstsq(self._wc, self._weight @ rem, rcond=None)
        resid = rem - self._consts @ coeffs
        scale = max(1.0, float(np.linalg.norm(wu)))
        is_const = float(np.linalg.norm(self._weight @ resid)) <= tol * scale
        return HodgeParts(list(curl), list(div), list(rem), tuple(coeffs), is_const)


def random_field(space: DGVectorSpace, rng: random.Random) -> list[Fraction]:
    """Seeded random coefficient vector with bounded rational entries."""
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(space.dim)]


def _all_zero(vec) -> bool:
    return not any(vec)


def hodge_report(name: str, nx: int, ny: int, k: int, fields: int = 20,
                 seed: int = 0, backend: str = "exact", tol: float = 1e-10) -> Report:
    """Split seeded random fields on one diagram and certify the identities."""
    if backend not in ("exact", "float"):
        raise ValueError(f"backend must be 'exact' or 'float', got {backend!r}")
    if fields < 0:
        raise ValueError(f"fields must be >= 0, got {fields}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    inst = build_diagram(name, nx, ny, k)
    rng = random.Random(seed)
    us = [random_field(inst.b_space, rng) for _ in range(fields)]
    rep = Report("orthogonal field splitting",
                 params={"diagram": name, "nx": nx, "ny": ny, "k": k,
                         "fields": fields, "seed": seed, "backend": backend})

    if backend == "exact":
        sp = HodgeSplitter(inst)
        rep.check("rank_identity", inst.b_space.dim, sp.rank_first + sp.rank_adjoint + 2)
        parts = sp.split_batch(us)
        g = inst.gram_b
        sums = sum(1 for u, p in zip(us, parts) if p.total() == list(u))
        orth = sum(1 for p in parts
                   if not g.inner(p.curl, p.div)
                   and not g.inner(p.curl, p.harmonic)
                   and not g.inner(p.div, p.harmonic))
        const = sum(1 for p in parts if p.harmonic_is_constant)
        rep.check("parts_sum_to_input", fields, sums)
        rep.check("parts_pairwise_orthogonal", fields, orth)
        rep.check("harmonic_part_is_constant", fields, const)
        if parts:
            p = parts[0]
            rp = sp.split_batch([p.curl, p.div, p.harmonic])
            idem = (rp[0].curl == p.curl and _all_zero(rp[0].div) and _all_zero(rp[0].harmonic)
                    and rp[1].div == p.div and _all_zero(rp[1].curl) and _all_zero(rp[1].harmonic)
                    and rp[2].harmonic == p.harmonic and _all_zero(rp[2].curl) and _all_zero(rp[2].div))
            rep.check("projections_idempotent", True, idem)
        return rep.finish()

    sp = FloatHodgeSplitter(inst)
    rep.check("rank_identity", inst.b_space.dim,
              sp.rank_first + sp.rank_adjoint + 2, backend="float")
    gb = inst.gram_b.float_array()
    sums = orth = const = 0
    for u in us:
        p = sp.split(u, tol=tol)
        uf = np.array([float(v) for v in u])
        total = np.array(p.curl) + np.array(p.div) + np.array(p.harmonic)
        scale = max(1.0, float(np.linalg.norm(uf)))
        if float(np.linalg.norm(total - uf)) <= tol * scale:
            sums += 1
        pairs = ((p.curl, p.div), (p.curl, p.harmonic), (p.div, p.harmonic))
        if all(abs(float(np.array(a) @ gb @ np.array(b))) <= tol * scale * scale
               for a, b in pairs):
            orth += 1
        if p.harmonic_is_constant:
            const += 1
    rep.check("parts_sum_to_input", fields, sums, backend="float")
    rep.check("parts_pairwise_orthogonal", fields, orth, backend="float")
    rep.check("harmonic_part_is_constant", fields, const, backend="float")
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
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported field schema in {path}")
    coeffs = [Fraction(v) if isinstance(v, str) else float(v) for v in doc["coeffs"]]
    return doc["space"], coeffs
