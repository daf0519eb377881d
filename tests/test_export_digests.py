"""The assembled operators are entry-for-entry unchanged.

``data/export_digests.json`` holds the SHA-256 of ``OpMatrix.export`` (no
meta) for ``first`` and ``second`` of every registered diagram on a fixed
set of meshes, levels and periods, and of the Gram matrices ``gram_b`` and
``gram_c`` written out the same way.  Any change to a value, a sign, a dof
number or the nonzero pattern changes a digest.

The operator digests were recorded from the assembly that formed every cell
and face contribution separately; the Gram digests from the two separate
scalar and vector local-basis classes.  To regenerate them after a deliberate change of
the operators, run from the repository root::

    PYTHONPATH=src python tests/test_export_digests.py

which rewrites ``tests/data/export_digests.json``.
"""

import hashlib
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from derham.complexcheck import DIAGRAMS, build_diagram
from derham.operators import OpMatrix

DATA = Path(__file__).resolve().parent / "data" / "export_digests.json"

# (nx, ny, k, lx, ly)
CASES = (
    [(2, 2, k, 1, 1) for k in (0, 1, 2)]
    + [(3, 2, 1, 1, 1), (4, 3, 1, Fraction(7, 3), Fraction(5, 11))]
)


def case_key(name, nx, ny, k, lx, ly):
    return f"{name} {nx}x{ny} k={k} lx={lx} ly={ly}"


def export_digest(op, tmpdir):
    path = Path(tmpdir) / "op.mtx"
    op.export(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def instance_digests(inst, tmpdir):
    """Digests of the two operators and of the two Gram matrices, the
    latter exported as sparse matrices of their nonzeros (they are
    symmetric, so their rows serve as columns)."""
    grams = {role: OpMatrix.from_columns(g.dim, g.dense_rows())
             for role, g in (("gram_b", inst.gram_b), ("gram_c", inst.gram_c))}
    ops = {"first": inst.first, "second": inst.second, **grams}
    return {role: export_digest(op, tmpdir) for role, op in ops.items()}


def digests():
    out = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for name in sorted(DIAGRAMS):
            for nx, ny, k, lx, ly in CASES:
                inst = build_diagram(name, nx, ny, k, lx, ly)
                out[case_key(name, nx, ny, k, lx, ly)] = instance_digests(inst, tmpdir)
    return out


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_export_digests_unchanged(name, tmp_path):
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    for nx, ny, k, lx, ly in CASES:
        inst = build_diagram(name, nx, ny, k, lx, ly)
        key = case_key(name, nx, ny, k, lx, ly)
        assert instance_digests(inst, tmp_path) == expected[key], key


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
