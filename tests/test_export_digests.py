"""The assembled operators are entry-for-entry unchanged.

``data/export_digests.json`` holds the SHA-256 of ``OpMatrix.export`` (no
meta) for ``first`` and ``second`` of every registered diagram on a fixed
set of meshes, levels and periods.  Any change to a value, a sign, a dof
number or the nonzero pattern changes a digest.

The digests were recorded from the assembly that formed every cell and face
contribution separately.  To regenerate them after a deliberate change of
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


def digests():
    out = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for name in sorted(DIAGRAMS):
            for nx, ny, k, lx, ly in CASES:
                inst = build_diagram(name, nx, ny, k, lx, ly)
                out[case_key(name, nx, ny, k, lx, ly)] = {
                    "first": export_digest(inst.first, tmpdir),
                    "second": export_digest(inst.second, tmpdir),
                }
    return out


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_export_digests_unchanged(name, tmp_path):
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    for nx, ny, k, lx, ly in CASES:
        inst = build_diagram(name, nx, ny, k, lx, ly)
        key = case_key(name, nx, ny, k, lx, ly)
        got = {"first": export_digest(inst.first, tmp_path),
               "second": export_digest(inst.second, tmp_path)}
        assert got == expected[key], key


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
