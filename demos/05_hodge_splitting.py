"""Orthogonal three-way splitting of a discrete vector field.

Any coefficient vector u in the middle space splits as

    u = u_curl + u_div + u_harmonic

with u_curl in the range of the first operator, u_harmonic a constant field,
and u_div what is left: it lies in the range of the adjoint of the second
operator, which is never formed, because it is orthogonal to the other two
ranges and verify's certificate shows that they fill the kernel of the
second.  The parts are pairwise orthogonal in the assembled inner product
and sum back to u with no rounding at all.

Run:  python3 demos/05_hodge_splitting.py
"""

import random
import tempfile

from derham import HodgeSplitter, build_diagram, load_field, random_field, save_field

inst = build_diagram("tri-dp", nx=2, ny=2, k=1)
splitter = HodgeSplitter(inst)
print(f"dim B = {splitter.dim} = rank(first) {splitter.rank_first}"
      f" + rank(adjoint) {splitter.rank_adjoint} + 2")

rng = random.Random(7)
u = random_field(inst.b_space, rng)
parts = splitter.split(u)
gram = inst.gram_b

print(f"parts sum back to u exactly: {parts.total() == u}")
print(f"<u_curl, u_div>     = {gram.inner(parts.curl, parts.div)}")
print(f"<u_curl, u_harm>    = {gram.inner(parts.curl, parts.harmonic)}")
print(f"<u_div,  u_harm>    = {gram.inner(parts.div, parts.harmonic)}")
print(f"harmonic part is the constant field {parts.harmonic_coeffs}")

# splitting a part again changes nothing: the projections are idempotent
again = splitter.split(parts.curl)
print(f"re-splitting u_curl returns (u_curl, 0, 0): "
      f"{again.curl == parts.curl and not any(again.div) and not any(again.harmonic)}")

with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as fh:
    path = fh.name
save_field(path, inst.b_space, parts.curl)
meta, coeffs = load_field(path)
print(f"round-tripped u_curl through {path}: {coeffs == parts.curl}"
      f" (space {meta['space']}, family {meta['family']})")
