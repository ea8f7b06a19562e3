"""Exact linear algebra over Z/l^n: canonical forms, membership, indices.

Everything in this package bottoms out in row lattices over Z/l^n.  A ring
with zero divisors needs more care than a field: echelon forms are not
canonical and membership cannot be decided by back-substitution alone.
The Howell form fixes both.
"""

from logcap.lattice import Submodule, ZModRing, quotient_order, solve

ring = ZModRing(2, 3)  # Z/8
print(f"working over Z/{ring.modulus}")

# Two generating sets of the same submodule of (Z/8)^2.
gens_a = [[2, 0], [0, 4], [2, 4]]
gens_b = [[2, 4], [0, 4]]
sub_a = Submodule.from_generators(ring, 2, gens_a)
sub_b = Submodule.from_generators(ring, 2, gens_b)
print("canonical basis of span", gens_a, "->", sub_a.basis)
print("canonical basis of span", gens_b, "->", sub_b.basis)
print("identical objects:", sub_a == sub_b)

# Membership is decided by reduction against the canonical basis.
print("(2, 4) in span:", (2, 4) in sub_a)
print("(1, 0) in span:", (1, 0) in sub_a)
print("residual of (3, 4):", sub_a.reduce((3, 4)))

# The number of elements of a span is read off the pivots.
print("span has", sub_a.order(), "elements")

# Indices of nested submodules are exact.
full = Submodule.from_generators(ring, 2, [[1, 0], [0, 1]])
print("index of the span in (Z/8)^2:", quotient_order(full, sub_a))

# Solving x * M = v over Z/8: 2x = 4 has the non-unique solution set {2, 6};
# the solver returns a verified representative, and None when the target
# valuation is too small.
print("solve 2x = 4:", solve([[2]], [4], ring))
print("solve 2x = 1:", solve([[2]], [1], ring))

# The Howell form of a matrix's row space is the basis of its Submodule.
rows = [[2, 1], [4, 4]]
print("normal form of", rows, "->", Submodule.from_generators(ring, 2, rows).basis)
