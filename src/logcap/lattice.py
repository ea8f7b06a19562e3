"""Exact linear algebra over Z/l^n.

Everything downstream (submodules of class modules, relation solving,
index computations) reduces to row lattices over the local ring Z/l^n.
Because this ring has zero divisors, ordinary echelon forms are neither
canonical nor sufficient for membership tests; the Howell form is both.
The routines here follow the usual recipe: echelonize with minimal-valuation
pivots, re-inject the annihilator multiple of every pivot row, then reduce
entries above each pivot below the pivot's valuation.  Each system gets
one elimination, and each caller back-reduces only the rows it reads:
``kernel`` those with pivots past the width, ``solve_many`` those before
it, ``Submodule.from_generators`` all.

Conventions are row-based throughout: vectors are rows, ``solve`` finds
``x`` with ``x * M = v``, and ``kernel`` is the left kernel.  A system
with several targets is factored once and each target reduced against
it (``solve_many``); ``solve`` is its one-target case.  The products
``vec_mat`` and ``mat_mul`` take one order per coordinate, since a module
such as A = T + Z/l^n has coordinates of different orders: coordinate j of
a product is reduced mod ``orders[j]``, which divides l^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence


class ModulusMismatchError(ValueError):
    """Raised when values over different rings Z/l^n are combined."""


class ShapeError(ValueError):
    """Raised on inconsistent matrix/vector dimensions."""


class ContainmentError(ValueError):
    """Raised when a quotient is requested for non-nested submodules."""


# The coefficient modulus l^n is at most 2^MAX_MODULUS_BITS.  With every
# corpus instance raised to the largest precision under this limit, `logcap
# verify` takes 0.67 s for all 55 of them (0.62 s at their shipped
# precisions with the oracle skipped; 2-core machine, Python 3.11).  At
# 2^1024 it takes 2.1 s; near 2^4096 the module orders in the report pass
# the 4300 digits Python converts to text, and l^n = 2^100000 spends 31 s
# in valuations.
MAX_MODULUS_BITS = 64


class ModulusSizeError(RuntimeError):
    """Raised, before l^n is computed, for a coefficient modulus above
    2^MAX_MODULUS_BITS."""


class InternalInvariantError(RuntimeError):
    """An identity that must hold on validated data failed; indicates a bug
    or an unvalidated instance."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the first thirteen primes as bases is exact below this bound
# (Sorenson & Webster, Math. Comp. 2017).
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic primality; ValueError where the test is not exact."""
    if p < 2:
        return False
    if p >= _MR_EXACT_BELOW:
        raise ValueError(
            f"cannot certify {p} as prime: the test is exact only below {_MR_EXACT_BELOW}"
        )
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class ZModRing:
    """The coefficient ring Z/l^n for a prime l and precision n >= 1."""

    __slots__ = ("prime", "precision", "modulus")

    def __init__(self, prime: int, precision: int):
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if precision > MAX_MODULUS_BITS or prime**precision > 2**MAX_MODULUS_BITS:
            raise ModulusSizeError(
                f"coefficient modulus {prime}^{precision} exceeds the limit 2^{MAX_MODULUS_BITS}"
            )
        self.prime = prime
        self.precision = precision
        self.modulus = prime**precision

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZModRing)
            and self.prime == other.prime
            and self.precision == other.precision
        )

    def __hash__(self) -> int:
        return hash((self.prime, self.precision))

    def __repr__(self) -> str:
        return f"ZModRing({self.prime}, {self.precision})"


def vec_mat(vec: Sequence[int], mat: Sequence[Sequence[int]], orders: Sequence[int]) -> tuple:
    """The row vector vec * mat, coordinate j reduced mod orders[j].  Zero
    entries of vec are skipped, as the vectors of the checks are sparse."""
    out = None
    for c, row in zip(vec, mat):
        if c:
            out = [c * x for x in row] if out is None else [y + c * x for y, x in zip(out, row)]
    if out is None:
        return (0,) * len(orders)
    return tuple([y % o for y, o in zip(out, orders)])


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], orders: Sequence[int]) -> tuple:
    """The matrix product a * b, column j reduced mod orders[j]."""
    return tuple(vec_mat(row, b, orders) for row in a)


# red is a list while it has at most this many entries, else a dict that
# reduces each sum when first looked up, so its size follows the sums in use.
DENSE_SUMS = 2**16


class _SumCodes(dict):
    def __missing__(self, c):
        out = self[c] = sum(c // w % (2 * o - 1) % o * w for o, w in self.digits)
        return out


def carry_free_coder(orders: Sequence[int]):
    """(code, red): code(v) is mixed-radix in v reduced, radix 2*o - 1 for
    order o, so a sum of two codes never carries and red[code(x) + code(y)] == code(x + y)."""
    digits, w = [], 1
    for o in reversed(orders):  # last coordinate lowest
        digits.insert(0, (o, w))
        w *= 2 * o - 1
    if w <= DENSE_SUMS:
        red = [0]
        for o, _ in reversed(digits):  # len(red) is the place value
            red = [(d % o) * len(red) + r for d in range(2 * o - 1) for r in red]
    else:
        red = _SumCodes()
        red.digits = digits

    def code(v):
        return sum((x % o) * w for x, (o, w) in zip(v, digits))

    return code, red


def _howell(rows: Iterable[Sequence[int]], width: int, ring: ZModRing, reduce: bool = True):
    """Howell form of a row lattice; returns (rows, pivot_columns).

    Pivot entries are normalized to powers of l, entries above a pivot are
    reduced below it, and the annihilator multiple of each pivot row is kept
    in play so that the span of any zero-prefix is generated by the rows
    with pivots in that range (the Howell property).

    Rows stay reduced in [0, N), so the zero columns of a pivot row change
    nothing and are skipped, and only the rows just updated can vanish.  The
    pivot is the first row of least gcd(x, N) = l^val(x), so the scan stops
    at a unit.  With ``reduce`` false it returns the forward elimination,
    rows as lists, for a caller that back-reduces the rows it reads.
    """
    N = ring.modulus
    work = []
    for r in rows:
        if len(r) != width:
            raise ShapeError(f"row of length {len(r)}, expected {width}")
        rr = [x % N for x in r]
        if any(rr):
            work.append(rr)

    result, pivots = [], []
    for col in range(width):
        if not work:
            break
        # rows in `work` have zeros in all previously pivoted columns
        best, p = -1, N
        for idx, r in enumerate(work):
            x = r[col]
            if x:
                g = math.gcd(x, N)
                if g < p:
                    best, p = idx, g
                    if g == 1:
                        break
        if best < 0:
            continue
        piv = work.pop(best)
        if (u := piv[col] // p) != 1:
            u_inv = pow(u, -1, N)
            piv = [(u_inv * x) % N for x in piv]  # now piv[col] == p
        nz = [(j, piv[j]) for j in range(col, width) if piv[j]]
        kept = []
        for r in work:
            if r[col]:
                q = r[col] // p  # exact: pivot has minimal valuation
                for j, y in nz:
                    r[j] = (r[j] - q * y) % N
                if not any(r):
                    continue
            kept.append(r)
        work = kept
        if p > 1:  # the annihilator multiple of a unit pivot row is zero
            ann = N // p
            extra = [(ann * x) % N for x in piv]
            if any(extra):
                work.append(extra)
        result.append(piv)
        pivots.append(col)
    if not reduce:
        return result, tuple(pivots)
    return tuple(tuple(r) for r in _back_reduce(result, pivots, N)), tuple(pivots)


def _back_reduce(rows: list, pivots: Sequence[int], N: int, lo: int = 0, hi: Optional[int] = None):
    """rows[lo:hi] of a forward elimination, each with the entries above
    every later pivot reduced below it, in place; the other rows are left
    as they are.  Row k reduces the rows above it before any later row
    reduces it, so the rows left out change no other row, and the rows
    returned are those of the Howell form."""
    hi = len(rows) if hi is None else hi
    for k in range(lo + 1, len(rows)):
        row_k, jk = rows[k], pivots[k]
        p = row_k[jk]
        nz = None
        for row_i in rows[lo : min(k, hi)]:
            q = row_i[jk] // p
            if q:
                if nz is None:  # built for a reducer some row above needs
                    nz = [(j, y) for j in range(jk, len(row_k)) if (y := row_k[j])]
                for j, y in nz:
                    row_i[j] = (row_i[j] - q * y) % N
    return rows[lo:hi]


def _reduce(basis, pivots: Sequence[int], vec: Sequence[int], N: int) -> tuple:
    """vec reduced mod N, then against the Howell rows basis in pivot order."""
    v = [x % N for x in vec]
    for row, col in zip(basis, pivots):
        x = v[col]
        if x:
            # leaves v[col] = x mod pivot; a member reduces to zero and
            # every coset has a unique fully reduced representative
            q = x // row[col]
            if q:
                for j in range(col, len(v)):
                    v[j] = (v[j] - q * row[j]) % N
    return tuple(v)


@dataclass(frozen=True)
class Submodule:
    """A submodule of (Z/l^n)^ambient in canonical (Howell) form.

    The basis is the unique Howell generating set of the row span, so two
    Submodules are equal as objects iff they are equal as sets.
    """

    ring: ZModRing
    ambient: int
    basis: tuple
    pivots: tuple

    @classmethod
    def from_generators(cls, ring: ZModRing, ambient: int, rows: Iterable[Sequence[int]]) -> "Submodule":
        basis, pivots = _howell(rows, ambient, ring)
        return cls(ring, ambient, basis, pivots)

    def reduce(self, vec: Sequence[int]) -> tuple:
        """Canonical residual of vec against the basis; zero iff vec is a member."""
        if len(vec) != self.ambient:
            raise ShapeError(f"vector of length {len(vec)}, expected {self.ambient}")
        return _reduce(self.basis, self.pivots, vec, self.ring.modulus)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def __contains__(self, vec) -> bool:
        return self.contains(vec)

    def contains_submodule(self, other: "Submodule") -> bool:
        if self.ring != other.ring or self.ambient != other.ambient:
            raise ShapeError("submodules live in different ambients")
        return all(self.contains(row) for row in other.basis)

    def __add__(self, other: "Submodule") -> "Submodule":
        if self.ring != other.ring or self.ambient != other.ambient:
            raise ShapeError("submodules live in different ambients")
        return Submodule.from_generators(self.ring, self.ambient, self.basis + other.basis)

    def order(self) -> int:
        """Number of elements in the span (a power of l)."""
        N = self.ring.modulus
        out = 1
        for row, col in zip(self.basis, self.pivots):
            out *= N // row[col]
        return out


def torsion_rows(orders: Sequence[int], width: int) -> List[list]:
    """The relations o_i * e_i, rows of length width, for o_i in orders."""
    rows = []
    for i, o in enumerate(orders):
        row = [0] * width
        row[i] = o
        rows.append(row)
    return rows


def torsion_size(sub: Submodule, orders: Sequence[int]) -> int:
    """The group order of a span that holds the torsion rows of orders,
    which make up N / o_i elements in coordinate i, divided out here."""
    return sub.order() // math.prod(sub.ring.modulus // o for o in orders)


def quotient_order(outer: Submodule, inner: Submodule) -> int:
    """The index |outer / inner|, requiring inner to be contained in outer."""
    if not outer.contains_submodule(inner):
        raise ContainmentError("inner submodule is not contained in outer")
    return outer.order() // inner.order()


def _augmented_howell(rows: Sequence[Sequence[int]], width: int, ring: ZModRing):
    """The forward elimination of [rows | I], rows as lists: the one
    factoring of a system, whose caller back-reduces the rows it reads."""
    n = len(rows)
    aug = []
    for i, r in enumerate(rows):
        if len(r) != width:
            raise ShapeError(f"row of length {len(r)}, expected {width}")
        aug.append(list(r) + [1 if j == i else 0 for j in range(n)])
    return _howell(aug, width + n, ring, reduce=False)


def solve_many(
    rows: Sequence[Sequence[int]], targets: Sequence[Sequence[int]], ring: ZModRing
) -> List[Optional[tuple]]:
    """For each target, some x with x * rows = target over Z/l^n, or None
    where there is none; the targets share one length, the width.

    Deterministic: the system is eliminated once, and each (target | 0) is
    reduced against the rows of the augmented Howell form [rows | I] whose
    pivots lie before width, the only rows back-reduced; they are not a
    Howell form of their own span and so no Submodule.  Every row (h | t)
    of that form has t * rows = h, so a solution exists exactly when the
    residual is (0 | -x), and then x * rows = target.
    """
    if not targets:
        return []
    width = len(targets[0])
    basis, pivots = _augmented_howell(rows, width, ring)
    N = ring.modulus
    k = sum(col < width for col in pivots)
    basis, pivots, pad = _back_reduce(basis, pivots, N, hi=k), pivots[:k], [0] * len(rows)
    out = []
    for target in targets:
        if len(target) != width:
            raise ShapeError(f"target of length {len(target)}, expected {width}")
        resid = _reduce(basis, pivots, list(target) + pad, N)
        out.append(None if any(resid[:width]) else tuple(-y % N for y in resid[width:]))
    return out


def solve(rows: Sequence[Sequence[int]], target: Sequence[int], ring: ZModRing) -> Optional[tuple]:
    """Some x with x * rows = target over Z/l^n, or None if there is none:
    ``solve_many`` with the one target."""
    return solve_many(rows, [target], ring)[0]


def kernel(rows: Sequence[Sequence[int]], width: int, ring: ZModRing) -> Submodule:
    """Left kernel {x : x * rows = 0} as a Submodule of (Z/l^n)^len(rows).

    The rows of the augmented Howell form whose pivots lie past width, cut
    to their identity part, are already the Howell form of the kernel; the
    elimination back-reduces only those.
    """
    basis, pivots = _augmented_howell(rows, width, ring)
    k = sum(col < width for col in pivots)  # pivots increase: the kernel rows come last
    tails = tuple(tuple(row[width:]) for row in _back_reduce(basis, pivots, ring.modulus, lo=k))
    return Submodule(ring, len(rows), tails, tuple(col - width for col in pivots[k:]))


def preimage(map_rows: Sequence[Sequence[int]], sub: Submodule, ring: ZModRing) -> Submodule:
    """{x : x * map_rows lies in sub}, with map_rows of shape k x sub.ambient.

    It is the kernel of [map_rows; sub.basis] cut to k coordinates.  The
    kernel rows with pivots before k, cut, are already its Howell form: by
    the Howell property a member with zeros before column j < k lifts to a
    kernel element spanned by the rows with pivots from j on.
    """
    k = len(map_rows)
    stacked = list(map_rows) + [list(r) for r in sub.basis]
    ker = kernel(stacked, sub.ambient, ring)
    n = sum(col < k for col in ker.pivots)  # pivots increase
    return Submodule(ring, k, tuple(row[:k] for row in ker.basis[:n]), ker.pivots[:n])
