"""Exact linear algebra over Z/l^n.

Everything downstream (submodules of class modules, relation solving,
index computations) reduces to row lattices over the local ring Z/l^n.
Because this ring has zero divisors, ordinary echelon forms are neither
canonical nor sufficient for membership tests; the Howell form is both.
The routines here follow the usual recipe: echelonize with minimal-valuation
pivots, re-inject the annihilator multiple of every pivot row, then reduce
entries above each pivot below the pivot's valuation.

Conventions are row-based throughout: vectors are rows, ``solve`` finds
``x`` with ``x * M = v``, and ``kernel`` is the left kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class ModulusMismatchError(ValueError):
    """Raised when values over different rings Z/l^n are combined."""


class ShapeError(ValueError):
    """Raised on inconsistent matrix/vector dimensions."""


class ContainmentError(ValueError):
    """Raised when a quotient is requested for non-nested submodules."""


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

    def reduce(self, x: int) -> int:
        return x % self.modulus

    def val(self, x: int) -> int:
        """l-adic valuation of x mod l^n; val(0) = n by convention."""
        x %= self.modulus
        if x == 0:
            return self.precision
        v = 0
        while x % self.prime == 0:
            x //= self.prime
            v += 1
        return v

    def unit_part(self, x: int) -> int:
        """The unit u with x = u * l^val(x); unit_part(0) = 1."""
        x %= self.modulus
        if x == 0:
            return 1
        while x % self.prime == 0:
            x //= self.prime
        return x

    def is_unit(self, x: int) -> bool:
        return x % self.prime != 0

    def inv(self, x: int) -> int:
        x %= self.modulus
        if not self.is_unit(x):
            raise ZeroDivisionError(f"{x} is not a unit mod {self.modulus}")
        return pow(x, -1, self.modulus)


def _howell(rows: Iterable[Sequence[int]], width: int, ring: ZModRing):
    """Howell form of a row lattice; returns (rows, pivot_columns).

    Pivot entries are normalized to powers of l, entries above a pivot are
    reduced below it, and the annihilator multiple of each pivot row is kept
    in play so that the span of any zero-prefix is generated by the rows
    with pivots in that range (the Howell property).
    """
    N = ring.modulus
    work = []
    for r in rows:
        if len(r) != width:
            raise ShapeError(f"row of length {len(r)}, expected {width}")
        rr = [x % N for x in r]
        if any(rr):
            work.append(rr)

    result: list[list[int]] = []
    pivots: list[int] = []
    for col in range(width):
        # rows in `work` have zeros in all previously pivoted columns
        best = -1
        best_val = ring.precision + 1
        for idx, r in enumerate(work):
            x = r[col]
            if x:
                v = ring.val(x)
                if v < best_val:
                    best_val = v
                    best = idx
        if best < 0:
            continue
        piv = work.pop(best)
        u_inv = ring.inv(ring.unit_part(piv[col]))
        piv = [(u_inv * x) % N for x in piv]
        p = piv[col]  # now exactly l^best_val
        for r in work:
            if r[col]:
                q = r[col] // p  # exact: pivot has minimal valuation
                for j in range(col, width):
                    r[j] = (r[j] - q * piv[j]) % N
        ann = N // p
        if ann > 1:
            extra = [(ann * x) % N for x in piv]
            if any(extra):
                work.append(extra)
        work = [r for r in work if any(r)]
        result.append(piv)
        pivots.append(col)

    # reduce entries above each pivot below the pivot value
    for k in range(len(result)):
        jk = pivots[k]
        p = result[k][jk]
        for i in range(k):
            q = result[i][jk] // p
            if q:
                row_i = result[i]
                row_k = result[k]
                for j in range(jk, width):
                    row_i[j] = (row_i[j] - q * row_k[j]) % N
    return tuple(tuple(r) for r in result), tuple(pivots)


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

    @classmethod
    def zero(cls, ring: ZModRing, ambient: int) -> "Submodule":
        return cls(ring, ambient, (), ())

    def reduce(self, vec: Sequence[int]) -> tuple:
        """Canonical residual of vec against the basis; zero iff vec is a member."""
        if len(vec) != self.ambient:
            raise ShapeError(f"vector of length {len(vec)}, expected {self.ambient}")
        N = self.ring.modulus
        v = [x % N for x in vec]
        for row, col in zip(self.basis, self.pivots):
            x = v[col]
            if x:
                # leaves v[col] = x mod pivot; a member reduces to zero and
                # every coset has a unique fully reduced representative
                q = x // row[col]
                if q:
                    for j in range(col, self.ambient):
                        v[j] = (v[j] - q * row[j]) % N
        return tuple(v)

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

    def is_zero(self) -> bool:
        return not self.basis

    def elements(self):
        """Iterate all span elements (coefficient ranges are exact, no dups)."""
        N = self.ring.modulus
        vec = [0] * self.ambient

        def rec(k: int):
            if k == len(self.basis):
                yield tuple(vec)
                return
            row = self.basis[k]
            col = self.pivots[k]
            reps = N // row[col]
            saved = vec[:]
            for c in range(reps):
                if c:
                    for j in range(col, self.ambient):
                        vec[j] = (saved[j] + c * row[j]) % N
                yield from rec(k + 1)
            vec[:] = saved

        yield from rec(0)


def quotient_order(outer: Submodule, inner: Submodule) -> int:
    """The index |outer / inner|, requiring inner to be contained in outer."""
    if not outer.contains_submodule(inner):
        raise ContainmentError("inner submodule is not contained in outer")
    q, r = divmod(outer.order(), inner.order())
    if r:
        raise InternalInvariantError("the inner order does not divide the outer order")
    return q


def _augmented_howell(rows: Sequence[Sequence[int]], width: int, ring: ZModRing):
    n = len(rows)
    aug = []
    for i, r in enumerate(rows):
        if len(r) != width:
            raise ShapeError(f"row of length {len(r)}, expected {width}")
        aug.append(list(r) + [1 if j == i else 0 for j in range(n)])
    return _howell(aug, width + n, ring)


def solve(rows: Sequence[Sequence[int]], target: Sequence[int], ring: ZModRing) -> Optional[tuple]:
    """Some x with x * rows = target over Z/l^n, or None if there is none.

    Deterministic: the particular solution comes from greedy reduction of
    the target against the augmented Howell form in pivot order.
    """
    width = len(target)
    if rows and any(len(r) != width for r in rows):
        raise ShapeError("matrix width does not match target length")
    basis, pivots = _augmented_howell(rows, width, ring)
    N = ring.modulus
    resid = [x % N for x in target]
    x = [0] * len(rows)
    for row, col in zip(basis, pivots):
        if col >= width:
            break  # remaining rows have zero matrix part
        e = resid[col]
        if e:
            p = row[col]
            if e % p != 0:
                return None
            q = e // p
            for j in range(col, width):
                resid[j] = (resid[j] - q * row[j]) % N
            for j in range(len(rows)):
                x[j] = (x[j] + q * row[width + j]) % N
    if any(resid):
        return None
    # defensive: the returned solution must verify exactly
    for j in range(width):
        if sum(x[i] * rows[i][j] for i in range(len(rows))) % N != target[j] % N:
            raise InternalInvariantError(f"solution fails the equations at column {j}")
    return tuple(x)


def kernel(rows: Sequence[Sequence[int]], width: int, ring: ZModRing) -> Submodule:
    """Left kernel {x : x * rows = 0} as a Submodule of (Z/l^n)^len(rows)."""
    basis, pivots = _augmented_howell(rows, width, ring)
    gens = [row[width:] for row, col in zip(basis, pivots) if col >= width]
    return Submodule.from_generators(ring, len(rows), gens)


def preimage(map_rows: Sequence[Sequence[int]], sub: Submodule, ring: ZModRing) -> Submodule:
    """{x : x * map_rows lies in sub}, with map_rows of shape k x sub.ambient."""
    k = len(map_rows)
    stacked = list(map_rows) + [list(r) for r in sub.basis]
    ker = kernel(stacked, sub.ambient, ring)
    gens = [row[:k] for row in ker.basis]
    return Submodule.from_generators(ring, k, gens)
