"""Finite abelian l-groups, their group rings over Z/l^n, and determinants
over those rings.

Group elements are exponent vectors against a fixed decomposition into
cyclic factors; the lexicographic order on those vectors is the canonical
iteration order used everywhere (coefficient maps, coordinatizations,
report output), so results are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from typing import Dict, Sequence, Tuple

from .lattice import ModulusMismatchError, ShapeError, ZModRing, _is_prime, mat_mul

GElt = Tuple[int, ...]


# Validation walks every triple of group elements: at this order
# `logcap validate` takes about 0.25 s on a 2-core machine, most of it
# start-up, and each doubling of the order costs eight times as much.
MAX_GROUP_ORDER = 32


class GroupSizeError(RuntimeError):
    """Raised, before any element is enumerated, for a group order above
    ``MAX_GROUP_ORDER``."""


class AbelianLGroup:
    """Direct product of cyclic groups of l-power orders."""

    __slots__ = ("prime", "orders", "_elements")

    def __init__(self, prime: int, orders: Sequence[int]):
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        check_l_powers(prime, orders, "cyclic factor")
        self.prime = prime
        self.orders = tuple(int(o) for o in orders)
        if self.size() > MAX_GROUP_ORDER:
            raise GroupSizeError(
                f"group order {self.size()} exceeds the limit {MAX_GROUP_ORDER}"
            )
        self._elements = tuple(itertools.product(*(range(o) for o in self.orders)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AbelianLGroup)
            and self.prime == other.prime
            and self.orders == other.orders
        )

    def __hash__(self) -> int:
        return hash((self.prime, self.orders))

    def __repr__(self) -> str:
        return f"AbelianLGroup({self.prime}, {self.orders})"

    @property
    def rank(self) -> int:
        return len(self.orders)

    def size(self) -> int:
        out = 1
        for o in self.orders:
            out *= o
        return out

    def identity(self) -> GElt:
        return (0,) * len(self.orders)

    def elements(self) -> Tuple[GElt, ...]:
        return self._elements

    def nonidentity(self) -> Tuple[GElt, ...]:
        return self._elements[1:]

    def generators(self) -> Tuple[GElt, ...]:
        return tuple(
            tuple(1 if j == i else 0 for j in range(len(self.orders)))
            for i in range(len(self.orders))
        )

    def mul(self, a: GElt, b: GElt) -> GElt:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def product_indices(self) -> Tuple[Dict[GElt, int], list]:
        """(index, table): the position of each element in elements(), and
        table[i][j] the position of the product of elements i and j."""
        idx = {g: i for i, g in enumerate(self._elements)}
        return idx, [[idx[self.mul(x, y)] for y in self._elements] for x in self._elements]

    def inv(self, a: GElt) -> GElt:
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def contains(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == len(self.orders)
            and all(isinstance(x, int) and 0 <= x < o for x, o in zip(a, self.orders))
        )

    def matrices(self, gen_mats: Sequence, orders: Sequence[int]) -> Dict[GElt, tuple]:
        """The matrix tau_1^k_1 ... tau_s^k_s of every element (k_1, ..., k_s),
        multiplied in generator order from the generator matrices gen_mats,
        column j reduced mod orders[j]."""
        d = len(orders)
        out = {}
        for g in self._elements:
            k = max((i for i, x in enumerate(g) if x), default=None)
            if k is None:
                out[g] = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
                continue
            prev = out[g[:k] + (g[k] - 1,) + g[k + 1 :]]
            out[g] = mat_mul(prev, gen_mats[k], orders)
        return out


def check_l_powers(prime: int, orders: Sequence[int], what: str) -> None:
    """Raise ValueError naming ``what`` unless every order is a positive
    power of ``prime``."""
    for o in orders:
        k = o
        while k > 1 and k % prime == 0:
            k //= prime
        if o < prime or k != 1:
            raise ValueError(f"{what} order {o} is not a positive power of {prime}")


class GroupRingElt:
    """An element of (Z/l^n)[G]; absent coefficients are zero.

    Membership is checked where data enters: the public constructor
    rejects a key that is not an element of G.  Arithmetic takes its keys
    from its operands or from ``group.mul``, so its results stay inside G
    by construction and are built by ``_of``, which only reduces the
    coefficients.
    """

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group: AbelianLGroup, ring: ZModRing, coeffs: Dict[GElt, int] | None = None):
        if group.prime != ring.prime:
            raise ModulusMismatchError("group and coefficient ring use different primes")
        coeffs = coeffs or {}
        for g in coeffs:
            if not group.contains(g):
                raise ValueError(f"{g} is not an element of {group}")
        self._set(group, ring, coeffs)

    def _set(self, group: AbelianLGroup, ring: ZModRing, coeffs: Dict[GElt, int]) -> None:
        N = ring.modulus
        self.group = group
        self.ring = ring
        self.coeffs = {g: r for g, c in coeffs.items() if (r := c % N)}

    @classmethod
    def _of(cls, group: AbelianLGroup, ring: ZModRing, coeffs: Dict[GElt, int]) -> "GroupRingElt":
        """The element with these coefficients, whose keys are elements of
        G by construction: no membership check."""
        out = cls.__new__(cls)
        out._set(group, ring, coeffs)
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, group: AbelianLGroup, ring: ZModRing) -> "GroupRingElt":
        return cls(group, ring, {})

    @classmethod
    def one(cls, group: AbelianLGroup, ring: ZModRing) -> "GroupRingElt":
        return cls(group, ring, {group.identity(): 1})

    @classmethod
    def scalar(cls, group: AbelianLGroup, ring: ZModRing, c: int) -> "GroupRingElt":
        return cls(group, ring, {group.identity(): c})

    # -- ring structure -----------------------------------------------

    def _check(self, other: "GroupRingElt") -> None:
        if self.group != other.group or self.ring != other.ring:
            raise ModulusMismatchError("group ring elements over different (G, l, n)")

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return GroupRingElt._of(self.group, self.ring, out)

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        self._check(other)
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) - c
        return GroupRingElt._of(self.group, self.ring, out)

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt._of(self.group, self.ring, {g: -c for g, c in self.coeffs.items()})

    def __mul__(self, other: "GroupRingElt") -> "GroupRingElt":
        self._check(other)
        out: Dict[GElt, int] = {}
        mul = self.group.mul
        for g, c in self.coeffs.items():
            for h, d in other.coeffs.items():
                k = mul(g, h)
                out[k] = out.get(k, 0) + c * d
        return GroupRingElt._of(self.group, self.ring, out)

    def scale(self, c: int) -> "GroupRingElt":
        return GroupRingElt._of(self.group, self.ring, {g: c * v for g, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElt)
            and self.group == other.group
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.group, self.ring, tuple(sorted(self.coeffs.items()))))

    def coefficient(self, g: GElt) -> int:
        return self.coeffs.get(g, 0)

    def augmentation(self) -> int:
        """Sum of coefficients: the degree map of the group algebra."""
        return sum(self.coeffs.values()) % self.ring.modulus

    def items(self):
        """Coefficients in the canonical element order (zero entries skipped)."""
        for g in self.group.elements():
            c = self.coeffs.get(g, 0)
            if c:
                yield g, c

    def to_dict(self) -> dict:
        """The nonzero coefficients keyed by "g_1,...,g_s", sorted by element;
        the serialization of reports and certificate hashes."""
        return {",".join(map(str, g)): c for g, c in sorted(self.coeffs.items())}

    def trace_multiple(self):
        """If self = c * (sum of all group elements), return c, else None."""
        vals = {self.coeffs.get(g, 0) for g in self.group.elements()}
        if len(vals) == 1:
            return vals.pop()
        return None

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"{c}*{g}" for g, c in self.items()]
        return " + ".join(parts)


def trace_element(group: AbelianLGroup, ring: ZModRing) -> GroupRingElt:
    """The full trace: coefficient 1 on every group element."""
    return GroupRingElt._of(group, ring, {g: 1 for g in group.elements()})


def det_ring(m: Sequence[Sequence]):
    """Determinant over a commutative ring: the last row dotted with its
    cofactor_row, a Laplace expansion memoized on column sets.  Entries,
    GroupRingElt or any other, need only +, unary - and *; fraction-free
    elimination is not an option, since the ring has zero divisors."""
    s = len(m)
    for row in m:
        if len(row) != s:
            raise ShapeError("determinant of a non-square matrix")
    if s == 0:
        raise ShapeError("cannot infer the ring of an empty matrix; use a 1x1 or larger")
    if s == 1:
        return m[0][0]
    terms = [x * c for x, c in zip(m[-1], cofactor_row(m[:-1]))]
    return sum(terms[1:], terms[0])


def cofactor_row(rows: Sequence[Sequence]) -> list:
    """The signed minors C_j along a last row placed below the s - 1 >= 1
    given rows of length s: sum_j last[j] * C_j is the determinant.  The
    Laplace expansion down the rows is memoized on column sets: the minor
    of the first k rows on the columns S comes from those of the first
    k - 1 rows on S minus one column.  Entries need only +, unary - and *."""
    s = len(rows) + 1
    minors = {(j,): x for j, x in enumerate(rows[0])}
    for k, row in enumerate(rows[1:], 2):
        level = {}
        for cols in itertools.combinations(range(s), k):
            terms = [row[j] * minors[cols[:p] + cols[p + 1 :]] for p, j in enumerate(cols)]
            terms = [-t if (k - 1 + p) % 2 else t for p, t in enumerate(terms)]
            level[cols] = sum(terms[1:], terms[0])
        minors = level
    last = [minors[tuple(c for c in range(s) if c != j)] for j in range(s)]
    return [-d if (s - 1 + j) % 2 else d for j, d in enumerate(last)]
