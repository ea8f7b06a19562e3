import functools
import itertools
import math
import operator
import random

import pytest

from logcap.groupring import (
    AbelianLGroup,
    GroupRingElt,
    cofactor_row,
    det_ring,
    trace_element,
)
from logcap.lattice import ModulusMismatchError, ShapeError, ZModRing
from tests.dual import OmegaRingElt, dual_matrix

Z8 = ZModRing(2, 3)
C2 = AbelianLGroup(2, [2])


def elt(coeffs, group=C2, ring=Z8):
    return GroupRingElt(group, ring, coeffs)


def test_tau_minus_one_squared():
    tau = (1,)
    one = (0,)
    x = elt({tau: 1, one: -1})
    sq = x * x
    # (tau - 1)^2 = tau^2 - 2 tau + 1 = 2 - 2 tau
    assert sq == elt({one: 2, tau: -2})


def test_one_plus_tau_times_tau_minus_one():
    tau = (1,)
    one = (0,)
    assert not (elt({one: 1, tau: 1}) * elt({tau: 1, one: -1})).coeffs


def test_omega_squared_is_zero():
    w = OmegaRingElt(GroupRingElt.zero(C2, Z8), GroupRingElt.one(C2, Z8))
    assert (w * w) == OmegaRingElt(GroupRingElt.zero(C2, Z8), GroupRingElt.zero(C2, Z8))


def test_omega_ring_multiplication_rule():
    a = elt({(0,): 1, (1,): 2})
    b = elt({(1,): 3})
    c = elt({(0,): 5})
    d = elt({(1,): 1, (0,): 1})
    lhs = OmegaRingElt(a, b) * OmegaRingElt(c, d)
    assert lhs.r0 == a * c
    assert lhs.r1 == a * d + b * c


def test_augmentation_of_trace_is_group_order():
    for prime, orders in [(2, [2]), (2, [4]), (2, [2, 2]), (3, [3, 3])]:
        g = AbelianLGroup(prime, orders)
        ring = ZModRing(prime, 4)
        tr = trace_element(g, ring)
        assert tr.augmentation() == g.size() % ring.modulus


def test_augmentation_examples():
    assert elt({(1,): 1, (0,): -1}).augmentation() == 0
    assert elt({(0,): 3, (1,): 2}).augmentation() == 5


def test_augmentation_is_ring_hom():
    rnd = random.Random(42)
    g = AbelianLGroup(2, [2, 2])
    ring = ZModRing(2, 3)
    for _ in range(30):
        x = GroupRingElt(g, ring, {e: rnd.randrange(8) for e in g.elements()})
        y = GroupRingElt(g, ring, {e: rnd.randrange(8) for e in g.elements()})
        assert (x + y).augmentation() == (x.augmentation() + y.augmentation()) % 8
        assert (x * y).augmentation() == (x.augmentation() * y.augmentation()) % 8


def test_trace_element_trivial_group():
    g = AbelianLGroup(2, [])
    tr = trace_element(g, Z8)
    assert tr == GroupRingElt.one(g, Z8)


def test_trace_element_c2():
    tr = trace_element(C2, Z8)
    assert tr == elt({(0,): 1, (1,): 1})


def test_trace_annihilates_augmentation_ideal():
    for orders in [[2], [4], [2, 2]]:
        g = AbelianLGroup(2, orders)
        tr = trace_element(g, Z8)
        for sigma in g.nonidentity():
            x = GroupRingElt(g, Z8, {sigma: 1, g.identity(): -1})
            assert not (tr * x).coeffs


def test_mixed_group_or_ring_rejected():
    with pytest.raises(ModulusMismatchError):
        elt({(0,): 1}) + GroupRingElt(C2, ZModRing(2, 2), {(0,): 1})
    with pytest.raises(ModulusMismatchError):
        elt({(0,): 1}) + GroupRingElt(AbelianLGroup(2, [4]), Z8, {(0,): 1})


@pytest.mark.parametrize("key", [(2,), (-1,), (0, 0), (), "0"])
def test_public_constructor_rejects_a_key_outside_the_group(key):
    """Membership is checked where data enters; arithmetic builds its
    results without the check."""
    with pytest.raises(ValueError, match="is not an element of"):
        GroupRingElt(C2, Z8, {key: 1})


def test_det_of_scalar_diagonal_is_product_of_orders():
    g = AbelianLGroup(2, [2, 4])
    ring = ZModRing(2, 4)
    m = [
        [GroupRingElt.scalar(g, ring, 2), GroupRingElt.zero(g, ring)],
        [GroupRingElt.zero(g, ring), GroupRingElt.scalar(g, ring, 4)],
    ]
    d = det_ring(m)
    assert d.augmentation() == 8 % ring.modulus  # product of cyclic orders = |G|


def test_det_omega_matrix_with_zero_n_part():
    a = elt({(0,): 1, (1,): 1})
    b = elt({(1,): 2})
    zero = GroupRingElt.zero(C2, Z8)
    m = [
        [OmegaRingElt(a, zero), OmegaRingElt(b, zero)],
        [OmegaRingElt(b, zero), OmegaRingElt(a, zero)],
    ]
    d = det_ring(m)
    assert d.r0 == a * a - b * b
    assert not d.r1.coeffs


def _det_permutation_sum(m):
    """Independent determinant oracle: signed sum over permutations."""
    s = len(m)
    acc = None
    for perm in itertools.permutations(range(s)):
        sign = 1
        seen = [False] * s
        for start in range(s):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = None
        for i in range(s):
            term = m[i][perm[i]] if term is None else term * m[i][perm[i]]
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


# (G, coefficient ring) pairs; the cases over Z/2 and Z/8 are named by size alone
_DET_RINGS = [
    ("", (2, [2]), (2, 3)),
    ("C3-Z9-", (3, [3]), (3, 2)),
    ("C2xC2-Z4-", (2, [2, 2]), (2, 2)),
]


_DET_CASES = [
    pytest.param(size, group_args, ring_args, id=f"{name}{size}")
    for name, group_args, ring_args in _DET_RINGS
    for size in (1, 2, 3, 4)
]


# size 5 is the rank of G = (Z/2)^5, the largest the group-order limit admits
@pytest.mark.parametrize(
    "size, group_args, ring_args", _DET_CASES + [pytest.param(5, (2, [2]), (2, 3), id="5")]
)
def test_det_cofactor_matches_permutation_sum(size, group_args, ring_args):
    rnd = random.Random(size)
    g = AbelianLGroup(*group_args)
    ring = ZModRing(*ring_args)
    n = ring.modulus
    for _ in range(6):
        m = [
            [
                OmegaRingElt(
                    GroupRingElt(g, ring, {e: rnd.randrange(n) for e in g.elements()}),
                    GroupRingElt(g, ring, {e: rnd.randrange(n) for e in g.elements()}),
                )
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        assert det_ring(m) == _det_permutation_sum(m)


@pytest.mark.parametrize("size, group_args, ring_args", _DET_CASES)
def test_dual_determinant_w_part_is_a_sum_of_row_replacements(size, group_args, ring_args):
    """det(M - wN) = det M - w * sum_i det(M with row i replaced by N_i):
    the determinant is linear in each row, and w^2 = 0."""
    rnd = random.Random(100 + size)
    g = AbelianLGroup(*group_args)
    ring = ZModRing(*ring_args)

    def matrix():
        return [
            [
                GroupRingElt(g, ring, {e: rnd.randrange(ring.modulus) for e in g.elements()})
                for _ in range(size)
            ]
            for _ in range(size)
        ]

    for _ in range(6):
        m, n = matrix(), matrix()
        d = det_ring(dual_matrix(m, n))
        replaced = [det_ring(m[:i] + [n[i]] + m[i + 1 :]) for i in range(size)]
        assert d.r0 == det_ring(m)
        assert d.r1 == -functools.reduce(operator.add, replaced)


def _dot(row, cof):
    return functools.reduce(operator.add, (x * c for x, c in zip(row, cof)))


@pytest.mark.parametrize("omega", [False, True], ids=["groupring", "omega"])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_cofactor_row_expands_along_a_last_row(size, omega):
    """sum_j last[j] * C_j is the determinant, and every given row pairs
    with the cofactors to zero (a matrix with a repeated row)."""
    rnd = random.Random(50 + size)
    g, ring = AbelianLGroup(2, [2, 2]), ZModRing(2, 3)

    def entry():
        r0 = GroupRingElt(g, ring, {e: rnd.randrange(8) for e in g.elements()})
        if not omega:
            return r0
        return OmegaRingElt(r0, GroupRingElt(g, ring, {e: rnd.randrange(8) for e in g.elements()}))

    zero = GroupRingElt.zero(g, ring)
    if omega:
        zero = OmegaRingElt(zero, zero)
    for _ in range(3):
        m = [[entry() for _ in range(size)] for _ in range(size)]
        rows, last = m[:-1], m[-1]
        cof = cofactor_row(rows)
        assert _dot(last, cof) == det_ring(m)
        for row in rows:
            assert _dot(row, cof) == zero


def test_det_ring_rejects_a_non_square_or_empty_matrix():
    one = GroupRingElt.one(C2, Z8)
    for m in ([[one, one]], []):
        with pytest.raises(ShapeError):
            det_ring(m)


def test_augmentation_commutes_with_det():
    rnd = random.Random(404)
    g = AbelianLGroup(2, [2, 2])
    ring = ZModRing(2, 3)
    for _ in range(10):
        m = [
            [
                GroupRingElt(g, ring, {e: rnd.randrange(8) for e in g.elements()})
                for _ in range(2)
            ]
            for _ in range(2)
        ]
        d = det_ring(m)
        plain = (
            m[0][0].augmentation() * m[1][1].augmentation()
            - m[0][1].augmentation() * m[1][0].augmentation()
        ) % 8
        assert d.augmentation() == plain


@pytest.mark.parametrize(
    "orders,precision",
    [([2], 2), ([2], 3), ([4], 2), ([4], 3), ([2, 2], 2), ([2, 2], 3)],
)
def test_annihilator_of_augmentation_ideal_is_trace_line(orders, precision):
    """x * I_G = 0 exactly for the scalar multiples of the full trace."""
    g = AbelianLGroup(2, orders)
    ring = ZModRing(2, precision)
    one = g.identity()
    basis = [GroupRingElt(g, ring, {h: 1, one: -1}) for h in g.nonidentity()]
    tr = trace_element(g, ring)
    trace_line = {tuple(sorted(tr.scale(c).coeffs.items())) for c in range(ring.modulus)}
    count = 0
    for coeffs in itertools.product(range(ring.modulus), repeat=g.size()):
        x = GroupRingElt(g, ring, dict(zip(g.elements(), coeffs)))
        kills = all(not (x * b).coeffs for b in basis)
        in_line = tuple(sorted(x.coeffs.items())) in trace_line
        assert kills == in_line
        count += 1
    assert count == ring.modulus ** g.size()


def _groups_up_to(prime, bound):
    """Every AbelianLGroup of order at most bound: each ordered tuple of
    cyclic orders, powers of prime above 1, with product at most bound."""
    out, level = [], [()]
    while level:
        out += [AbelianLGroup(prime, orders) for orders in level]
        level = [
            o + (q,)
            for o in level
            for q in (prime**k for k in range(1, bound.bit_length()))
            if math.prod(o) * q <= bound
        ]
    return out


@pytest.mark.parametrize("prime", [2, 3, 5])
def test_product_indices_and_inv_are_an_abelian_group_law(prime):
    """The oracle reads G only through product_indices and inv: it takes
    index 0 as the identity, rt = tr and (t^-1)t = 1 without checking."""
    groups = _groups_up_to(prime, 32)
    assert len(groups) == {2: 32, 3: 8, 5: 4}[prime]
    for group in groups:
        elts = group.elements()
        idx, table = group.product_indices()
        inv = [idx[group.inv(g)] for g in elts]
        n = range(len(elts))
        assert [idx[g] for g in elts] == list(n) and idx[group.identity()] == 0
        assert all(table[0][x] == table[x][0] == x for x in n)
        assert all(table[x][y] == table[y][x] for x in n for y in n)
        assert all(table[x][inv[x]] == table[inv[x]][x] == 0 for x in n)
        assert all(table[table[x][y]][z] == table[x][table[y][z]] for x in n for y in n for z in n)



# -- ring laws on random elements ------------------------------------------------

LAW_CASES = [
    (2, 2, [2]),
    (2, 2, [4]),
    (2, 2, [2, 2]),
    (3, 2, [3]),
    (3, 2, [9]),
    (3, 3, [3]),
    (3, 3, [9]),
]
LAW_IDS = [f"Z{p ** n}-G{'x'.join(map(str, o))}" for p, n, o in LAW_CASES]


def random_elt(rng, group, ring):
    return GroupRingElt(group, ring, {g: rng.randrange(ring.modulus) for g in group.elements()})


@pytest.mark.parametrize("prime,precision,orders", LAW_CASES, ids=LAW_IDS)
def test_group_ring_laws_on_random_elements(rng, prime, precision, orders):
    group, ring = AbelianLGroup(prime, orders), ZModRing(prime, precision)
    one = GroupRingElt.one(group, ring)
    for _ in range(25):
        x, y, z = (random_elt(rng, group, ring) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert x * one == x and x - x == GroupRingElt.zero(group, ring)


@pytest.mark.parametrize("prime,precision,orders", LAW_CASES, ids=LAW_IDS)
def test_omega_ring_laws_on_random_elements(rng, prime, precision, orders):
    group, ring = AbelianLGroup(prime, orders), ZModRing(prime, precision)
    zero = GroupRingElt.zero(group, ring)
    w = OmegaRingElt(zero, GroupRingElt.one(group, ring))
    assert w * w == OmegaRingElt(zero, zero)
    for _ in range(15):
        x, y, z = (
            OmegaRingElt(random_elt(rng, group, ring), random_elt(rng, group, ring))
            for _ in range(3)
        )
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        # w kills the w-part: (w x)(w y) = w^2 x y = 0
        assert (w * x) * (w * y) == OmegaRingElt(zero, zero)


@pytest.mark.parametrize("prime,precision,orders", LAW_CASES, ids=LAW_IDS)
def test_trace_annihilates_augmentation_ideal_on_random_elements(rng, prime, precision, orders):
    group, ring = AbelianLGroup(prime, orders), ZModRing(prime, precision)
    tr = trace_element(group, ring)
    one = group.identity()
    for sigma in group.nonidentity():
        assert not (tr * GroupRingElt(group, ring, {sigma: 1, one: -1})).coeffs
    for _ in range(25):
        x = random_elt(rng, group, ring)
        # Tr x = aug(x) Tr, so Tr kills exactly the augmentation-zero part
        assert tr * x == tr.scale(x.augmentation())
        x_in_ig = x - GroupRingElt.scalar(group, ring, x.augmentation())
        assert x_in_ig.augmentation() == 0 and not (tr * x_in_ig).coeffs
