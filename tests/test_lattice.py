import itertools
import random

import pytest

from logcap import lattice, resolvent, verifier
from logcap.forge import ComponentSpec, SearchParams, _Shape, build_corpus
from logcap.instance import load_instance
from logcap.lattice import (
    ContainmentError,
    ShapeError,
    Submodule,
    ZModRing,
    _is_prime,
    carry_free_coder,
    kernel,
    mat_mul,
    preimage,
    quotient_order,
    solve,
    vec_mat,
)
from tests.conftest import corpus_paths, span_elements
from tests.test_forge import _solve_triple_by_triple

Z8 = ZModRing(2, 3)
Z4 = ZModRing(2, 2)
Z9 = ZModRing(3, 2)
Z27 = ZModRing(3, 3)


def span_brute(rows, ring):
    """Independent oracle: enumerate every coefficient combination."""
    width = len(rows[0]) if rows else 0
    out = set()
    for coeffs in itertools.product(range(ring.modulus), repeat=len(rows)):
        v = tuple(
            sum(c * r[j] for c, r in zip(coeffs, rows)) % ring.modulus
            for j in range(width)
        )
        out.add(v)
    return out


def val(x, ring):
    """l-adic valuation of x mod l^n by repeated division; val(0) = n."""
    x %= ring.modulus
    if x == 0:
        return ring.precision
    v = 0
    while x % ring.prime == 0:
        x, v = x // ring.prime, v + 1
    return v


def unit_inverse(x, ring):
    """The inverse mod l^n of the unit u with x = u * l^val(x), x nonzero."""
    return pow(x % ring.modulus // ring.prime ** val(x, ring), -1, ring.modulus)


def augmented_howell(rows, width, ring):
    """The Howell form of [rows | I] with every row back-reduced."""
    n = len(rows)
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    return lattice._howell(aug, width + n, ring)


def test_normal_form_identity_already_canonical():
    sub = Submodule.from_generators(Z8, 2, [[1, 0], [0, 1]])
    assert sub.basis == ((1, 0), (0, 1))


def test_normal_form_zero_matrix():
    assert Submodule.from_generators(Z8, 2, [[0, 0], [0, 0]]).basis == ()


def test_normal_form_redundant_row():
    # {(2,0),(0,4),(2,4)} spans the same set as {(2,0),(0,4)}
    a = [[2, 0], [0, 4], [2, 4]]
    b = [[2, 0], [0, 4]]
    assert span_brute(a, Z8) == span_brute(b, Z8)
    assert Submodule.from_generators(Z8, 2, a) == Submodule.from_generators(Z8, 2, b)


def test_normal_form_idempotent():
    sub = Submodule.from_generators(Z8, 3, [[2, 1, 0], [0, 4, 6], [4, 4, 4]])
    again = Submodule.from_generators(Z8, 3, sub.basis)
    assert sub == again


@pytest.mark.parametrize("ring", [Z8, Z4, Z9])
def test_canonicity_equal_spans_give_identical_bases(ring):
    rnd = random.Random(1234 + ring.modulus)
    for _ in range(40):
        rows = [
            [rnd.randrange(ring.modulus) for _ in range(3)] for _ in range(rnd.randint(1, 3))
        ]
        # second generating set: random row combinations plus shuffled originals
        mixed = []
        for _ in range(len(rows) + 1):
            coeffs = [rnd.randrange(ring.modulus) for _ in rows]
            mixed.append(
                [
                    sum(c * r[j] for c, r in zip(coeffs, rows)) % ring.modulus
                    for j in range(3)
                ]
            )
        mixed += [list(r) for r in rows]
        rnd.shuffle(mixed)
        # mixed contains the originals, so span(rows) <= span(mixed); the
        # brute set certifies the other inclusion combination by combination
        reference = span_brute(rows, ring)
        for row in mixed:
            assert tuple(row) in reference
        nf1 = Submodule.from_generators(ring, 3, rows)
        nf2 = Submodule.from_generators(ring, 3, mixed)
        assert nf1.basis == nf2.basis
        assert nf1.pivots == nf2.pivots


@pytest.mark.parametrize("ring", [Z8, Z9])
def test_membership_matches_span_enumeration(ring):
    rnd = random.Random(77)
    for _ in range(20):
        rows = [[rnd.randrange(ring.modulus) for _ in range(2)] for _ in range(2)]
        sub = Submodule.from_generators(ring, 2, rows)
        spanned = span_brute(rows, ring)
        for v in itertools.product(range(ring.modulus), repeat=2):
            assert (v in sub) == (v in spanned)


def test_order_counts_span_elements():
    rnd = random.Random(5)
    for _ in range(25):
        rows = [[rnd.randrange(8) for _ in range(2)] for _ in range(2)]
        sub = Submodule.from_generators(Z8, 2, rows)
        assert sub.order() == len(span_brute(rows, Z8))
        assert set(span_elements(sub)) == span_brute(rows, Z8)


def test_solve_identity():
    assert solve([[1, 0], [0, 1]], [3, 5], Z8) == (3, 5)


def test_solve_two_x_equals_four_mod_eight():
    # exhaustive scan: 2x = 4 mod 8 has solutions {2, 6}
    scan = {x for x in range(8) if (2 * x) % 8 == 4}
    assert scan == {2, 6}
    x = solve([[2]], [4], Z8)
    assert x is not None and x[0] in scan


def test_solve_unit_target_unreachable():
    assert solve([[2]], [1], Z8) is None


@pytest.mark.parametrize("ring", [Z8, Z9, Z4, Z27])
def test_solve_agrees_with_exhaustive_scan(ring):
    rnd = random.Random(99)
    for _ in range(30):
        nrows = rnd.randint(1, 2)
        rows = [[rnd.randrange(ring.modulus) for _ in range(2)] for _ in range(nrows)]
        target = tuple(rnd.randrange(ring.modulus) for _ in range(2))
        brute = None
        for coeffs in itertools.product(range(ring.modulus), repeat=nrows):
            got = tuple(
                sum(c * r[j] for c, r in zip(coeffs, rows)) % ring.modulus for j in range(2)
            )
            if got == target:
                brute = coeffs
                break
        x = solve(rows, target, ring)
        if brute is None:
            assert x is None
        else:
            assert x is not None
            for j in range(2):
                assert sum(c * r[j] for c, r in zip(x, rows)) % ring.modulus == target[j]


def test_products_reduce_each_coordinate_by_its_order():
    # sparse and zero vectors included: vec_mat skips zero coefficients
    rng = random.Random(3)
    for _ in range(200):
        d = rng.randrange(1, 4)
        orders = [rng.choice([1, 2, 4, 8]) for _ in range(d)]
        a = [[rng.choice([0, 0, rng.randrange(-9, 9)]) for _ in range(d)] for _ in range(d)]
        b = [[rng.randrange(-9, 9) for _ in range(d)] for _ in range(d)]
        want = tuple(
            tuple(sum(a[i][r] * b[r][j] for r in range(d)) % orders[j] for j in range(d))
            for i in range(d)
        )
        assert mat_mul(a, b, orders) == want
        assert all(vec_mat(row, b, orders) == w for row, w in zip(a, want))


def test_quotient_order_equal_modules():
    sub = Submodule.from_generators(Z8, 1, [[1]])
    assert quotient_order(sub, sub) == 1


def test_quotient_order_index_two():
    outer = Submodule.from_generators(Z8, 1, [[1]])
    inner = Submodule.from_generators(Z8, 1, [[2]])
    assert quotient_order(outer, inner) == 2


def test_quotient_order_rank_two_by_cosets():
    outer = Submodule.from_generators(Z4, 2, [[1, 0], [0, 1]])
    inner = Submodule.from_generators(Z4, 2, [[2, 0]])
    # coset enumeration oracle: 16 elements fall into cosets of a 2-element module
    elems = set(itertools.product(range(4), repeat=2))
    inner_set = span_brute([[2, 0]], Z4)
    cosets = set()
    while elems:
        v = min(elems)
        coset = frozenset(tuple((a + b) % 4 for a, b in zip(v, w)) for w in inner_set)
        cosets.add(coset)
        elems -= coset
    assert len(cosets) == 8
    assert quotient_order(outer, inner) == 8


def test_quotient_order_containment_error():
    outer = Submodule.from_generators(Z8, 1, [[2]])
    inner = Submodule.from_generators(Z8, 1, [[1]])
    with pytest.raises(ContainmentError):
        quotient_order(outer, inner)


def test_quotient_order_times_inner_is_outer(monkeypatch):
    rnd = random.Random(3)
    for ring in (Z8, Z9, Z27):
        N = ring.modulus
        for _ in range(25):
            rows_inner = [[rnd.randrange(N) * ring.prime for _ in range(2)]]
            rows_outer = rows_inner + [[rnd.randrange(N) for _ in range(2)]]
            outer = Submodule.from_generators(ring, 2, rows_outer)
            inner = Submodule.from_generators(ring, 2, rows_inner)
            assert quotient_order(outer, inner) * inner.order() == outer.order()

    # and on every index a bound-0 corpus pass takes
    calls = []

    def checked(outer, inner):
        q = quotient_order(outer, inner)
        assert q * inner.order() == outer.order()
        calls.append(q)
        return q

    monkeypatch.setattr(resolvent, "quotient_order", checked)
    monkeypatch.setattr(verifier, "quotient_order", checked)
    for path in corpus_paths():
        verifier.run_all(load_instance(path), oracle_bound=0)
    # Frame.ambiguous_index and V7, once each per instance
    assert len(calls) == 2 * len(corpus_paths())


def test_kernel_annihilates():
    rnd = random.Random(12)
    for _ in range(20):
        rows = [[rnd.randrange(8) for _ in range(3)] for _ in range(3)]
        ker = kernel(rows, 3, Z8)
        for kv in ker.basis:
            for j in range(3):
                assert sum(c * rows[i][j] for i, c in enumerate(kv)) % 8 == 0
        # completeness against brute force
        brute = {
            coeffs
            for coeffs in itertools.product(range(8), repeat=3)
            if all(
                sum(c * rows[i][j] for i, c in enumerate(coeffs)) % 8 == 0 for j in range(3)
            )
        }
        assert set(span_elements(ker)) == brute


def test_preimage_matches_brute_force():
    rnd = random.Random(21)
    for _ in range(15):
        w = [[rnd.randrange(8) for _ in range(2)] for _ in range(2)]
        sub = Submodule.from_generators(Z8, 2, [[rnd.randrange(8), rnd.randrange(8)]])
        pre = preimage(w, sub, Z8)
        for x in itertools.product(range(8), repeat=2):
            img = tuple(sum(c * w[i][j] for i, c in enumerate(x)) % 8 for j in range(2))
            assert (x in pre) == (img in sub)


def test_a_row_of_the_wrong_length_raises_shape_error():
    with pytest.raises(ShapeError):
        solve([[1, 0], [1]], [1, 0], Z8)
    with pytest.raises(ShapeError):
        solve([[1, 0, 0]], [1, 0], Z8)
    with pytest.raises(ShapeError):
        kernel([[1, 2], [3, 4, 5]], 2, Z8)
    with pytest.raises(ShapeError):
        Submodule.from_generators(Z8, 3, [[1, 0, 0], [0, 1]])
    with pytest.raises(ShapeError):
        Submodule.from_generators(Z8, 2, [[0, 0, 0]])  # a zero row is checked too
    sub = Submodule.from_generators(Z8, 2, [[2, 0]])
    with pytest.raises(ShapeError):
        sub.reduce([1, 0, 0])


# -- Howell form, kernel and preimage pinned to enumeration over Z/4 .. Z/27 -----

ENUMERATED = pytest.mark.parametrize("ring", [Z4, Z8, Z9, Z27], ids=lambda r: f"Z{r.modulus}")


def random_rows(rnd, ring, nrows, width):
    return [[rnd.randrange(ring.modulus) for _ in range(width)] for _ in range(nrows)]


def times(x, rows, ring):
    """The row vector x * rows over the ring."""
    return tuple(
        sum(c * r[j] for c, r in zip(x, rows)) % ring.modulus for j in range(len(rows[0]))
    )


@ENUMERATED
def test_howell_form_is_canonical_by_enumeration(ring):
    rnd = random.Random(400 + ring.modulus)
    N, width = ring.modulus, 3
    for trial in range(30):
        rows = random_rows(rnd, ring, rnd.randint(1, 2), width)
        if trial % 2:  # the same span: unit multiples plus a multiple of the other row
            units = [rnd.choice([1, N - 1, 1 + ring.prime]) for _ in rows]
            other = [[(u * x) % N for x in r] for u, r in zip(units, rows)]
            if len(other) == 2:
                c = rnd.randrange(N)
                other[0] = [(x + c * y) % N for x, y in zip(other[0], other[1])]
            rnd.shuffle(other)
        else:
            other = random_rows(rnd, ring, rnd.randint(1, 2), width)
        spanned = span_brute(rows, ring)
        sub = Submodule.from_generators(ring, width, rows)
        assert (sub.basis == Submodule.from_generators(ring, width, other).basis) == (
            spanned == span_brute(other, ring)
        )
        assert set(span_elements(sub)) == spanned and sub.order() == len(spanned)
        # Howell shape: l-power pivots, zeros before them, entries above them reduced
        assert list(sub.pivots) == sorted(set(sub.pivots))
        for k, (row, col) in enumerate(zip(sub.basis, sub.pivots)):
            assert not any(row[:col]) and row[col] == ring.prime ** val(row[col], ring)
            assert all(sub.basis[i][col] < row[col] for i in range(k))
        # Howell property: the members vanishing on the first k coordinates
        # are spanned by the basis rows with pivots at k or later
        for k in range(width + 1):
            tail = [r for r, col in zip(sub.basis, sub.pivots) if col >= k]
            expect = span_brute(tail, ring) if tail else {(0,) * width}
            assert {v for v in spanned if not any(v[:k])} == expect


@ENUMERATED
def test_kernel_matches_enumeration(ring):
    rnd = random.Random(600 + ring.modulus)
    for _ in range(20):
        nrows = rnd.randint(1, 3 if ring.modulus < 27 else 2)
        rows = random_rows(rnd, ring, nrows, 2)
        ker = kernel(rows, 2, ring)
        assert ker == Submodule.from_generators(ring, nrows, ker.basis)
        brute = {
            x
            for x in itertools.product(range(ring.modulus), repeat=nrows)
            if not any(times(x, rows, ring))
        }
        assert set(span_elements(ker)) == brute


@ENUMERATED
def test_preimage_matches_enumeration(ring):
    rnd = random.Random(700 + ring.modulus)
    for _ in range(20):
        rows = random_rows(rnd, ring, 2, 2)
        sub_rows = random_rows(rnd, ring, rnd.randint(0, 1), 2)
        sub = Submodule.from_generators(ring, 2, sub_rows)
        members = span_brute(sub_rows, ring) if sub_rows else {(0, 0)}
        brute = {
            x
            for x in itertools.product(range(ring.modulus), repeat=2)
            if times(x, rows, ring) in members
        }
        assert set(span_elements(preimage(rows, sub, ring))) == brute


# -- preimage pinned to the Howell form of its cut kernel rows --------------------


def preimage_by_howell(map_rows, sub, ring):
    """The preimage as it was computed before: every kernel row cut to k
    coordinates, then brought to Howell form again."""
    k = len(map_rows)
    ker = kernel(list(map_rows) + [list(r) for r in sub.basis], sub.ambient, ring)
    return Submodule.from_generators(ring, k, [row[:k] for row in ker.basis])


def sparse_rows(rnd, ring, nrows, width):
    """Random rows with many zeros and many multiples of l."""
    choices = [0, 0, 1, ring.prime, ring.prime**2 % ring.modulus]
    return [
        [rnd.choice(choices) * rnd.randrange(1, ring.modulus) % ring.modulus for _ in range(width)]
        for _ in range(nrows)
    ]


@pytest.mark.parametrize(
    "ring", [ZModRing(p, k) for p, ks in ((2, range(1, 7)), (3, range(1, 5))) for k in ks], ids=repr
)
def test_preimage_is_the_howell_form_of_the_cut_kernel(ring):
    rnd = random.Random(800 + ring.modulus)
    for trial in range(40):
        rows_of = sparse_rows if trial % 2 else random_rows
        k, width = rnd.randint(1, 5), rnd.randint(1, 4)
        map_rows = rows_of(rnd, ring, k, width)
        sub = Submodule.from_generators(ring, width, rows_of(rnd, ring, rnd.randint(0, 3), width))
        assert preimage(map_rows, sub, ring) == preimage_by_howell(map_rows, sub, ring)


def test_preimage_is_the_howell_form_of_the_cut_kernel_on_a_corpus_pass(monkeypatch):
    calls = []

    def checked(map_rows, sub, ring):
        got = preimage(map_rows, sub, ring)
        assert got == preimage_by_howell(map_rows, sub, ring)
        calls.append(got)
        return got

    monkeypatch.setattr(resolvent, "preimage", checked)
    monkeypatch.setattr(verifier, "preimage", checked)
    for path in corpus_paths():
        verifier.run_all(load_instance(path), oracle_bound=0)
    assert len(calls) == 2 * len(corpus_paths())


def test_kernel_is_the_cut_tail_of_the_full_howell_form_on_builds_and_a_corpus_pass(
    tmp_path, monkeypatch
):
    """kernel back-reduces only the rows it returns.  Each answer is the
    rows of the fully reduced Howell form of [rows | I] with pivots past
    the width, cut to the identity part, on the factor-set kernels of two
    sampled builds (up to 27 x 36 and 64 x 136), on a bound-0 corpus pass,
    and on the all-triples system of a sampled torsion action of each
    build (27 x 90 and 64 x 520, past every howell_cases shape)."""
    shapes = []

    def checked(rows, width, ring):
        got = kernel(rows, width, ring)
        basis, pivots = augmented_howell(rows, width, ring)
        k = sum(col < width for col in pivots)
        assert got.basis == tuple(row[width:] for row in basis[k:])
        assert got.pivots == tuple(col - width for col in pivots[k:])
        shapes.append((len(rows), width))
        return got

    monkeypatch.setattr(lattice, "kernel", checked)
    builds = [  # the sampled components (Z/4) x (2,2,2) and (Z/3)^2 x (3,) of the corpus
        (SearchParams(2, 4, ((4,),), ((2, 2, 2),), seed=2024), (4,), (2, 2, 2)),
        (SearchParams(3, 3, ((3, 3),), ((3,),), seed=307), (3, 3), (3,)),
    ]
    for i, (params, g_orders, atilde_orders) in enumerate(builds):
        comp = ComponentSpec(g_orders, atilde_orders, "sample", 2)
        assert build_corpus(params, [comp], tmp_path / str(i))["components"][0]["count"] == 2
    built = len(shapes)
    for path in corpus_paths():
        verifier.run_all(load_instance(path), oracle_bound=0)
    assert {(27, 36), (64, 136)} <= set(shapes[:built])
    assert len(shapes) - built == 2 * len(corpus_paths())
    passed = len(shapes)
    for i, (params, g_orders, atilde_orders) in enumerate(builds):
        action = load_instance(min((tmp_path / str(i)).glob("p*.json"))).action
        _solve_triple_by_triple(_Shape(params, g_orders, atilde_orders).space(action))
    assert {(27, 90), (64, 520)} <= set(shapes[passed:])


def test_is_prime_matches_trial_division_and_rejects_strong_pseudoprimes():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-2, 5000) if _is_prime(n)] == [
        n for n in range(-2, 5000) if trial(n)
    ]
    # strong pseudoprimes to every prime base up to 7, 23 and 37 in turn
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and _is_prime(2**31 - 1)
    with pytest.raises(ValueError):
        _is_prime(2**89 - 1)


@pytest.mark.parametrize("table", ["list", "dict"])
@pytest.mark.parametrize("orders", [(), (2,), (4, 2), (2, 2, 2), (3, 9), (2, 16)], ids=str)
def test_carry_free_coder(orders, table, monkeypatch):
    if table == "dict":  # the table that reduces sums as they are looked up
        monkeypatch.setattr(lattice, "DENSE_SUMS", 0)
    code, red = carry_free_coder(orders)
    assert isinstance(red, list) == (table == "list")
    reduced = list(itertools.product(*(range(o) for o in orders)))
    codes = [code(v) for v in reduced]
    assert len(set(codes)) == len(reduced)
    for x in reduced:
        for y in reduced:
            assert red[code(x) + code(y)] == code([a + b for a, b in zip(x, y)])
    rnd = random.Random(len(orders))
    for v in reduced:
        shifted = [a + o * rnd.randint(-3, 3) for a, o in zip(v, orders)]
        assert code(shifted) == code(v)


@pytest.mark.parametrize("orders", [(2**40,), (2,) * 30, (3, 3**30)], ids=["2^40", "2x30", "3,3^30"])
def test_carry_free_coder_on_large_orders_keeps_only_the_sums_looked_up(orders):
    code, red = carry_free_coder(orders)
    rnd = random.Random(len(orders))
    for _ in range(200):
        x, y = ([rnd.randrange(o) for o in orders] for _ in range(2))
        assert red[code(x) + code(y)] == code([a + b for a, b in zip(x, y)])
    assert isinstance(red, dict) and len(red) <= 200


# -- the Howell kernel pinned to the dense elimination it replaced -------------


def dense_howell(rows, width, ring):
    """Reference: the Howell elimination that updates every column from the
    pivot to the end of the row and filters the whole work list each step."""
    N = ring.modulus
    work = []
    for r in rows:
        rr = [x % N for x in r]
        if any(rr):
            work.append(rr)
    result, pivots = [], []
    for col in range(width):
        best, best_val = -1, ring.precision + 1
        for idx, r in enumerate(work):
            if r[col] and val(r[col], ring) < best_val:
                best_val, best = val(r[col], ring), idx
        if best < 0:
            continue
        piv = work.pop(best)
        u_inv = unit_inverse(piv[col], ring)
        piv = [(u_inv * x) % N for x in piv]
        p = piv[col]
        for r in work:
            if r[col]:
                q = r[col] // p
                for j in range(col, width):
                    r[j] = (r[j] - q * piv[j]) % N
        if N // p > 1:
            extra = [(N // p * x) % N for x in piv]
            if any(extra):
                work.append(extra)
        work = [r for r in work if any(r)]
        result.append(piv)
        pivots.append(col)
    for k in range(len(result)):
        jk = pivots[k]
        p = result[k][jk]
        for i in range(k):
            q = result[i][jk] // p
            for j in range(jk, width):
                result[i][j] = (result[i][j] - q * result[k][j]) % N
    return tuple(tuple(r) for r in result), tuple(pivots)


def howell_cases(rnd, ring):
    """Seeded (rows, width) pairs: dense, sparse, augmented [rows | I], map rows
    over the diagonal torsion rows o_i e_i, and duplicate, zero, unreduced and
    negative rows."""
    N = ring.modulus
    orders = [ring.prime**k for k in range(1, ring.precision + 1)]

    def sparse(nrows, width, density):
        return [
            [rnd.randrange(N) if rnd.random() < density else 0 for _ in range(width)]
            for _ in range(nrows)
        ]

    for _ in range(12):
        width = rnd.randint(1, 10)
        yield random_rows(rnd, ring, rnd.randint(1, 8), width), width
    for _ in range(12):
        width = rnd.randint(5, 40)
        yield sparse(rnd.randint(1, 20), width, rnd.choice([0.05, 0.15, 0.3])), width
    for _ in range(8):
        nrows, width = rnd.randint(1, 12), rnd.randint(1, 20)
        rows = sparse(nrows, width, 0.2)
        yield [r + [int(i == j) for j in range(nrows)] for i, r in enumerate(rows)], width + nrows
    for _ in range(8):  # the preimage of torsion relations, as the factor-set search builds it
        nvars, width = rnd.randint(2, 14), rnd.randint(2, 24)
        stacked = sparse(nvars, width, 0.15) + [
            [rnd.choice(orders) if j == i else 0 for j in range(width)] for i in range(width)
        ]
        n = len(stacked)
        yield [r + [int(i == j) for j in range(n)] for i, r in enumerate(stacked)], width + n
    for _ in range(8):
        width = rnd.randint(1, 12)
        rows = [[rnd.randrange(-3 * N, 3 * N) for _ in range(width)] for _ in range(rnd.randint(1, 6))]
        rows += [list(r) for r in rows] + [[0] * width, [N * rnd.randint(-2, 2)] * width]
        rnd.shuffle(rows)
        yield rows, width


@pytest.mark.parametrize(
    "ring", [Z8, ZModRing(2, 4), Z9, Z27, ZModRing(5, 2)], ids=lambda r: f"Z{r.modulus}"
)
def test_howell_matches_the_dense_elimination(ring):
    rnd = random.Random(900 + ring.modulus)
    for rows, width in howell_cases(rnd, ring):
        assert lattice._howell(rows, width, ring) == dense_howell(rows, width, ring)


# -- solve and reduce pinned to the pivot loop solve used to carry -------------

SOLVE_RINGS = pytest.mark.parametrize(
    "ring", [Z8, ZModRing(2, 4), Z9, Z27, ZModRing(5, 2)], ids=lambda r: f"Z{r.modulus}"
)


def pivot_loop_solve(rows, target, ring):
    """Reference: solve's own loop over the augmented Howell form, which
    subtracts each pivot row from the target and adds its identity part to x."""
    width = len(target)
    basis, pivots = augmented_howell(rows, width, ring)
    N = ring.modulus
    resid = [x % N for x in target]
    x = [0] * len(rows)
    for row, col in zip(basis, pivots):
        if col >= width:
            break
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
    return tuple(x)


def solve_systems(rnd, ring):
    """Seeded row lists: tall, wide, with zero, duplicate, unreduced and
    negative rows, and sparse rows followed by torsion rows as the
    certificate stacks them."""
    N = ring.modulus
    orders = [ring.prime**k for k in range(1, ring.precision + 1)]
    for _ in range(10):
        width = rnd.randint(1, 4)
        yield random_rows(rnd, ring, rnd.randint(width + 1, width + 6), width)
    for _ in range(10):
        width = rnd.randint(3, 10)
        yield random_rows(rnd, ring, rnd.randint(1, width - 1), width)
    for _ in range(8):
        width = rnd.randint(1, 6)
        nrows = rnd.randint(1, 4)
        rows = [[rnd.randrange(-3 * N, 3 * N) for _ in range(width)] for _ in range(nrows)]
        rows += [list(r) for r in rows[:2]] + [[0] * width]
        rnd.shuffle(rows)
        yield rows
    for _ in range(8):
        width = rnd.randint(2, 12)
        rows = [
            [rnd.randrange(N) if rnd.random() < 0.3 else 0 for _ in range(width)]
            for _ in range(rnd.randint(1, 10))
        ]
        yield rows + lattice.torsion_rows([rnd.choice(orders) for _ in range(width)], width)


def checked_solve(rows, target, ring):
    """solve's answer, once every row (h | t) of the augmented Howell form
    of [rows | I] is seen to have t * rows = h, and the answer x to have
    x * rows = target."""
    width = len(target)
    basis, _ = augmented_howell(rows, width, ring)
    for row in basis:
        assert times(row[width:], rows, ring) == row[:width]
    x = solve(rows, target, ring)
    if x is not None:
        assert times(x, rows, ring) == tuple(y % ring.modulus for y in target)
    return x


def checked_solve_many(rows, targets, ring):
    """solve_many's answers, once each is seen to be checked_solve's answer
    for its target alone, in order."""
    xs = lattice.solve_many(rows, targets, ring)
    assert xs == [checked_solve(rows, target, ring) for target in targets]
    return xs


@SOLVE_RINGS
def test_solve_matches_the_pivot_loop(ring):
    rnd = random.Random(1100 + ring.modulus)
    found = missed = 0
    for rows in solve_systems(rnd, ring):
        width = len(rows[0])
        x = [rnd.randrange(ring.modulus) for _ in rows]
        targets = [times(x, rows, ring)]
        N = ring.modulus
        targets += [[rnd.randrange(-N, N) for _ in range(width)] for _ in range(3)]
        answers = []
        for target in targets:
            got = checked_solve(rows, target, ring)
            assert got == pivot_loop_solve(rows, target, ring)
            found += got is not None
            missed += got is None
            answers.append(got)
        # one factoring for every target, feasible and infeasible mixed
        assert checked_solve_many(rows, targets, ring) == answers
    assert found and missed


def test_solve_answers_the_system_on_a_corpus_pass(monkeypatch):
    answers = []

    def checked(rows, target, ring):
        x = checked_solve(rows, target, ring)
        answers.append(x)
        return x

    def checked_many(rows, targets, ring):
        xs = checked_solve_many(rows, targets, ring)
        answers.extend(xs)
        return xs

    monkeypatch.setattr(resolvent, "solve", checked)
    monkeypatch.setattr(resolvent, "solve_many", checked_many)
    insts = [load_instance(path) for path in corpus_paths()]
    for inst in insts:
        verifier.run_all(inst, oracle_bound=0)
    # one answer per row of M and one per row of N, each a solution
    assert len(answers) == sum(2 * inst.group.rank for inst in insts) == 172
    assert None not in answers


@SOLVE_RINGS
def test_reduce_is_constant_on_cosets_and_below_each_pivot(ring):
    rnd = random.Random(1200 + ring.modulus)
    N = ring.modulus
    for rows in solve_systems(rnd, ring):
        width = len(rows[0])
        sub = Submodule.from_generators(ring, width, rows)
        for _ in range(4):
            v = [rnd.randrange(-N, N) for _ in range(width)]
            m = times([rnd.randrange(N) for _ in rows], rows, ring)
            resid = sub.reduce(v)
            assert sub.reduce([a + b for a, b in zip(v, m)]) == resid
            assert not any(sub.reduce(m))
            assert all(resid[col] < row[col] for row, col in zip(sub.basis, sub.pivots))
