import random
from collections import Counter
from dataclasses import replace

import pytest

from logcap import lattice, resolvent
from logcap.extension import u_order
from logcap.groupring import GroupRingElt, cofactor_row, det_ring, trace_element
from logcap.instance import build_instance, load_instance
from logcap.lattice import InternalInvariantError, Submodule, quotient_order
from logcap.resolvent import (
    CertificateError,
    InfeasibleRelationError,
    PrecisionModelError,
    RelationCertificate,
    _verify_certificate,
    delta,
    omega_act,
    relation_matrices,
    star_act,
    trace,
)
from logcap.verifier import CHECK_IDS, run_all, run_check
from tests import census
from tests.census import v1_corruptions
from tests.conftest import CORPUS, FIXTURES, corpus_paths
from tests.dual import OmegaRingElt, dual_matrix


def ring_elt(inst, coeffs):
    return GroupRingElt(inst.group, inst.ring, coeffs)


def random_ring_elt(inst, rnd):
    return ring_elt(
        inst, {g: rnd.randrange(inst.ring.modulus) for g in inst.group.elements()}
    )


def random_b_elt(inst, rnd):
    return tuple(rnd.randrange(o) for o in inst.frame.b_orders)


def tau_minus_one(inst, tau):
    return inst.frame.unit(inst.frame.tau_coord(tau))


def add(inst, *vecs):
    return inst.frame.b_reduce([sum(xs) for xs in zip(*vecs)])


# -- the star action -----------------------------------------------------------


def test_star_on_module_part_is_module_action(e1):
    out = star_act(e1, ring_elt(e1, {(1,): 1}), (1, 1, 0))
    assert out[:2] == e1.act((1,), (1, 1)) and out[2:] == (0,)


def test_star_e1_tau_on_tau_minus_one(e1):
    out = star_act(e1, ring_elt(e1, {(1,): 1}), tau_minus_one(e1, (1,)))
    # tau * (tau - 1) = a_{tau,tau} + (1 - 1) - (tau - 1) = -(tau - 1)
    assert out == (0, 0, 7)


def test_star_identity_fixes_everything(e1, rng):
    one = GroupRingElt.one(e1.group, e1.ring)
    for _ in range(10):
        b = random_b_elt(e1, rng)
        assert star_act(e1, one, b) == b


@pytest.mark.parametrize("fixture", ["e1", "inst33"])
def test_star_action_is_associative(fixture, rng, request):
    inst = request.getfixturevalue(fixture)
    for _ in range(12):
        x = random_ring_elt(inst, rng)
        y = random_ring_elt(inst, rng)
        b = random_b_elt(inst, rng)
        assert star_act(inst, x * y, b) == star_act(inst, x, star_act(inst, y, b))


# -- the omega operator -----------------------------------------------------------


def test_omega_kills_module_part(e1, rng):
    for _ in range(5):
        a = tuple(rng.randrange(o) for o in e1.frame.orders)
        assert not any(omega_act(e1, a + (0,)))


def test_omega_e1_on_tau_minus_one(e1):
    assert omega_act(e1, tau_minus_one(e1, (1,))) == (1, 0, 0)


@pytest.mark.parametrize("fixture", ["e1", "inst33", "trivial_atilde"])
def test_omega_squared_is_zero(fixture, rng, request):
    inst = request.getfixturevalue(fixture)
    for _ in range(10):
        b = random_b_elt(inst, rng)
        assert not any(omega_act(inst, omega_act(inst, b)))


def test_omega_squared_is_zero_on_every_census_input():
    """Valid or not: the rows of w are zero on A and lie in A elsewhere, so
    w^2 = 0 wherever w builds (gamma off degree 1 stops it)."""
    built = 0
    for _, _, inst in census.inputs():
        try:
            rows = inst.frame.omega
        except InternalInvariantError:
            continue
        assert not any(any(omega_act(inst, row)) for row in rows)
        built += 1
    assert built > len(census.inputs()) // 2


def test_star_sum_has_zero_ig_columns_on_every_census_input():
    """Valid or not: row (tau - 1) of star[sigma] holds (sigma tau - 1) -
    (sigma - 1) in the (tau - 1) columns, and sigma -> sigma tau permutes
    G, so the sum of the star matrices is zero there; its A columns are
    the trace matrix, which sums only those."""
    for _, _, inst in census.inputs():
        frame = inst.frame
        d, N = inst.dim_a, inst.ring.modulus
        total = [
            [sum(m[k][j] for m in frame.star.values()) % N for j in range(frame.dim_b)]
            for k in range(frame.dim_b)
        ]
        assert not any(any(row[d:]) for row in total)
        assert tuple(inst.a_reduce(row[:d]) for row in total) == frame.trace_matrix


def factor_set_by_pairs(inst):
    """f(s, t) in A, as it was looked up before: the stored torsion value
    of the pair, or zero, embedded on each call."""
    table = {(s, t): v for s, t, v in inst.cocycle}
    return lambda s, t: inst.atilde_embed(table.get((s, t), (0,) * inst.torsion_rank))


def star_by_unit_vectors(inst):
    """Frame.star as it was computed before: the A rows by inst.act on unit
    vectors, the factor-set rows pair by pair, every entry reduced mod l^n."""
    frame, group, N, d = inst.frame, inst.group, inst.ring.modulus, inst.dim_a
    f = factor_set_by_pairs(inst)
    zeros = (0,) * len(frame.nonid_index)
    out = {}
    for sigma in group.elements():
        rows = [inst.act(sigma, tuple(int(i == j) for j in range(d))) + zeros for i in range(d)]
        for tau in group.nonidentity():
            lam = frame.lam_vec(((group.mul(sigma, tau), 1), (sigma, -1)))
            rows.append(f(sigma, tau) + lam)
        out[sigma] = tuple(tuple(x % N for x in r) for r in rows)
    return out


def offsets_by_all_pairs(inst):
    """Frame.offsets as it was computed before: c(tau) summed over every g."""
    group, f = inst.group, factor_set_by_pairs(inst)
    out = {}
    for tau in group.elements():
        c = inst.a_zero()
        for g in group.elements():
            c = inst.a_add(c, inst.act(group.inv(group.mul(tau, g)), f(tau, g)))
        out[tau] = c
    return out


def boundary_by_index_loops(inst):
    """Frame.boundary as it was computed before, over i < j of the generators."""
    ggens, f = inst.group.generators(), factor_set_by_pairs(inst)
    gens = []
    for i in range(len(ggens)):
        for j in range(i + 1, len(ggens)):
            gens.append(inst.a_sub(f(ggens[i], ggens[j]), f(ggens[j], ggens[i])))
    return inst.span_a(gens)


def generated_by_interleaved_rows(inst):
    """Frame.generated as it was computed before: each star row of a b_j,
    reduced, followed by its w-image; the error text where it raises."""
    frame = inst.frame
    gens = []
    try:
        for tau_i in inst.group.generators():
            k = frame.tau_coord(tau_i)
            for g in inst.group.elements():
                moved = frame.b_reduce(frame.star[g][k])
                gens += [frame.bt_vec(moved), frame.bt_vec(omega_act(inst, moved))]
    except InternalInvariantError as e:
        return str(e)
    return frame.span(gens, frame.dim_bt).order() == inst.ring.modulus**frame.dim_bt


def test_factor_set_readers_equal_the_pair_by_pair_formulas(e1, inst33, rank3, rank5):
    """Star, offsets, boundary and generation read the factor set from the
    frame's one table in A, and star its A rows from the action matrices:
    on the fixtures, the samples and every census input (corpus bases
    included), valid or not, they equal the formulas that looked each pair
    up and embedded it on every call."""
    insts = [e1, inst33, rank3, rank5] + [inst for _, _, inst in census.inputs()]
    for inst in insts:
        frame = inst.frame
        assert frame.star == star_by_unit_vectors(inst)
        assert frame.offsets == offsets_by_all_pairs(inst)
        assert frame.boundary == boundary_by_index_loops(inst)
        try:
            generated = frame.generated
        except InternalInvariantError as e:
            generated = str(e)
        assert generated == generated_by_interleaved_rows(inst)
    assert len(insts) > 500


def test_derived_is_the_degree_zero_derived_plus_ig_gamma_on_every_census_input():
    """Valid or not: the generators of U' are those of U_t' and the
    (1 - tau_k) * gamma, and I_G * gamma holds every (1 - tau) * gamma, so
    U' = U_t' + I_G * gamma; the expansion gamma(I - PQ) = gamma(I - P) +
    (gamma P)(I - Q) puts the other terms of I_G * gamma in U' as well."""
    for _, _, inst in census.inputs():
        frame = inst.frame
        assert frame.derived == frame.derived_degree_zero + frame.ig_gamma


def test_omega_commutes_with_star(e1, inst33, rng):
    for inst in (e1, inst33):
        for _ in range(10):
            x = random_ring_elt(inst, rng)
            b = random_b_elt(inst, rng)
            assert omega_act(inst, star_act(inst, x, b)) == star_act(
                inst, x, omega_act(inst, b)
            )


def test_omega_ring_action(e1, rng):
    def act(x, b):  # r0 + w*r1 acts as r0 * b + w(r1 * b)
        return add(e1, star_act(e1, x.r0, b), omega_act(e1, star_act(e1, x.r1, b)))

    w = OmegaRingElt(GroupRingElt.zero(e1.group, e1.ring), GroupRingElt.one(e1.group, e1.ring))
    for _ in range(5):
        b = random_b_elt(e1, rng)
        assert act(w, b) == omega_act(e1, b)
        assert not any(act(w * w, b))


# -- the trace ---------------------------------------------------------------------


def test_trace_e1_examples(e1):
    assert trace(e1, tau_minus_one(e1, (1,))) == (0, 0)
    assert trace(e1, (0, 1, 0)) == (1, 2)


def test_trace_is_norm_on_torsion_with_trivial_action(inst33):
    # the (3,3) fixture acts trivially on its torsion: Tr(a) = |G| a = 0
    alpha = inst33.atilde_embed((1,))
    size = inst33.group.size()
    assert trace(inst33, alpha + (0,) * 8) == inst33.a_reduce([size * x for x in alpha])


@pytest.mark.parametrize("fixture", ["e1", "inst33", "rank3"])
def test_trace_matrix_is_the_star_action_of_the_trace(fixture, request):
    inst = request.getfixturevalue(fixture)
    frame = inst.frame
    tr = trace_element(inst.group, inst.ring)
    for k in range(frame.dim_b):
        e_k = frame.unit(k)
        via_star = star_act(inst, tr, e_k)
        assert frame.trace_matrix[k] == via_star[: inst.dim_a]
        assert not any(via_star[inst.dim_a :])


# -- distinguished submodules --------------------------------------------------------


def test_ig_star_b_trivial_group():
    inst = build_instance(2, 2, [], [], [], {})
    assert inst.frame.ig_b == Submodule.from_generators(inst.ring, 1, [])


def test_ig_star_b_e1_explicit(e1):
    # I_G * B = torsion + 2 I_G: (tau-1)*gamma = -alpha, (tau-1)*(tau-1) = -2(tau-1)
    expected = e1.frame.span([[1, 0, 0], [0, 0, 2]], e1.frame.dim_b)
    assert e1.frame.ig_b == expected


@pytest.mark.parametrize("fixture", ["e1", "inst33", "trivial_atilde"])
def test_index_of_ig_b_in_degree_zero_is_group_order(fixture, request):
    inst = request.getfixturevalue(fixture)
    frame = inst.frame
    b_tilde = frame.span([frame.unit(k) for k in frame.bt_index], frame.dim_b)
    assert quotient_order(b_tilde, frame.ig_b) == inst.group.size()


def test_ig_b_decomposes_through_degree_zero_part(e1, inst33):
    for inst in (e1, inst33):
        frame = inst.frame
        t = inst.torsion_rank
        # I_G * B-tilde, embedded in B: a zero gamma coordinate after the torsion
        ig_bt = frame.span([row[:t] + (0,) + row[t:] for row in frame.ig_bt.basis], frame.dim_b)
        gamma_part = frame.span(
            [row + (0,) * (inst.group.size() - 1) for row in frame.ig_gamma.basis], frame.dim_b
        )
        assert frame.ig_b == ig_bt + gamma_part


@pytest.mark.parametrize("fixture", ["e1", "inst33"])
def test_index_modulo_ig_bt_plus_omega_bt_is_group_order(fixture, request):
    inst = request.getfixturevalue(fixture)
    frame = inst.frame
    bt_units = [frame.unit(k) for k in frame.bt_index]
    omega_rows = [omega_act(inst, b) for b in bt_units]
    ig_bt_gens = []
    for tau in inst.group.generators():
        x = ring_elt(inst, {tau: 1, inst.group.identity(): -1})
        for b in bt_units:
            ig_bt_gens.append(star_act(inst, x, b))
    denom = frame.span(omega_rows + ig_bt_gens, frame.dim_b)
    b_tilde = frame.span(bt_units, frame.dim_b)
    assert quotient_order(b_tilde, denom) == inst.group.size()


def test_lambda_generation_holds_on_fixtures(e1, inst33, trivial_atilde):
    for inst in (e1, inst33, trivial_atilde):
        assert inst.frame.generated


# -- relation certificates --------------------------------------------------------------


def test_e1_certificate_matches_hand_computation(e1):
    cert = relation_matrices(e1)
    tau, one = (1,), (0,)
    assert cert.m_matrix[0][0] == ring_elt(e1, {one: 1, tau: 1})
    assert not cert.n_matrix[0][0].coeffs
    assert cert.lam_matrix[0][0] == ring_elt(e1, {one: 1, tau: 1})
    assert not cert.mu_vector[0].coeffs


def test_certificate_determinism(e1, inst33):
    for inst in (e1, inst33):
        c1 = relation_matrices(inst)
        c2 = relation_matrices(inst)
        assert c1 == c2
        assert c1.content_hash == c2.content_hash


def test_certificate_augmentation_pattern(inst33):
    cert = relation_matrices(inst33)
    s = cert.size()
    for i in range(s):
        for j in range(s):
            want = inst33.group.orders[i] if i == j else 0
            assert cert.m_matrix[i][j].augmentation() == want % inst33.ring.modulus
            assert cert.lam_matrix[i][j].augmentation() == want % inst33.ring.modulus


@pytest.mark.parametrize(
    "field,form",
    [("m_matrix", "omega"), ("n_matrix", "omega"), ("lam_matrix", "gamma"), ("mu_vector", "gamma")],
)
@pytest.mark.parametrize(
    "path", [FIXTURES / "e1.json", CORPUS / "l3" / "p3_n3_G3x3_A3_000.json"], ids=["e1", "G3x3_A3"]
)
def test_certificate_check_reads_only_the_certificate(path, field, form):
    """Adding the identity to the first entry of M, N, Lambda or mu breaks
    row 0 of its form, and the substitution check, given only the instance
    and the certificate, names that form and row."""
    inst = load_instance(path)
    cert = relation_matrices(inst)
    b = [inst.frame.tau_coord(tau) for tau in inst.group.generators()]
    _verify_certificate(inst, cert, b)
    one = GroupRingElt.one(inst.group, inst.ring)
    value = getattr(cert, field)
    if field == "mu_vector":
        changed = (value[0] + one,) + value[1:]
    else:
        changed = ((value[0][0] + one,) + value[0][1:],) + value[1:]
    with pytest.raises(CertificateError, match=f"nonzero residual in {form}-form row 0"):
        _verify_certificate(inst, replace(cert, **{field: changed}), b)


def test_a_lambda_row_apart_from_m_is_checked_on_its_own(rank3):
    """Where a row of Lambda differs from the row of M, the gamma form is
    checked with Lambda's own product: a wrong row names its index, with M
    and the omega form left intact."""
    cert = relation_matrices(rank3)
    b = [rank3.frame.tau_coord(tau) for tau in rank3.group.generators()]
    one = GroupRingElt.one(rank3.group, rank3.ring)
    for i in range(cert.size()):
        row = cert.lam_matrix[i][:-1] + (cert.lam_matrix[i][-1] + one,)
        lam = cert.lam_matrix[:i] + (row,) + cert.lam_matrix[i + 1 :]
        assert lam[i] != cert.m_matrix[i]
        with pytest.raises(CertificateError, match=f"nonzero residual in gamma-form row {i}"):
            _verify_certificate(rank3, replace(cert, lam_matrix=lam), b)


def test_certificate_residuals_verify_by_substitution(inst33):
    cert = relation_matrices(inst33)
    gens = inst33.group.generators()
    b = [tau_minus_one(inst33, t) for t in gens]
    zero = GroupRingElt.zero(inst33.group, inst33.ring)

    def minus(v):
        return tuple(-x for x in v)

    for i in range(cert.size()):
        o_i = inst33.group.orders[i]
        terms = [tuple(o_i * x for x in b[i])]
        for j in range(cert.size()):
            diag = GroupRingElt.scalar(inst33.group, inst33.ring, o_i) if i == j else zero
            mu_ij = diag - cert.m_matrix[i][j]
            terms.append(minus(star_act(inst33, mu_ij, b[j])))
            terms.append(minus(omega_act(inst33, star_act(inst33, cert.n_matrix[i][j], b[j]))))
        assert not any(add(inst33, *terms))
        # gamma form: o_i b_i = sum lam_ij * b_j + mu_i * gamma
        terms = [tuple(o_i * x for x in b[i])]
        for j in range(cert.size()):
            diag = GroupRingElt.scalar(inst33.group, inst33.ring, o_i) if i == j else zero
            lam_ij = diag - cert.lam_matrix[i][j]
            terms.append(minus(star_act(inst33, lam_ij, b[j])))
        gamma = inst33.gamma() + (0,) * 8
        terms.append(minus(star_act(inst33, cert.mu_vector[i], gamma)))
        assert not any(add(inst33, *terms))


def test_certificate_dets_equal_trace(e1, inst33):
    for inst in (e1, inst33):
        cert = relation_matrices(inst)
        tr = trace_element(inst.group, inst.ring)
        assert det_ring(cert.m_matrix) == tr and det_ring(cert.lam_matrix) == tr


def test_delta_e1_is_zero(e1):
    cert = relation_matrices(e1)
    assert not delta(e1, cert).coeffs


def test_delta_rejects_scaled_certificate(e1):
    # det M = 5 * Tr arises from the relation 2 b = 3(tau-1) * b, a valid
    # relation whose determinant normalization was skipped
    tau, one = (1,), (0,)
    m = ring_elt(e1, {one: 5, tau: -3})
    cert = RelationCertificate(
        m_matrix=((m,),),
        n_matrix=((GroupRingElt.zero(e1.group, e1.ring),),),
        lam_matrix=((m,),),
        mu_vector=(GroupRingElt.zero(e1.group, e1.ring),),
    )
    with pytest.raises(CertificateError, match="kappa"):
        delta(e1, cert)


def test_delta_rejects_non_trace_multiple(e1):
    tau, one = (1,), (0,)
    m = ring_elt(e1, {one: 1, tau: 2})
    cert = RelationCertificate(
        m_matrix=((m,),),
        n_matrix=((GroupRingElt.zero(e1.group, e1.ring),),),
        lam_matrix=((m,),),
        mu_vector=(GroupRingElt.zero(e1.group, e1.ring),),
    )
    with pytest.raises(CertificateError, match="annihilate"):
        delta(e1, cert)


def test_trace_equals_omega_delta_on_generators(inst33):
    cert = relation_matrices(inst33)
    d = delta(inst33, cert)
    frame = inst33.frame
    for k in frame.bt_index:
        got = omega_act(inst33, star_act(inst33, d, frame.unit(k)))
        assert trace(inst33, frame.unit(k)) == got[: inst33.dim_a] and not any(got[inst33.dim_a :])


def test_trivial_group_certificate():
    inst = build_instance(2, 2, [], [], [], {})
    cert = relation_matrices(inst)
    assert cert.size() == 0
    assert not delta(inst, cert).coeffs
    rep = run_all(inst)
    assert {v.check_id: v.status for v in rep.verdicts} == dict.fromkeys(CHECK_IDS, "pass")


def _dual_delta(inst, cert):
    """delta as minus the w-part of det(M - wN) over the dual numbers, after
    the checks of det M in the order and with the texts of ``delta``."""
    group, ring = inst.group, inst.ring
    if cert.size() == 0:
        d0, d1 = GroupRingElt.one(group, ring), GroupRingElt.zero(group, ring)
    else:
        d = det_ring(dual_matrix(cert.m_matrix, cert.n_matrix))
        d0, d1 = d.r0, d.r1
    kappa = d0.trace_multiple()
    if kappa is None:
        raise CertificateError("det M does not annihilate the augmentation ideal")
    if d0.augmentation() != group.size() % ring.modulus:
        raise PrecisionModelError(
            f"deg det M = {d0.augmentation()} differs from |G| = {group.size()}"
        )
    if d0 != trace_element(group, ring):
        raise CertificateError(f"det M = {kappa} * Tr with kappa != 1")
    return -d1


def _outcome(fn, inst, cert):
    try:
        return "value", fn(inst, cert)
    except CertificateError as e:
        return type(e).__name__, str(e)


def _broken_certificates(inst, cert):
    """cert with row 0 of M scaled by 1 + l (det M = (1 + l) Tr), and with 1
    added to M_00 (det M = Tr + C_00)."""
    m = cert.m_matrix
    one = GroupRingElt.one(inst.group, inst.ring)
    scaled = tuple(x.scale(1 + inst.prime) for x in m[0])
    shifted = (m[0][0] + one,) + m[0][1:]
    return [replace(cert, m_matrix=(row,) + m[1:]) for row in (scaled, shifted)]


def test_delta_matches_the_dual_number_determinant(rank3, trivial_atilde):
    """On the corpus, the fixtures, their seeded corruptions that have a
    certificate, rank3, trivial_atilde and the trivial group, delta is the
    dual-number determinant's; on two broken copies of each base
    certificate, delta raises the error that the dual-number computation
    raises."""
    paths = corpus_paths() + sorted(FIXTURES.glob("*.json"))
    families = [(load_instance(p), p.name) for p in paths]
    trivial_group = build_instance(2, 2, [], [], [], {})
    families += [(rank3, None), (trivial_atilde, None), (trivial_group, None)]
    inputs = []
    for base, seed in families:
        copies = [] if seed is None else v1_corruptions(base, seed)
        for inst in [base] + copies:
            cert = inst.frame.relations[0]
            if cert is not None:
                inputs.append((inst, cert))
        cert = base.frame.relations[0]
        if cert is not None and cert.size():
            inputs += [(base, broken) for broken in _broken_certificates(base, cert)]
    outcomes = []
    for inst, cert in inputs:
        got = _outcome(delta, inst, cert)
        assert got == _outcome(_dual_delta, inst, cert)
        outcomes.append(got)
    assert Counter(kind for kind, _ in outcomes) == {
        "value": 222,
        "PrecisionModelError": 53,
        "CertificateError": 65,
    }
    assert sum(kind != "value" and "kappa" in text for kind, text in outcomes) == 6


def test_determinants_make_the_pinned_number_of_products(rank3, rank5, monkeypatch):
    """GroupRingElt products, counted: the expansion memoized on column sets
    makes sum_k C(s, k) * k for k = 2..s over an s x s determinant, and the
    s - 1 rows of cofactor_row stop one level short of it; delta makes
    s + 1 such determinants and relation_matrices one cofactor_row."""
    count = 0
    mul = GroupRingElt.__mul__

    def counting_mul(self, other):
        nonlocal count
        count += 1
        return mul(self, other)

    def products(fn, *args):
        nonlocal count
        count = 0
        fn(*args)
        return count

    rnd = random.Random(7)

    def matrix(rows, cols):
        return [[random_ring_elt(rank3, rnd) for _ in range(cols)] for _ in range(rows)]

    insts = [rank3, rank5]
    certs = [relation_matrices(inst) for inst in insts]
    monkeypatch.setattr(GroupRingElt, "__mul__", counting_mul)
    assert [products(det_ring, matrix(s, s)) for s in range(1, 6)] == [0, 2, 9, 28, 75]
    assert [products(cofactor_row, matrix(r, r + 1)) for r in range(1, 5)] == [0, 6, 24, 70]
    assert [products(delta, inst, cert) for inst, cert in zip(insts, certs)] == [36, 450]
    assert [products(relation_matrices, inst) for inst in insts] == [6, 70]


def test_certificate_makes_one_solve_per_matrix_row(e1, inst33, rank3, rank5, monkeypatch):
    """Every row of M (= Lambda) and of N is answered exactly once, and each
    distinct system is factored once: the M system shared by rows 0..s-2,
    the last row's system with the det = Tr columns, and the N system."""
    solve_many, augmented_howell = lattice.solve_many, lattice._augmented_howell
    answered, factored = [], []

    def counting_solve_many(rows, targets, ring):
        answered.append((tuple(map(tuple, rows)), len(targets)))
        return solve_many(rows, targets, ring)

    def counting_howell(rows, width, ring):
        factored.append(tuple(map(tuple, rows)))
        return augmented_howell(rows, width, ring)

    # solve reaches solve_many through the lattice module
    monkeypatch.setattr(lattice, "solve_many", counting_solve_many)
    monkeypatch.setattr(resolvent, "solve_many", counting_solve_many)
    monkeypatch.setattr(lattice, "_augmented_howell", counting_howell)
    for inst in [e1, inst33, rank3, rank5] + [load_instance(p) for p in corpus_paths()]:
        answered.clear()
        factored.clear()
        relation_matrices(inst)
        s = inst.group.rank
        assert sum(n for _, n in answered) == 2 * s
        systems = [rows for rows, n in answered if n]
        assert len(systems) == len(set(systems)) == 2 + (s > 1)
        assert sorted(factored) == sorted(systems)


def _omega_form_rows(inst):
    """The M rows solved in the omega form: modulo the (1 - tau) * gamma in
    degree-zero coordinates for every tau, the identity's zero row included."""
    frame, group = inst.frame, inst.group
    t = inst.torsion_rank
    b = [frame.tau_coord(tau) for tau in group.generators()]
    complement = [inst.a_tau(tau)[:t] + (0,) * len(group.nonidentity()) for tau in group.elements()]
    return tuple(tuple(row) for row, _ in resolvent._solve_form(inst, b, complement))


def test_certificate_rows_equal_the_omega_form_rows():
    """On the corpus, the fixtures and their seeded corruptions (the frame
    solves the relations whether or not the instance validates), the omega
    form gives the rows of M where there is a certificate, and the error of
    the certificate where it has no solution."""
    certified = infeasible = 0
    for path in corpus_paths() + sorted(FIXTURES.glob("*.json")):
        base = load_instance(path)
        copies = v1_corruptions(base, path.name) if u_order(base) <= 256 else []
        for inst in [base] + copies:
            cert, _, error = inst.frame.relations
            try:
                rows = _omega_form_rows(inst)
            except InfeasibleRelationError as e:
                assert cert is None and error == f"InfeasibleRelationError: {e}"
                infeasible += 1
                continue
            if cert is not None:
                assert rows == cert.m_matrix
                certified += 1
    assert (certified, infeasible) == (181, 1)


def test_infeasible_relation_row_is_reported():
    """h1_violating.json with f(tau, tau) = 1: the b_i generate, but no row
    with det = Tr exists, and V3 run with force reports that error."""
    inst = build_instance(2, 3, [2], [2], [[[1, 0], [0, 1]]], {((1,), (1,)): [1]})
    error = "InfeasibleRelationError: relation row 0 has no solution with det = Tr"
    assert inst.frame.relations == (None, None, error)
    v = run_check(inst, "V3", force=True)
    assert (v.status, v.witness) == ("fail", {"error": error})


# -- the boundary module -------------------------------------------------------------


def test_boundary_module_cyclic_group_is_zero(e1):
    assert e1.frame.boundary == e1.frame.zero_a


def test_boundary_module_symmetric_cocycle_is_zero():
    inst = build_instance(
        2, 4, [2, 2], [2],
        [[[1, 0], [1, 1]], [[1, 0], [0, 1]]],
        {},
    )
    assert inst.frame.boundary == inst.frame.zero_a


def test_boundary_module_inst33_matches_commutators(inst33):
    from logcap.extension import UElement

    bm = inst33.frame.boundary
    assert inst33.frame.size(bm) == 3
    # the generators are exactly the transversal commutators [u_sigma, u_tau]
    sigma, tau = inst33.group.generators()
    u_s = UElement(inst33, inst33.a_zero(), sigma)
    u_t = UElement(inst33, inst33.a_zero(), tau)
    comm = u_s * u_t * u_s.inverse() * u_t.inverse()
    assert comm.tau == inst33.group.identity()
    assert comm.a in bm
    assert bm == inst33.span_a([comm.a])
