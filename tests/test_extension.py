import itertools

import pytest

from logcap.extension import (
    InstanceMismatchError,
    UElement,
    derived_subgroup,
    transfer,
    u_order,
)
from logcap.groupring import AbelianLGroup, GroupRingElt
from logcap.instance import build_instance, coboundary_shift, load_instance, validate
from logcap.lattice import ZModRing
from logcap.resolvent import ResolventElt, log_iso, trace
from tests import census
from tests.conftest import FIXTURES, corpus_paths, span_elements


def u_pairs(inst):
    """All of U as coordinates (a, tau), A coordinates outer and G inner."""
    coords = itertools.product(*(range(o) for o in inst.frame.orders))
    return list(itertools.product(coords, inst.group.elements()))


def group_elements(inst):
    """All of U as elements with the group law, in the order of u_pairs."""
    return [UElement(inst, a, tau) for a, tau in u_pairs(inst)]


def test_identity_component_adds(e1):
    x = UElement(e1, (1, 0), (0,))
    y = UElement(e1, (0, 1), (0,))
    z = x * y
    assert z.a == (1, 1) and z.tau == (0,)


def test_e1_transversal_squares_to_identity(e1):
    u_tau = UElement(e1, (0, 0), (1,))
    sq = u_tau * u_tau
    assert sq == UElement(e1, (0, 0), (0,))


def test_e1_noncommuting_pair(e1):
    gamma = UElement(e1, (0, 1), (0,))
    u_tau = UElement(e1, (0, 0), (1,))
    left = gamma * u_tau
    right = u_tau * gamma
    assert left.a == (0, 1) and left.tau == (1,)
    assert right.a == (1, 1) and right.tau == (1,)
    assert left != right


def test_group_axioms_exhaustive(e1):
    elems = group_elements(e1)
    assert len(elems) == u_order(e1) == 32
    e = UElement(e1, (0, 0), (0,))
    for u in elems:
        assert u * e == u and e * u == u
        assert u * u.inverse() == e and u.inverse() * u == e
    # associativity on all triples
    for x, y, z in itertools.product(elems[:16], elems[:8], elems[:8]):
        assert (x * y) * z == x * (y * z)


def test_instance_mismatch_rejected(e1, trivial_atilde):
    with pytest.raises(InstanceMismatchError):
        UElement(e1, (0, 0), (0,)) * UElement(trivial_atilde, (0,), (0,))


# each public constructor's own input check, on e1 (G = Z/2, dim A = 2)
_CONSTRUCTOR_REFUSALS = {
    "group-ring-key-outside-G": (
        lambda e1: GroupRingElt(e1.group, e1.ring, {(2,): 1}),
        r"^\(2,\) is not an element of AbelianLGroup\(2, \(2,\)\)$",
    ),
    "group-ring-key-of-wrong-rank": (
        lambda e1: GroupRingElt(e1.group, e1.ring, {(0, 0): 1}),
        r"^\(0, 0\) is not an element of AbelianLGroup\(2, \(2,\)\)$",
    ),
    "u-element-a-of-wrong-length": (
        lambda e1: UElement(e1, (0,), (0,)),
        r"^components do not fit the instance$",
    ),
    "u-element-tau-outside-G": (
        lambda e1: UElement(e1, (0, 0), (2,)),
        r"^components do not fit the instance$",
    ),
    "resolvent-wrong-lambda-count": (
        lambda e1: ResolventElt(e1, (0, 0), (0, 0)),
        r"^coordinates do not fit the instance$",
    ),
    "group-of-non-prime": (lambda e1: AbelianLGroup(4, [4]), r"^4 is not prime$"),
    "group-order-not-a-power": (
        lambda e1: AbelianLGroup(2, [6]),
        r"^cyclic factor order 6 is not a positive power of 2$",
    ),
    "ring-of-non-prime": (lambda e1: ZModRing(6, 2), r"^6 is not prime$"),
}


@pytest.mark.parametrize("case", sorted(_CONSTRUCTOR_REFUSALS))
def test_public_constructor_refuses_input_that_does_not_fit(e1, case):
    build, message = _CONSTRUCTOR_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        build(e1)


def test_derived_subgroup_e1(e1):
    # the derived subgroup is the whole torsion part, generated by alpha
    sub = derived_subgroup(e1)
    assert sub == e1.frame.atilde == e1.frame.derived
    assert e1.frame.size(sub) == 2


def test_derived_subgroup_degree_zero_e1(e1):
    # inside the degree-zero part everything commutes: I_G acts trivially
    # on the torsion and there is a single generator
    sub = derived_subgroup(e1, degree_zero=True)
    assert sub == e1.frame.zero_a == e1.frame.derived_degree_zero


def test_derived_subgroup_trivial_case():
    inst = build_instance(2, 3, [2], [], [[[1]]], {})
    assert derived_subgroup(inst) == inst.frame.zero_a


def derived_by_all_pairs(inst, degree_zero=False):
    """The derived subgroup as it was computed before: the factor-set part
    spanned over every unordered pair of G, for each of the two calls."""
    gens = []
    module_gens = [tuple(int(j == i) for j in range(inst.dim_a)) for i in range(inst.torsion_rank)]
    if not degree_zero:
        module_gens.append(inst.gamma())
    for tau in inst.group.generators():
        gens += [inst.a_sub(a, inst.act(tau, a)) for a in module_gens]
    for s, g in itertools.combinations(inst.group.elements(), 2):
        gens.append(inst.a_sub(inst.cocycle_in_a(s, g), inst.cocycle_in_a(g, s)))
    return inst.span_a(gens)


def test_derived_subgroups_equal_the_all_pairs_formula(e1, inst33, rank3, rank5):
    """The factor-set part read off the entries of the factor set, built
    once per instance, spans the same submodules as every pair of G: on the
    fixtures, the samples and every census input (corpus bases included),
    valid or not."""
    insts = [e1, inst33, rank3, rank5] + [inst for _, _, inst in census.inputs()]
    for inst in insts:
        assert inst.frame.derived == derived_by_all_pairs(inst)
        assert inst.frame.derived_degree_zero == derived_by_all_pairs(inst, degree_zero=True)
    assert len(insts) > 500


def test_transfer_trivial_group_is_identity():
    inst = build_instance(2, 2, [], [], [], {})
    for c in range(4):
        assert transfer(inst, (c,), ()) == (c,)


def test_transfer_e1_worked_examples(e1):
    assert transfer(e1, (0, 0), (1,)) == (0, 0)
    # Ver((gamma, 1)) = 2 gamma + alpha
    assert transfer(e1, (0, 1), (0,)) == (1, 2)


def coset_loop_transfer(inst, a, tau):
    """The transfer by its definition: sum_g (tau g)^-1 * (a + f(tau, g))."""
    group = inst.group
    out = inst.a_zero()
    for g in group.elements():
        tg_inv = group.inv(group.mul(tau, g))
        out = inst.a_add(out, inst.act(tg_inv, inst.a_add(a, inst.cocycle_in_a(tau, g))))
    return out


def test_transfer_matches_coset_loop_definition():
    paths = [p for p in corpus_paths() if u_order(load_instance(p)) <= 4096]
    paths += [FIXTURES / f"{name}.json" for name in ("e1", "corrupted_cocycle", "h1_violating")]
    checked = 0
    for path in paths:
        inst = load_instance(path)
        # the affine form is exact where the action respects the torsion orders
        assert "action-well-defined" not in validate(inst).failed_names()
        for a, tau in u_pairs(inst):
            assert transfer(inst, a, tau) == coset_loop_transfer(inst, a, tau), (path.name, a, tau)
            checked += 1
    assert checked == 17285


def test_transfer_is_homomorphism_killing_derived(e1):
    elems = group_elements(e1)
    table = {u: transfer(e1, u.a, u.tau) for u in elems}
    for x in elems:
        for y in elems[:8]:
            assert table[x * y] == e1.a_add(table[x], table[y])
    u_prime = derived_subgroup(e1)
    for v in span_elements(u_prime):
        assert table[UElement(e1, e1.a_reduce(v), (0,))] == (0, 0)


def test_transfer_scales_degree_by_group_order(e1):
    n = e1.ring.modulus
    for a, tau in u_pairs(e1):
        assert transfer(e1, a, tau)[-1] % n == (e1.group.size() * a[-1]) % n


def test_transfer_invariant_under_transversal_change(e1):
    shifted = coboundary_shift(e1, {(1,): (1,)})
    for a, tau in u_pairs(e1):
        assert transfer(e1, a, tau) == transfer(shifted, a, tau)


def test_log_iso_on_module_part(e1):
    b = log_iso(e1, (1, 1), (0,))
    assert b.a == (1, 1) and not any(b.lam)


def test_log_iso_on_transversal(e1):
    b = log_iso(e1, (0, 0), (1,))
    assert b.a == (0, 0) and b.lam == (1,)


def test_log_iso_is_homomorphism_mod_ig_b(e1):
    denom = e1.frame.ig_b
    elems = group_elements(e1)
    for x in elems:
        for y in elems[:8]:
            lhs, lx, ly = (log_iso(e1, u.a, u.tau).to_vec() for u in (x * y, x, y))
            rhs = [a + b for a, b in zip(lx, ly)]
            assert [a - b for a, b in zip(lhs, rhs)] in denom


def test_log_iso_kernel_is_derived_subgroup(e1):
    denom = e1.frame.ig_b
    u_prime = derived_subgroup(e1)
    member = {e1.a_reduce(v) for v in span_elements(u_prime)}
    for a, tau in u_pairs(e1):
        in_kernel = log_iso(e1, a, tau).to_vec() in denom
        in_derived = tau == (0,) and a in member
        assert in_kernel == in_derived


def test_diagram_commutes_on_inst33(inst33):
    # transfer equals trace-after-logarithm on a spread of elements
    import random

    rnd = random.Random(9)
    for a, tau in rnd.sample(u_pairs(inst33), 60):
        assert transfer(inst33, a, tau) == trace(inst33, log_iso(inst33, a, tau).to_vec())
