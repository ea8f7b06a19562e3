import dataclasses
import hashlib
import importlib.util
import itertools
import json
import random
from types import SimpleNamespace

import pytest

from logcap import forge
from logcap.extension import transfer, u_order
from logcap.forge import (
    DEFAULT_ORACLE_BOUND,
    CeilingExceededError,
    ComponentSpec,
    OracleBoundError,
    OracleFacts,
    SearchParams,
    _closure,
    _CocycleSpace,
    _full_matrix,
    _generator_candidates,
    _Shape,
    action_configurations,
    build_corpus,
    enumerate_instances,
    estimate_space,
    oracle_group,
    random_instance,
)
from logcap.groupring import AbelianLGroup
from logcap.instance import (
    Instance,
    RejectedShiftError,
    build_instance,
    coboundary_shift,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    validate,
)
from logcap.lattice import (
    InternalInvariantError,
    Submodule,
    ZModRing,
    carry_free_coder,
    mat_mul,
    preimage,
    torsion_rows,
    vec_mat,
)
from logcap.verifier import run_check
from tests.conftest import (
    CORPUS,
    FIXTURES,
    REPO,
    corpus_paths,
    random_admissible_shift,
    span_elements,
)


def test_enumerate_unique_instance_for_trivial_torsion():
    params = SearchParams(2, 3, ((2,),), ((),))
    insts = list(enumerate_instances(params))
    assert len(insts) == 1
    assert insts[0].cocycle == ()


def test_enumerate_finds_the_canonical_small_instance(e1):
    params = SearchParams(2, 3, ((2,),), ((2,),))
    insts = list(enumerate_instances(params))
    assert len(insts) == 1
    assert insts[0] == e1


def test_enumerate_streams_are_deterministic():
    params = SearchParams(2, 4, ((2,), (4,)), ((), (2,), (4,)))
    a = [instance_to_dict(i) for i in enumerate_instances(params)]
    b = [instance_to_dict(i) for i in enumerate_instances(params)]
    assert a == b and len(a) > 0


def test_enumerate_emits_only_valid_instances():
    params = SearchParams(2, 4, ((4,),), ((2, 2),))
    insts = list(enumerate_instances(params))
    assert len(insts) > 0
    for inst in insts:
        assert validate(inst).ok


def test_enumerate_skips_precision_starved_shapes():
    params = SearchParams(2, 4, ((2,),), ((8,),))
    assert list(enumerate_instances(params)) == []


def test_ceiling_refusal_carries_estimate():
    params = SearchParams(3, 3, ((3, 3),), ((3, 3),), ceiling=1000)
    with pytest.raises(CeilingExceededError) as exc:
        list(enumerate_instances(params))
    assert exc.value.estimate > 1000
    # Two shapes, the first under the ceiling: they count 10 and 208, and
    # the count stops, at 102, inside the second.
    params = SearchParams(2, 4, ((2,), (2, 2)), ((2, 2),), ceiling=100)
    above = dataclasses.replace(params, ceiling=1000)  # counts each shape in full
    assert [estimate_space(above, g, (2, 2)) for g in params.g_orders_list] == [10, 208]
    with pytest.raises(CeilingExceededError) as exc:
        list(enumerate_instances(params))
    assert exc.value.estimate == 102


def test_emitted_instances_not_coboundary_related():
    """Exhaust every admissible transversal move on a shape with several
    classes and check the emitted representatives stay distinct."""
    params = SearchParams(2, 4, ((4,),), ((2,),))
    insts = list(enumerate_instances(params))
    assert insts
    tables = {inst.cocycle for inst in insts}
    assert len(tables) == len(insts)
    for inst in insts:
        t = inst.torsion_rank
        group = inst.group
        value_space = list(itertools.product(*(range(o) for o in inst.atilde_orders)))
        for values in itertools.product(value_space, repeat=len(group.nonidentity())):
            c = dict(zip(group.nonidentity(), values))
            try:
                shifted = coboundary_shift(inst, c)
            except RejectedShiftError:
                continue
            if shifted.cocycle != inst.cocycle:
                assert shifted.cocycle not in tables


def test_random_instance_reproducible_and_valid():
    params = SearchParams(2, 4, ((2, 2),), ((4,),), seed=5)
    a = random_instance(params)
    b = random_instance(params)
    assert a is not None and a == b
    assert validate(a).ok


def test_random_instance_none_when_nothing_exists():
    # G = Z/2 with torsion (2, 2) admits no instance satisfying H1
    params = SearchParams(2, 4, ((2,),), ((2, 2),), seed=1, attempt_budget=60)
    assert random_instance(params) is None


def test_random_instance_trivial_torsion_always_succeeds():
    # the zero factor set is always valid when the torsion part is trivial
    for seed in range(8):
        params = SearchParams(2, 3, ((2,), (4,)), ((),), seed=seed)
        inst = random_instance(params)
        assert inst is not None and validate(inst).ok


def test_random_instances_validate_in_bulk():
    ok = 0
    for seed in range(20):
        params = SearchParams(3, 3, ((3,),), ((3,),), seed=seed)
        inst = random_instance(params)
        if inst is not None:
            assert validate(inst).ok
            ok += 1
    assert ok > 10


@pytest.mark.parametrize(
    "prime,precision,g_orders,atilde_orders",
    [
        (2, 4, (2,), (2, 4)),
        (2, 4, (4,), (2, 2)),
        (2, 4, (2, 2), (2, 2)),
        (3, 3, (3,), (3, 3)),
    ],
    ids=["G2_A2x4", "G4_A2x2", "G2x2_A2x2", "G3_A3x3"],
)
def test_factor_set_space_depends_only_on_the_torsion_action(
    prime, precision, g_orders, atilde_orders
):
    """The search shares one space among the configurations with the same
    torsion action.  Built with no sharing, from the torsion blocks of the
    instance's own element matrices, each configuration gives the solution
    basis, coboundaries and count of the shared space, and the shared count
    is the sum of the unshared ones."""
    params = SearchParams(prime, precision, (g_orders,), (atilde_orders,))
    shape = _Shape(params, g_orders, atilde_orders)
    t = len(atilde_orders)
    shared_ids = []
    total = 0
    for action in shape.configs:
        shared = shape.space(action)
        inst = build_instance(prime, precision, g_orders, atilde_orders, action, {})
        p_mats = {g: tuple(r[:t] for r in m[:t]) for g, m in inst.frame.action.items()}
        space = _CocycleSpace(shape, p_mats)
        facts = (space._sub.basis, space.coboundaries(), space.count())
        assert facts == (shared._sub.basis, shared.coboundaries(), shared.count())
        total += facts[2]
        shared_ids.append(id(shared))
    assert len(set(shared_ids)) < len(shared_ids)  # some configurations share
    assert estimate_space(params, g_orders, atilde_orders) == total


def _seen_set_walk(space):
    """The canonical tables by a seen-set walk: every table of the space in
    sorted order, keeping each one that no kept table reaches by a
    coboundary shift.  The shifts are the coboundaries c_s + s * c_g - c_sg
    of every map c from the nonidentity elements to the torsion that vanish
    on inverse pairs."""
    shape = space.shape
    group, d, t = shape.group, shape.d, shape.t
    orders = shape.orders
    inverse_pairs = [k for k, (s, g) in enumerate(shape.pairs) if g == group.inv(s)]
    tables = sorted({tuple(x % o for x, o in zip(z, orders)) for z in span_elements(space._sub)})
    shifts = set()
    for flat in itertools.product(*(range(o) for o in d * len(shape.nonid))):
        c = {tau: flat[k * t : (k + 1) * t] for k, tau in enumerate(shape.nonid)}
        c[group.identity()] = (0,) * t
        table = []
        for s, g in shape.pairs:
            moved = vec_mat(c[g], space._p_mats[s], d)
            table += [(x + y - z) % o for x, y, z, o in zip(c[s], moved, c[group.mul(s, g)], d)]
        if not any(table[k * t + j] for k in inverse_pairs for j in range(t)):
            shifts.add(tuple(table))
    seen, out = set(), []
    for z in tables:
        if z not in seen:
            out.append(z)
            seen.update(tuple((a + b) % o for a, b, o in zip(z, w, orders)) for w in shifts)
    return out


@pytest.mark.parametrize(
    "prime,precision,g_orders,atilde_orders",
    [
        (2, 4, (2,), (2, 2)),
        (2, 4, (2, 2), (2, 2)),
        (2, 4, (4,), (2, 2)),
        (3, 3, (3,), (3,)),
        (2, 4, (2, 2), (2,)),
    ],
    ids=["G2_A2x2", "G2x2_A2x2", "G4_A2x2", "G3_A3", "G2x2_A2"],
)
def test_canonical_tables_match_the_seen_set_walk(prime, precision, g_orders, atilde_orders):
    """Howell reduction against the coboundaries keeps the same table of
    each class as the seen-set walk, on every torsion action of the shape."""
    params = SearchParams(prime, precision, (g_orders,), (atilde_orders,))
    shape = _Shape(params, g_orders, atilde_orders)
    spaces = {id(s): s for s in map(shape.space, shape.configs)}
    assert spaces
    for space in spaces.values():
        assert space.canonical_tables == _seen_set_walk(space)


def _coboundaries_pair_by_pair(space):
    """The coboundaries written out: the shifts c that vanish on inverse
    pairs (c_tau + tau * c_tau^-1 = 0), each mapped pair by pair to the
    table c_s + s * c_g - c_sg, with the torsion relations o_k * e_k."""
    shape = space.shape
    group = shape.group
    nonid, t = shape.nonid, shape.t
    nshift = len(nonid) * t
    rows = [[0] * nshift for _ in range(nshift)]  # one condition column per (tau, j)
    orders = []
    for tau in nonid:
        ti = group.inv(tau)
        p_t = space._p_mats[tau]
        for j in range(t):
            c = len(orders)
            rows[nonid.index(tau) * t + j][c] += 1
            for i in range(t):
                rows[nonid.index(ti) * t + i][c] += p_t[i][j]
            orders.append(shape.d[j])
    admissible = space._kernel_mod_orders(rows, orders)
    gens = []
    zero = (0,) * t
    for c_row in admissible.basis:
        cvals = {tau: tuple(c_row[k * t : (k + 1) * t]) for k, tau in enumerate(nonid)}
        table = []
        for s, g in shape.pairs:
            moved = vec_mat(cvals[g], space._p_mats[s], shape.d)
            c_sg = cvals.get(group.mul(s, g), zero)
            table += [x + y - z for x, y, z in zip(cvals[s], moved, c_sg)]
        gens.append(table)
    width = len(shape.orders)
    return Submodule.from_generators(shape.ring, width, gens + torsion_rows(shape.orders, width))


def _first_spaces_of_sampled_components(skip, first=6):
    """The first ``first`` torsion actions, in configuration order, of each
    sampled corpus component whose (l, n, G, A~) is not in skip."""
    out = []
    for params, components in _pinned_components().values():
        for c in components:
            key = (params.prime, params.precision, c.g_orders, c.atilde_orders)
            if c.mode != "sample" or key in skip:
                continue
            shape = _Shape(SearchParams(*key[:2], (c.g_orders,), (c.atilde_orders,)), *key[2:])
            spaces = {}
            for action in shape.configs:
                space = shape.space(action)
                spaces.setdefault(id(space), space)
                if len(spaces) == first:
                    break
            out += spaces.values()
    return out


def test_coboundaries_match_the_pair_by_pair_map(monkeypatch):
    """On every torsion action of the exhaustive corpus shapes and of three
    shapes past them: G of rank 3 over A~ of rank 2, (Z/3)^2 over Z/3, and
    l = 5; then on the first six torsion actions of each sampled component
    not among them: Z/4 over (2,2,2), (Z/2)^2 over (2,4) and over (2,2,2),
    and Z/3 over (3,3)."""
    shapes = []
    for label, (params, _) in _pinned_components().items():
        manifest = json.loads((CORPUS / label / "manifest.json").read_text(encoding="utf-8"))
        shapes += [
            (params.prime, params.precision, tuple(c["G"]), tuple(c["Atilde"]))
            for c in manifest["components"]
            if c["mode"] == "exhaustive"
        ]
    shapes += [(2, 4, (2, 2, 2), (2, 2)), (3, 3, (3, 3), (3,)), (5, 2, (5,), (5,))]
    # coboundaries reads only the shape and the torsion action
    monkeypatch.setattr(_CocycleSpace, "_solve", lambda space: None)
    compared = 0
    for prime, precision, g_orders, atilde_orders in shapes:
        params = SearchParams(prime, precision, (g_orders,), (atilde_orders,))
        shape = _Shape(params, g_orders, atilde_orders)
        for space in {id(s): s for s in map(shape.space, shape.configs)}.values():
            assert space.coboundaries() == _coboundaries_pair_by_pair(space)
            compared += 1
    assert compared == 85
    sampled = 0
    for space in _first_spaces_of_sampled_components(shapes):
        assert space.coboundaries() == _coboundaries_pair_by_pair(space)
        sampled += 1
    assert sampled == 24


def _solve_triple_by_triple(space):
    """The factor-set module written out: for every nonidentity triple
    (s, g, r) the associativity identity s * f(g, r) - f(sg, r) + f(s, gr)
    - f(s, g) = 0, a term at a pair with an identity entry being zero, and
    f = 0 at the inverse-pair coordinates."""
    shape = space.shape
    group, t = shape.group, shape.t
    one = group.identity()
    first = {pair: k * t for k, pair in enumerate(shape.pairs)}  # the coordinate of (pair, 0)
    nvars = len(shape.orders)
    ncond = len(shape.nonid) ** 3 * t + len(shape.inverse_coords)
    rows = [[0] * ncond for _ in range(nvars)]  # one condition column per (s, g, r; j)
    orders = []
    for s in shape.nonid:
        p_s = space._p_mats[s]
        for g in shape.nonid:
            for r in shape.nonid:
                sg, gr = group.mul(s, g), group.mul(g, r)
                for j in range(t):
                    c = len(orders)
                    for i in range(t):
                        rows[first[g, r] + i][c] += p_s[i][j]
                    if sg != one:
                        rows[first[sg, r] + j][c] -= 1
                    if gr != one:
                        rows[first[s, gr] + j][c] += 1
                    rows[first[s, g] + j][c] -= 1
                    orders.append(shape.d[j])
    for k in shape.inverse_coords:
        rows[k][len(orders)] = 1
        orders.append(shape.orders[k])
    return space._kernel_mod_orders(rows, orders)


def test_factor_set_module_matches_the_triple_by_triple_identity():
    """The module solved at the generator-middle triples is the one solved
    at every triple.  On every torsion action of the exhaustive corpus
    shapes and of three shapes past them: G of rank 3, (Z/3)^2 over Z/3,
    and l = 5; then on the first six torsion actions of each sampled
    component not among them; then where the reduction drops the most
    triples: every torsion action of (Z/2)^3 over (2,2), and (Z/2)^4 over
    Z/2, 4 middles in place of 15."""
    shapes = []
    for label, (params, _) in _pinned_components().items():
        manifest = json.loads((CORPUS / label / "manifest.json").read_text(encoding="utf-8"))
        shapes += [
            (params.prime, params.precision, tuple(c["G"]), tuple(c["Atilde"]))
            for c in manifest["components"]
            if c["mode"] == "exhaustive"
        ]
    shapes += [(2, 4, (2, 2, 2), (2,)), (3, 3, (3, 3), (3,)), (5, 2, (5,), (5,))]
    compared = 0
    for prime, precision, g_orders, atilde_orders in shapes:
        params = SearchParams(prime, precision, (g_orders,), (atilde_orders,))
        shape = _Shape(params, g_orders, atilde_orders)
        for space in {id(s): s for s in map(shape.space, shape.configs)}.values():
            want = _solve_triple_by_triple(space)
            assert (space._sub.basis, space._sub.pivots) == (want.basis, want.pivots)
            compared += 1
    assert compared == 64
    sampled = 0
    for space in _first_spaces_of_sampled_components(shapes):
        want = _solve_triple_by_triple(space)
        assert (space._sub.basis, space._sub.pivots) == (want.basis, want.pivots)
        sampled += 1
    assert sampled == 24
    wide = 0
    for g_orders, atilde_orders in [((2, 2, 2), (2, 2)), ((2, 2, 2, 2), (2,))]:
        shape = _Shape(SearchParams(2, 4, (g_orders,), (atilde_orders,)), g_orders, atilde_orders)
        for space in {id(s): s for s in map(shape.space, shape.configs)}.values():
            want = _solve_triple_by_triple(space)
            assert (space._sub.basis, space._sub.pivots) == (want.basis, want.pivots)
            wide += 1
    assert wide == 23


def _torsion_key(g_orders, atilde_orders, action):
    t = len(atilde_orders)
    return (tuple(g_orders), tuple(atilde_orders), tuple(tuple(r[:t] for r in m[:t]) for m in action))


def _count_search_builds(monkeypatch):
    """Record each factor-set space the search builds, by shape and torsion
    action, and each action_configurations call, by shape."""
    spaces, shapes = [], []

    def counted_space(shape, p_mats):
        gens = [p_mats[g] for g in shape.group.generators()]
        spaces.append(_torsion_key(shape.group.orders, shape.d, gens))
        return _CocycleSpace(shape, p_mats)

    def counted_configurations(prime, precision, g_orders, atilde_orders):
        shapes.append((tuple(g_orders), tuple(atilde_orders)))
        return action_configurations(prime, precision, g_orders, atilde_orders)

    monkeypatch.setattr(forge, "_CocycleSpace", counted_space)
    monkeypatch.setattr(forge, "action_configurations", counted_configurations)
    return spaces, shapes


@pytest.mark.parametrize(
    "params,comp",
    [
        (
            SearchParams(3, 3, ((3, 3),), ((3,),), seed=307),
            ComponentSpec((3, 3), (3,), mode="sample", samples=4),
        ),
        (SearchParams(2, 4, ((2, 2),), ((2, 2),), seed=2024), ComponentSpec((2, 2), (2, 2))),
    ],
    ids=["sampled", "exhaustive"],
)
def test_build_corpus_builds_each_space_once_per_call(tmp_path, monkeypatch, params, comp):
    """One component's count, walk and samples share one search context,
    and a second call shares nothing with the first."""
    shape = (comp.g_orders, comp.atilde_orders)
    configs = action_configurations(params.prime, params.precision, *shape)
    every_key = {_torsion_key(*shape, m) for m in configs}
    spaces, shapes = _count_search_builds(monkeypatch)
    first = build_corpus(params, [comp], tmp_path / "a")
    assert first["components"][0]["count"] > 0
    assert shapes == [shape]
    assert sorted(spaces) == sorted(every_key)
    built = list(spaces)
    assert build_corpus(params, [comp], tmp_path / "b") == first
    assert shapes == [shape, shape]
    assert spaces == built + built


def test_enumerate_instances_builds_each_space_once(monkeypatch):
    params = SearchParams(2, 4, ((2,), (2, 2)), ((2,), (2, 2)))
    spaces, shapes = _count_search_builds(monkeypatch)
    assert list(enumerate_instances(params))
    assert len(shapes) == len(set(shapes)) == 4
    assert spaces and len(spaces) == len(set(spaces))


def test_estimate_space_builds_no_instance(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_instance(*args)

    monkeypatch.setattr(forge, "build_instance", counted)
    params = SearchParams(2, 4, ((2, 2),), ((2, 2),))
    assert estimate_space(params, (2, 2), (2, 2)) > 0
    assert calls == []


@pytest.mark.parametrize(
    "prime,g_orders,atilde_orders",
    [(2, (2, 4), (2,)), (3, (3, 3), (3,)), (2, (2, 2, 2), (2,))],
    ids=["G2x4_A2", "G3x3_A3", "G2x2x2_A2"],
)
def test_element_matrices_are_products_of_generator_powers(prime, g_orders, atilde_orders):
    """AbelianLGroup.matrices against tau_1^k_1 ... tau_s^k_s written out as
    repeated products, for every action configuration of the shape."""
    precision = 4 if prime == 2 else 3
    group = AbelianLGroup(prime, g_orders)
    d = len(atilde_orders) + 1
    orders = (prime**precision,) * d
    one = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    configs = action_configurations(prime, precision, g_orders, atilde_orders)
    assert configs
    for gens in configs:
        mats = group.matrices(gens, orders)
        for g in group.elements():
            want = one
            for mat, k in zip(gens, g):
                for _ in range(k):
                    want = mat_mul(want, mat, orders)
            assert mats[g] == want, (gens, g)


def test_random_admissible_shift_never_rejected(inst33, e1, rng):
    for inst in (inst33, e1):
        for _ in range(10):
            c = random_admissible_shift(inst, rng)
            coboundary_shift(inst, c)  # must not raise


# -- the oracle ------------------------------------------------------------------


def test_oracle_e1_facts(e1):
    facts = oracle_group(e1)
    assert facts.u_order == 32
    assert facts.u_tilde_order == 4
    assert facts.derived == {(0, 0), (1, 0)}
    assert facts.derived_degree_zero == {(0, 0)}
    assert facts.degree_zero_index == 2
    assert facts.gamma_commutators == {(0, 0), (1, 0)}


def test_oracle_transfer_matches_formula(e1):
    facts = oracle_group(e1)
    for (a, g), want in facts.transfer.items():
        assert transfer(e1, a, g) == want


def test_oracle_trivial_group():
    inst = build_instance(2, 2, [], [], [], {})
    facts = oracle_group(inst)
    assert facts.u_order == 4
    assert facts.derived == {(0,)}
    assert facts.degree_zero_index == 1


def test_oracle_bound_refusal(inst33):
    assert u_order(inst33) == 729
    with pytest.raises(OracleBoundError):
        oracle_group(inst33, bound=512)


def test_oracle_derived_matches_formula_on_samples():
    from logcap.extension import derived_subgroup

    rnd = random.Random(17)
    for seed in range(6):
        params = SearchParams(2, 4, ((2, 2),), ((2, 2),), seed=seed)
        inst = random_instance(params)
        if inst is None:
            continue
        facts = oracle_group(inst)
        formula = {inst.a_reduce(v) for v in span_elements(derived_subgroup(inst))}
        assert formula == set(facts.derived)


def _all_pairs_derived(inst, degree_zero):
    """The derived subgroup by definition: the additive span of [u, v] over
    all pairs of the pool.  uv and vu share their G part and A x {1} acts on
    the left by translation, so [u, v] = uv(vu)^-1 is the difference of the
    A parts of uv and vu."""
    orders = inst.frame.orders
    gelts = inst.group.elements()
    a_elts = list(itertools.product(*(range(o) for o in orders)))
    act = {(g, a): inst.act(g, a) for g in gelts for a in a_elts}
    coc = {(s, t): inst.cocycle_in_a(s, t) for s in gelts for t in gelts}
    n = inst.ring.modulus
    pool = [(a, g) for a in a_elts for g in gelts if not degree_zero or a[-1] % n == 0]

    def a_part(u, v):
        (a, s), (b, t) = u, v
        return tuple(x + y + z for x, y, z in zip(a, act[s, b], coc[s, t]))

    gens = {
        tuple((x - y) % o for x, y, o in zip(a_part(u, v), a_part(v, u), orders))
        for u in pool
        for v in pool
    }
    span = {inst.a_zero()}
    frontier = list(span)
    while frontier:
        fresh = {
            tuple((x + y) % o for x, y, o in zip(h, g, orders)) for h in frontier for g in gens
        }
        frontier = list(fresh - span)
        span |= fresh
    return span


def test_oracle_derived_equals_all_pairs_span():
    small = [inst for inst in map(load_instance, corpus_paths()) if u_order(inst) <= 128]
    assert len(small) >= 11
    for inst in small:
        facts = oracle_group(inst)
        assert facts.derived == _all_pairs_derived(inst, degree_zero=False)
        assert facts.derived_degree_zero == _all_pairs_derived(inst, degree_zero=True)


def _tuple_law_facts(inst):
    """Transfers, |U~|, |U'| and the span of the gamma commutators from the
    group law written out on coordinate tuples, (a, s)(b, t) = (a + s*b +
    f(s, t), st).  Transfers follow the coset-product definition against
    (0, g); U' is the span of [x, s], x over U and s over the generators
    (e_k, 1) and (0, g_i), a normal subgroup that makes U abelian."""
    orders = inst.frame.orders
    group = inst.group
    gelts = group.elements()
    zero, one = inst.a_zero(), group.identity()
    a_elts = list(itertools.product(*(range(o) for o in orders)))
    act = {(g, a): inst.act(g, a) for g in gelts for a in a_elts}
    coc = {(s, t): inst.cocycle_in_a(s, t) for s in gelts for t in gelts}

    def mul(u, v):
        (a, s), (b, t) = u, v
        a_part = tuple((x + y + z) % o for x, y, z, o in zip(a, act[s, b], coc[s, t], orders))
        return a_part, group.mul(s, t)

    def inv(u):
        a, s = u
        si = group.inv(s)
        out = (inst.a_neg(inst.act(si, inst.a_add(a, coc[s, si]))), si)
        assert mul(u, out) == (zero, one)
        return out

    def commutator(x, y):
        c = mul(mul(x, y), inv(mul(y, x)))
        assert c[1] == one
        return c[0]

    def span(gens):
        out, frontier = {zero}, [zero]
        while frontier:
            frontier = [y for y in {inst.a_add(x, c) for x in frontier for c in gens} if y not in out]
            out.update(frontier)
        return out

    transfer = {}
    for a in a_elts:
        for s in gelts:
            acc = (zero, one)
            for g in gelts:
                w = mul((a, s), (zero, g))
                acc = mul(acc, mul(inv((zero, w[1])), w))
            assert acc[1] == one
            transfer[a, s] = acc[0]

    units = [tuple(int(j == k) for j in range(len(orders))) for k in range(len(orders))]
    gens = [(e, one) for e in units] + [(zero, g) for g in group.generators()]
    derived = span({commutator((a, s), y) for a in a_elts for s in gelts for y in gens})
    gamma = (inst.gamma(), one)
    gamma_span = span({commutator(gamma, (zero, g)) for g in gelts})
    u_tilde = sum(1 for a in a_elts if a[-1] % inst.ring.modulus == 0) * len(gelts)
    return transfer, u_tilde, len(derived), gamma_span


def test_oracle_matches_the_tuple_group_law(rank3):
    """The oracle's integer-coded group law against the law on tuples, on
    coordinates of order 2, 4, 16 and 27 and on a rank-3 G."""
    insts = [inst for inst in map(load_instance, corpus_paths()) if u_order(inst) <= 128]
    insts += [load_instance(CORPUS / "l3" / "p3_n3_G3_A3_000.json"), rank3]
    assert {27, 16, 4, 2} <= {o for inst in insts for o in inst.frame.orders}
    for inst in insts:
        facts = oracle_group(inst)
        transfer, u_tilde, derived_order, gamma_span = _tuple_law_facts(inst)
        assert facts.transfer == transfer
        assert facts.u_tilde_order == u_tilde
        assert facts.degree_zero_index == u_tilde // derived_order
        assert facts.gamma_commutators == gamma_span


def test_oracle_inverse_check_reads_the_group_part(monkeypatch):
    # a G table where one generator times its inverse is the generator: the
    # A parts still cancel, so only the G part of the check can see it
    inst = load_instance(FIXTURES / "e1.json")
    product_indices = AbelianLGroup.product_indices

    def broken(group):
        idx, table = product_indices(group)
        g = group.generators()[0]
        table[idx[g]][idx[group.inv(g)]] = idx[g]
        return idx, table

    monkeypatch.setattr(AbelianLGroup, "product_indices", broken)
    with pytest.raises(InternalInvariantError, match="^oracle inverse failed verification$"):
        oracle_group(inst)


def test_oracle_pool_check_fires_on_an_action_that_is_not_one():
    # e1 with tau_1 sending e_0 to e_0 + gamma: the matrix breaks block
    # structure and has order 8, so the pool is not closed under the law
    data = json.loads((FIXTURES / "e1.json").read_text(encoding="utf-8"))
    data["A"]["action"]["tau_1"] = [[1, 1], [0, 1]]
    inst = instance_from_dict(data)
    assert validate(inst).failed_names() == (
        "action-block-structure",
        "action-order",
        "H1",
        "degree-zero-index",
    )
    with pytest.raises(InternalInvariantError, match="^oracle pool is not a subgroup$"):
        oracle_group(inst)
    assert run_check(inst, "V10", force=True).witness == {
        "error": "InternalInvariantError: oracle pool is not a subgroup"
    }


def test_oracle_independent_of_formula_code(monkeypatch):
    from logcap import extension, resolvent

    paths = [FIXTURES / "e1.json", CORPUS / "l2" / "p2_n4_G2x2_A2x2_000.json"]
    want = [oracle_group(load_instance(p)) for p in paths]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called into the formula code")

    monkeypatch.setattr(extension, "transfer", refuse)
    monkeypatch.setattr(extension, "derived_subgroup", refuse)
    monkeypatch.setattr(resolvent.Frame, "transfer_map", refuse)
    monkeypatch.setattr(resolvent.Frame, "offsets", property(refuse))
    monkeypatch.setattr(resolvent.Frame, "trace_matrix", property(refuse))
    for name in ("action", "factor_set", "omega", "orders", "ring", "star"):
        monkeypatch.setattr(resolvent.Frame, name, property(refuse))
    for path, facts in zip(paths, want):
        inst = load_instance(path)
        assert oracle_group(inst) == facts
    assert [facts.u_order for facts in want] == [32, 256]


def test_per_coordinate_action_is_inst_act_on_valid_instances():
    """The oracle's action tables reduce per coordinate after each
    generator; on every corpus instance and fixture that validates, that
    acts on all of A as inst.act does, whether the generators are applied
    in turn or multiplied first by AbelianLGroup.matrices."""
    insts = [load_instance(p) for p in corpus_paths() + sorted(FIXTURES.glob("*.json"))]
    insts = [inst for inst in insts if validate(inst).ok]
    for inst in insts:
        group, orders = inst.group, inst.frame.orders
        mats = group.matrices(inst.action, orders)
        a_elts = list(itertools.product(*(range(o) for o in orders)))
        images = {group.identity(): a_elts}
        for g in group.nonidentity():  # g = (g - e_k) * e_k, as matrices multiplies
            k = max(i for i, x in enumerate(g) if x)
            prev = images[g[:k] + (g[k] - 1,) + g[k + 1 :]]
            images[g] = [vec_mat(x, inst.action[k], orders) for x in prev]
            assert images[g] == [inst.act(g, a) for a in a_elts]
            assert images[g] == [vec_mat(a, mats[g], orders) for a in a_elts]
    assert len(insts) == 56


# The oracle as it stood with a ``mul`` closure for its group law, kept
# verbatim as the reference that the inlined loops must reproduce.


def _reference_oracle_group(inst: Instance, bound: int = DEFAULT_ORACLE_BOUND) -> OracleFacts:
    """Materialize the extension group and compute everything by counting.

    Each element (a, g) of U is one integer, code(a)*|G| + index(g), with
    the carry-free code of A from ``lattice.carry_free_coder``: its table
    ``red`` maps a sum of two codes to the code of the sum.  One table per
    (s, t) holds b -> red[code(s*b) + code(f(s, t))], read from the
    instance's action and factor set on every element, so a product
    (a, s)(b, t) = (a + s*b + f(s, t), st) is red[a + actf[s][t][b]]*|G|
    + gmul[s][t].  Codes become coordinate tuples only in the facts
    returned.

    A commutator subgroup is the additive span of the commutators [x, s],
    x over the whole pool and s over a generating set that the oracle finds
    itself, by greedy closure under its own multiplication.  The span is
    normal (x[y,s]x^-1 = [xy,s][x,s]^-1) and makes every s central, so the
    quotient is abelian and the span is the whole derived subgroup.
    Transfers use the coset-product definition against the standard
    transversal.  No resolvent machinery is involved.
    """
    n_u = u_order(inst)
    if n_u > bound:
        raise OracleBoundError(f"|U| = {n_u} exceeds the oracle bound {bound}")

    orders = inst.frame.orders
    group = inst.group
    gelts = group.elements()
    n_g = len(gelts)
    gidx, gmul = group.product_indices()
    ginv = [gidx[group.inv(x)] for x in gelts]

    code, red = carry_free_coder(orders)
    a_elts = list(itertools.product(*(range(o) for o in orders)))
    a_codes = [code(a) for a in a_elts]
    decode = dict(zip(a_codes, a_elts))
    size = a_codes[-1] + 1  # the codes grow with the product order
    neg = [0] * size
    acts = [[0] * size for _ in gelts]
    for c, a in zip(a_codes, a_elts):
        neg[c] = code([-x for x in a])
        for s, g in enumerate(gelts):
            acts[s][c] = code(inst.act(g, a))
    coc = [[code(inst.cocycle_in_a(s, t)) for t in gelts] for s in gelts]
    actf = [[[red[x + f] for x in acts[s]] for f in coc[s]] for s in range(n_g)]

    def mul(u, v):
        """(a, s) * (b, t) = (a + s*b + f(s, t), st), with the A part from the tables."""
        a, s = divmod(u, n_g)
        b, t = divmod(v, n_g)
        return red[a + actf[s][t][b]] * n_g + gmul[s][t]

    elements = [c * n_g + g for c in a_codes for g in range(n_g)]
    one = gidx[group.identity()]
    identity = one  # (0, 1), with code(0) = 0
    inv = [0] * (size * n_g)
    for u in elements:
        a, s = divmod(u, n_g)
        si = ginv[s]
        cand = red[neg[acts[si][a]] + neg[acts[si][coc[s][si]]]] * n_g + si
        if mul(u, cand) != identity:
            raise InternalInvariantError("oracle inverse failed verification")
        inv[u] = cand

    def generating_set(pool):
        """Walk the pool in order, keeping each element that the ones kept
        so far do not generate; the closure grows incrementally (old
        elements times the new generator, new elements times every one)."""
        gens, span = [], {identity}
        for u in pool:
            if u in span:
                continue
            gens.append(u)
            frontier = [mul(x, u) for x in span]
            while frontier:
                nxt = []
                for y in frontier:
                    if y not in span:
                        span.add(y)
                        nxt.extend(mul(y, s) for s in gens)
                frontier = nxt
        if len(span) != len(pool):
            raise InternalInvariantError("oracle pool is not a subgroup")
        return gens

    def commutator_span(pool):
        vals = set()
        for s in generating_set(pool):
            for x in pool:
                c, g = divmod(mul(mul(x, s), inv[mul(s, x)]), n_g)
                if g != one:
                    raise InternalInvariantError(
                        "commutator left the abelian normal subgroup"
                    )
                vals.add(decode[c])
        return _closure(vals, orders)

    derived = commutator_span(elements)
    degree_zero = [u for u in elements if decode[u // n_g][-1] % inst.ring.modulus == 0]
    derived_dz = commutator_span(degree_zero)

    # The transversal element (0, g) is the integer index(g).
    transfer = {}
    for u in elements:
        acc = identity
        for g in range(n_g):
            w = mul(u, g)
            acc = mul(acc, mul(inv[w % n_g], w))
        c, g = divmod(acc, n_g)
        if g != one:
            raise InternalInvariantError("transfer product left the module")
        a, s = divmod(u, n_g)
        transfer[decode[a], gelts[s]] = decode[c]

    gamma_lift = code(inst.gamma()) * n_g + one
    gamma_comms = set()
    for g in range(n_g):
        c = mul(mul(gamma_lift, g), inv[mul(g, gamma_lift)])
        gamma_comms.add(decode[c // n_g])

    return OracleFacts(
        u_order=n_u,
        u_tilde_order=len(degree_zero),
        derived=frozenset(derived),
        derived_degree_zero=frozenset(derived_dz),
        transfer=transfer,
        degree_zero_index=len(degree_zero) // len(derived),
        gamma_commutators=frozenset(_closure(gamma_comms, orders)),
    )


_ORACLE_REFERENCE_PATHS = corpus_paths() + sorted(FIXTURES.glob("*.json"))


def _oracle_outcome(oracle, inst):
    """The facts, or the type and text of what the oracle raises."""
    try:
        return oracle(inst)
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize(
    "path",
    _ORACLE_REFERENCE_PATHS,
    ids=[p.relative_to(p.parent.parent).as_posix() for p in _ORACLE_REFERENCE_PATHS],
)
def test_oracle_matches_the_reference_oracle(path):
    """Field by field, transfers in full, on each corpus instance and its
    seeded corruptions, and on each fixture; where the reference raises,
    the oracle raises the same type with the same text."""
    from tests.census import v1_corruptions

    base = load_instance(path)
    insts = [base] + (v1_corruptions(base, path.name) if path.parent.parent == CORPUS else [])
    for inst in insts:
        got = _oracle_outcome(oracle_group, inst)
        want = _oracle_outcome(_reference_oracle_group, inst)
        assert type(got) is type(want)
        if isinstance(want, tuple):
            assert got == want
            continue
        for f in dataclasses.fields(OracleFacts):
            assert getattr(got, f.name) == getattr(want, f.name), f.name


# -- corpus building -------------------------------------------------------------


def test_build_corpus_deterministic(tmp_path):
    params = SearchParams(2, 3, ((2,),), ((), (2,)), seed=3)
    comps = [ComponentSpec((2,), ()), ComponentSpec((2,), (2,))]
    m1 = build_corpus(params, comps, tmp_path / "a")
    m2 = build_corpus(params, comps, tmp_path / "b")
    assert m1 == m2
    text1 = (tmp_path / "a" / "manifest.json").read_text()
    text2 = (tmp_path / "b" / "manifest.json").read_text()
    assert text1 == text2
    names = [f["name"] for c in m1["components"] for f in c["files"]]
    for n in names:
        assert (tmp_path / "a" / n).read_text() == (tmp_path / "b" / n).read_text()


def test_build_corpus_records_exclusions(tmp_path):
    params = SearchParams(2, 3, ((2,),), ((8,),))
    manifest = build_corpus(params, [ComponentSpec((2,), (8,))], tmp_path)
    comp = manifest["components"][0]
    assert comp["mode"] == "excluded"
    assert "precision" in comp["skip_reason"]
    assert comp["count"] == 0


def test_build_corpus_sampled_mode(tmp_path):
    params = SearchParams(2, 4, ((2, 2),), ((4,),), seed=9, samples=2)
    manifest = build_corpus(
        params, [ComponentSpec((2, 2), (4,), mode="sample")], tmp_path
    )
    comp = manifest["components"][0]
    assert comp["mode"] == "sample"
    assert comp["exhausted"] is False
    assert 1 <= comp["count"] <= 2


def test_build_corpus_writes_each_sampled_instance_once(tmp_path):
    """Six samples of G = Z/2 over A~ = Z/2 repeat an instance; each one is
    written once."""
    params = SearchParams(2, 4, ((2,),), ((2,),), seed=0, samples=6)
    manifest = build_corpus(params, [ComponentSpec((2,), (2,), mode="sample")], tmp_path)
    files = [load_instance(tmp_path / f["name"]) for f in manifest["components"][0]["files"]]
    assert 1 <= len(files) < 6 and len(set(files)) == len(files)


def test_build_corpus_refuses_a_repeated_component_before_writing(tmp_path):
    params = SearchParams(2, 4, ((2,),), ((2,),))
    comps = [ComponentSpec((2,), (2,)), ComponentSpec((2,), (4,)), ComponentSpec((2,), (2,), "sample")]
    with pytest.raises(ValueError, match=r"\(\(2,\), \(2,\)\) is repeated"):
        build_corpus(params, comps, tmp_path / "c")
    assert not (tmp_path / "c").exists()


def test_estimate_space_zero_for_precision_starved():
    params = SearchParams(2, 4, (), ())
    assert estimate_space(params, (2,), (8,)) == 0


def _pinned_components():
    """The SearchParams and ComponentSpec lists of tools/build_corpus.py."""
    spec = importlib.util.spec_from_file_location("build_corpus", REPO / "tools" / "build_corpus.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return {"l2": (tool.L2, tool.L2_COMPONENTS), "l3": (tool.L3, tool.L3_COMPONENTS)}


def _product_configurations(prime, precision, g_orders, atilde_orders):
    """The reference enumeration: the full product of the per-generator
    candidates, filtered by pairwise commuting."""
    d = tuple(atilde_orders)
    modulus = prime**precision
    orders = d + (modulus,)
    per_gen = [_generator_candidates(d, o) for o in g_orders]
    configs = []
    for combo in itertools.product(*per_gen):
        mats = tuple(_full_matrix(p, q, modulus) for p, q in combo)
        if all(
            mat_mul(x, y, orders) == mat_mul(y, x, orders)
            for x, y in itertools.combinations(mats, 2)
        ):
            configs.append(mats)
    return configs


def test_depth_first_configurations_equal_the_filtered_product():
    shapes = [
        (params.prime, params.precision, c.g_orders, c.atilde_orders)
        for params, components in _pinned_components().values()
        for c in components
    ]
    shapes += [(2, 4, (2, 2, 2), (2,)), (2, 4, (2, 2, 2), (2, 2)), (2, 4, (2, 4), (2,))]
    for shape in shapes:
        assert action_configurations(*shape) == _product_configurations(*shape), shape


@pytest.mark.parametrize(
    "label,shape",
    [
        ("l2", ((2,), (2, 2, 2))),  # exhaustive
        ("l2", ((2,), (8,))),  # excluded by the precision floor
        ("l3", ((3,), (3, 3))),  # sampled
        # the other pinned components, in the order of tools/build_corpus.py
        ("l2", ((2,), ())),
        ("l2", ((2,), (2,))),
        ("l2", ((2,), (4,))),
        ("l2", ((2,), (2, 2))),
        ("l2", ((2,), (2, 4))),
        ("l2", ((4,), ())),
        ("l2", ((4,), (2,))),
        ("l2", ((4,), (4,))),
        ("l2", ((4,), (2, 2))),
        ("l2", ((4,), (2, 2, 2))),
        ("l2", ((2, 2), ())),
        ("l2", ((2, 2), (2,))),
        ("l2", ((2, 2), (4,))),
        ("l2", ((2, 2), (2, 2))),
        ("l2", ((2, 2), (2, 4))),
        ("l2", ((2, 2), (2, 2, 2))),
        ("l3", ((3,), ())),
        ("l3", ((3,), (3,))),
        ("l3", ((3,), (9,))),
        ("l3", ((3, 3), ())),
        ("l3", ((3, 3), (3,))),
    ],
)
def test_rebuilt_component_matches_the_shipped_corpus(tmp_path, label, shape):
    params, components = _pinned_components()[label]
    (comp,) = [c for c in components if (c.g_orders, c.atilde_orders) == shape]
    shipped = json.loads((CORPUS / label / "manifest.json").read_text(encoding="utf-8"))
    (shipped_entry,) = [
        e for e in shipped["components"] if (tuple(e["G"]), tuple(e["Atilde"])) == shape
    ]
    manifest = build_corpus(params, [comp], tmp_path)
    assert {k: v for k, v in manifest.items() if k != "components"} == {
        k: v for k, v in shipped.items() if k != "components"
    }
    assert manifest["components"] == [shipped_entry]
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.json")
    assert written == sorted(f["name"] for f in shipped_entry["files"])
    for f in shipped_entry["files"]:
        assert hashlib.sha256((tmp_path / f["name"]).read_bytes()).hexdigest() == f["sha256"]


@pytest.mark.parametrize("prime, precision", [(2, 3), (3, 2)])
def test_kernel_mod_orders_matches_the_full_diagonal_preimage(prime, precision):
    """Condition columns whose orders mix N = exp(T) with smaller powers of
    l, on unreduced rows: the relation rows kept for the columns of order
    below N give the preimage of the whole torsion diagonal, and on small
    systems exactly the set of x with (x * rows)[c] = 0 mod orders[c]."""
    ring = ZModRing(prime, precision)
    N = ring.modulus
    space = SimpleNamespace(shape=SimpleNamespace(ring=ring))
    rnd = random.Random(31 * N)
    for trial in range(24):
        if trial < 8:
            nvars, width = rnd.randint(1, 2), rnd.randint(1, 4)
        else:
            nvars, width = rnd.randint(2, 10), rnd.randint(2, 20)
        rows = [[rnd.choice([0, 0, rnd.randrange(-N, N)]) for _ in range(width)] for _ in range(nvars)]
        orders = [rnd.choice([N, N, prime, prime ** (precision - 1)]) for _ in range(width)]
        got = _CocycleSpace._kernel_mod_orders(space, rows, orders)
        diagonal = Submodule.from_generators(ring, width, torsion_rows(orders, width))
        assert got == preimage([[x % N for x in r] for r in rows], diagonal, ring)
        if trial < 8:
            brute = {
                x
                for x in itertools.product(range(N), repeat=nvars)
                if all(
                    sum(a * r[c] for a, r in zip(x, rows)) % o == 0 for c, o in enumerate(orders)
                )
            }
            assert set(span_elements(got)) == brute
