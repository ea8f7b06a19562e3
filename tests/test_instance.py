import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest

from logcap.instance import (
    CheckResult,
    RejectedShiftError,
    SchemaError,
    build_instance,
    coboundary_shift,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    validate,
)
from tests.conftest import FIXTURES, REPO, corpus_paths, random_admissible_shift


def test_e1_validates(e1):
    rep = validate(e1)
    assert rep.ok
    assert [c.name for c in rep.checks] == [
        "precision-rule",
        "action-block-structure",
        "action-well-defined",
        "action-commutes",
        "action-order",
        "cocycle-normalized",
        "cocycle-identity",
        "cocycle-inverse-convention",
        "H1",
        "degree-zero-index",
    ]


def test_validate_is_deterministic(e1):
    r1 = validate(e1)
    r2 = validate(e1)
    assert r1 == r2


def test_trivial_torsion_validates(trivial_atilde):
    assert validate(trivial_atilde).ok


def test_inst33_validates(inst33):
    assert validate(inst33).ok


def test_nonzero_diagonal_breaks_inverse_convention():
    # for G = Z/2 a nonzero a_{tau,tau} still satisfies associativity, so
    # the failure surfaces in the inverse convention, not the identity
    bad = build_instance(2, 3, [2], [2], [[[1, 0], [1, 1]]], {((1,), (1,)): [1]})
    rep = validate(bad)
    assert not rep.ok
    assert rep.failed_names() == ("cocycle-inverse-convention",)


def test_corrupted_fixture_fails_cocycle_identity(corrupted):
    rep = validate(corrupted)
    assert rep.failed_names() == ("cocycle-identity",)


def test_h1_fixture_fails_h1(h1_violating):
    rep = validate(h1_violating)
    assert "H1" in rep.failed_names()


def test_precision_rule_enforced():
    # E1 needs n >= 1 + 1 + 1 = 3
    low = build_instance(2, 2, [2], [2], [[[1, 0], [1, 1]]], {})
    rep = validate(low)
    assert "precision-rule" in rep.failed_names()


def test_action_order_check():
    # tau of order 2 must act with order dividing 2; gamma -> gamma + alpha
    # over Z/4 torsion gives tau^2(gamma) = gamma + 2 alpha != gamma
    bad = build_instance(2, 4, [2], [4], [[[1, 0], [1, 1]]], {})
    rep = validate(bad)
    assert "action-order" in rep.failed_names()


def test_action_block_structure_check():
    # torsion generator leaking into the gamma coordinate
    bad = build_instance(2, 3, [2], [2], [[[1, 1], [1, 1]]], {})
    rep = validate(bad)
    assert "action-block-structure" in rep.failed_names()


# one broken instance per check, with the exact detail that check reports
_DETAIL_CASES = [
    (
        (2, 3, [2], [2], [[[1, 1], [1, 3]]], {}),
        "action-block-structure",
        "tau_1 row 0 has gamma component 1; tau_1 moves deg: gamma coefficient 3",
    ),
    (
        (2, 4, [2], [2, 4], [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]], {}),
        "action-well-defined",
        "tau_1[0][1] breaks torsion",
    ),
    (
        # the two generators agree on e_0 and e_1, not on gamma
        (
            2, 3, [2, 2], [2, 2],
            [[[1, 0, 0], [0, 1, 0], [0, 1, 1]], [[1, 0, 0], [1, 1, 0], [0, 0, 1]]],
            {},
        ),
        "action-commutes",
        "tau_1 and tau_2 disagree on e_2",
    ),
    (
        (2, 4, [2], [4, 4], [[[1, 1, 0], [0, 1, 0], [1, 0, 1]]], {}),
        "action-order",
        "tau_1^2 is not the identity on e_0; tau_1^2 is not the identity on e_2",
    ),
    (
        (2, 3, [2], [2], [[[1, 0], [1, 1]]], {((0,), (1,)): [1]}),
        "cocycle-normalized",
        "nonzero entry at identity pair with (1,)",
    ),
    (
        (2, 3, [2], [2], [[[1, 0], [1, 1]]], {((1,), (1,)): [1]}),
        "cocycle-inverse-convention",
        "nonzero at ((1,), (1,))",
    ),
    (
        # ten bad triples: the first two under s = (1,), the next under
        # s = (2,); the detail keeps four of them
        (2, 4, [4], [2], [[[1, 0], [1, 1]]], {((2,), (1,)): [1]}),
        "cocycle-identity",
        "triple ((1,), (1,), (1,)); triple ((1,), (2,), (1,));"
        " triple ((2,), (1,), (1,)); triple ((2,), (1,), (2,))",
    ),
    (
        (2, 2, [2], [2], [[[1, 0], [1, 1]]], {}),
        "precision-rule",
        "n = 2 < 1 + 1 + 1",
    ),
    (
        # a trivial action and factor set: U is abelian, so U' = 0
        (2, 3, [2], [2], [[[1, 0], [0, 1]]], {}),
        "H1",
        "derived subgroup has order 1 inside torsion of order 2",
    ),
    (
        (2, 3, [2], [2], [[[1, 0], [0, 1]]], {}),
        "degree-zero-index",
        "index 4 != |G| = 2",
    ),
]


@pytest.mark.parametrize("args, name, detail", _DETAIL_CASES, ids=[c[1] for c in _DETAIL_CASES])
def test_validation_failure_detail(args, name, detail):
    checks = {c.name: c for c in validate(build_instance(*args)).checks}
    assert not checks[name].passed
    assert checks[name].detail == detail


def test_zero_shift_is_identity(e1):
    shifted = coboundary_shift(e1, {})
    assert shifted == e1


def test_e1_shift_by_alpha_is_invisible(e1):
    # a'_{tau,tau} = 0 + alpha + tau.alpha - c_1 = 2 alpha = 0
    shifted = coboundary_shift(e1, {(1,): (1,)})
    assert shifted == e1


def test_shift_preserves_validation_verdicts(inst33, rng):
    base = validate(inst33)
    for _ in range(5):
        c = random_admissible_shift(inst33, rng)
        shifted = coboundary_shift(inst33, c)
        assert validate(shifted).checks == base.checks


def test_shift_rejected_when_convention_breaks():
    # G = Z/4, torsion Z/2, trivial torsion action: a shift with
    # c_tau != c_{tau^3} moves a_{tau,tau^3} away from zero
    inst = build_instance(2, 4, [4], [2], [[[1, 0], [1, 1]]], {})
    with pytest.raises(RejectedShiftError):
        coboundary_shift(inst, {(1,): (1,), (3,): (0,)})


def test_json_roundtrip(e1):
    data = instance_to_dict(e1)
    again = instance_from_dict(json.loads(json.dumps(data)))
    assert again == e1


def test_fixture_file_loads_as_e1(e1):
    loaded = load_instance(FIXTURES / "e1.json")
    assert loaded == e1


def test_unknown_top_level_key_rejected(e1):
    data = instance_to_dict(e1)
    data["comment"] = "nope"
    with pytest.raises(SchemaError, match="unknown top-level"):
        instance_from_dict(data)


def test_unknown_action_key_rejected(e1):
    data = instance_to_dict(e1)
    data["A"]["action"]["tau_2"] = [[1, 0], [0, 1]]
    with pytest.raises(SchemaError, match="action keys"):
        instance_from_dict(data)


def test_bad_cocycle_key_rejected(e1):
    data = instance_to_dict(e1)
    data["cocycle"]["5"] = [0]
    with pytest.raises(SchemaError, match="cocycle key"):
        instance_from_dict(data)


@pytest.mark.parametrize("spelling", ["01,1", " 1,1", "+1,1", "1,0_1", "1,1 "])
@pytest.mark.parametrize("canonical_first", [True, False])
def test_noncanonical_cocycle_key_rejected(e1, spelling, canonical_first):
    # int() reads each of these as (1,), (1,); if they were accepted, the
    # two spellings of one pair would overwrite each other in key order
    entries = [("1,1", [1]), (spelling, [0])]
    data = instance_to_dict(e1)
    data["cocycle"] = dict(entries if canonical_first else entries[::-1])
    with pytest.raises(SchemaError, match=re.escape(f"cocycle key {spelling!r}")):
        instance_from_dict(data)


def test_bad_cocycle_value_length_rejected(e1):
    data = instance_to_dict(e1)
    data["cocycle"]["1,1"] = [0, 0]
    with pytest.raises(SchemaError):
        instance_from_dict(data)


def test_wrong_matrix_shape_rejected():
    with pytest.raises(SchemaError, match="not 2x2"):
        build_instance(2, 3, [2], [2], [[[1, 0, 0], [1, 1, 0]]], {})


def test_non_l_power_orders_rejected():
    with pytest.raises(SchemaError):
        build_instance(2, 3, [3], [2], [[[1, 0], [0, 1]]], {})
    with pytest.raises(SchemaError):
        build_instance(2, 3, [2], [6], [[[1, 0], [0, 1]]], {})


def test_element_arithmetic_and_degree(e1):
    gamma = e1.gamma()
    assert gamma[-1] % e1.ring.modulus == 1
    alpha = e1.atilde_embed((1,))
    assert alpha[-1] % e1.ring.modulus == 0
    assert e1.a_add(gamma, gamma) == (0, 2)
    assert e1.a_sub(alpha, alpha) == (0, 0)
    # tau: gamma -> gamma + alpha, alpha fixed
    assert e1.act((1,), gamma) == (1, 1)
    assert e1.act((1,), alpha) == alpha
    assert e1.a_tau((1,)) == (1, 0)


def _torsion_value(inst, s, g):
    """f(s, g) in the torsion coordinates: its value in A, gamma cut off."""
    return inst.cocycle_in_a(s, g)[: inst.torsion_rank]


def _cocycle_identity_on_tuples(inst):
    """The cocycle-identity check written out on coordinate tuples: every
    triple in element order, s*f(g, r) - f(sg, r) + f(s, gr) - f(s, g)
    reduced at the end, the first four bad triples kept, and the walk cut
    after any s that brings the count past three."""
    group = inst.group
    bad = []
    for s in group.elements():
        for g in group.elements():
            for r in group.elements():
                terms = zip(
                    inst.atilde_act(s, _torsion_value(inst, g, r)),
                    _torsion_value(inst, group.mul(s, g), r),
                    _torsion_value(inst, s, group.mul(g, r)),
                    _torsion_value(inst, s, g),
                )
                if any(inst.atilde_reduce([w - x + y - z for w, x, y, z in terms])):
                    bad.append(f"triple ({s}, {g}, {r})")
        if len(bad) > 3:
            break
    return CheckResult("cocycle-identity", not bad, "; ".join(bad[:4]))


def _identity_and_inverse_checks_on_tuples(inst):
    """cocycle-normalized and cocycle-inverse-convention written out on
    coordinate tuples."""
    group, one = inst.group, inst.group.identity()
    bad = [
        f"nonzero entry at identity pair with {g}"
        for g in group.elements()
        if any(_torsion_value(inst, one, g)) or any(_torsion_value(inst, g, one))
    ]
    inverse = [
        f"nonzero at ({g}, {group.inv(g)})"
        for g in group.elements()
        if any(_torsion_value(inst, g, group.inv(g)))
    ]
    return (
        CheckResult("cocycle-normalized", not bad, "; ".join(bad)),
        CheckResult("cocycle-inverse-convention", not inverse, "; ".join(inverse)),
    )


def _one_per_shape():
    """The first corpus instance of every shipped (l, G, A~) shape."""
    seen = {}
    for path in corpus_paths():
        inst = load_instance(path)
        seen.setdefault((inst.prime, inst.group.orders, inst.atilde_orders), path)
    return list(seen.values())


_REFERENCE_PATHS = _one_per_shape() + sorted(FIXTURES.glob("*.json"))


def _corruptions(inst, seed, count=3):
    """inst, then count copies with one to three factor-set entries set to
    seeded random nonzero values (identity pairs included)."""
    rnd = random.Random(seed)
    elts = inst.group.elements()
    nonzero = list(itertools.product(*(range(o) for o in inst.atilde_orders)))[1:]
    out = [inst]
    for _ in range(count if nonzero else 0):
        data = instance_to_dict(inst)
        for _ in range(rnd.randint(1, 3)):
            s, g = rnd.choice(elts), rnd.choice(elts)
            data["cocycle"][",".join(map(str, s + g))] = list(rnd.choice(nonzero))
        out.append(instance_from_dict(data))
    return out


def _assert_matches_reference(inst):
    report = validate(inst)
    want = _cocycle_identity_on_tuples(inst)
    wants = {c.name: c for c in (want, *_identity_and_inverse_checks_on_tuples(inst))}
    assert report.checks == tuple(wants.get(c.name, c) for c in report.checks)
    return want


@pytest.mark.parametrize(
    "path", _REFERENCE_PATHS, ids=[p.relative_to(p.parent.parent).as_posix() for p in _REFERENCE_PATHS]
)
def test_cocycle_identity_matches_the_tuple_loop(path):
    base = load_instance(path)
    results = [_assert_matches_reference(inst) for inst in _corruptions(base, path.name)]
    assert any(not r.passed for r in results) == bool(base.atilde_orders)


def test_cocycle_identity_matches_the_tuple_loop_on_an_ill_defined_action():
    # tau_1 sends e_0 to e_0 + e_1, but 2 e_0 = 0 while 2 (e_0 + e_1) != 0
    # in Z/2 x Z/4: the check must reduce f(g, r) before acting, as
    # atilde_act does
    args = (2, 4, [4], [2, 4], [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]], {})
    base = build_instance(*args)
    assert "action-well-defined" in validate(base).failed_names()
    results = [_assert_matches_reference(inst) for inst in _corruptions(base, 7, count=8)]
    assert sum(not r.passed for r in results) >= 4
    assert any(r.detail.count("triple") == 4 for r in results)



_CAPPED_VALIDATE = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from logcap.instance import instance_from_dict, validate
report = validate(instance_from_dict(json.load(sys.stdin)))
print(json.dumps([[c.name, c.passed, c.detail] for c in report.checks]))
"""


@pytest.mark.parametrize(
    "atilde, precision", [([2**40], 43), ([2] * 30, 4)], ids=["A~=Z/2^40", "A~=(Z/2)^30"]
)
def test_validate_cost_does_not_grow_with_the_torsion_order(atilde, precision):
    # A table over every sum of two codes of A~ would have 2^41 - 1 or 3^30
    # entries.  validate runs in a child process whose address space is
    # capped at 256 MB, where such a table ends in a MemoryError; its
    # cocycle-identity check must agree with the tuple loop.
    rnd = random.Random(len(atilde))
    t = len(atilde)
    one = [[int(i == j) for j in range(t + 1)] for i in range(t + 1)]
    nonid = [(1,), (2,), (3,)]
    table = {(s, g): [rnd.randrange(o) for o in atilde] for s in nonid for g in nonid}
    inst = build_instance(2, precision, [4], atilde, [one], table)
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_VALIDATE],
        input=json.dumps(instance_to_dict(inst)),
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    checks = {name: CheckResult(name, passed, detail) for name, passed, detail in json.loads(proc.stdout)}
    want = _cocycle_identity_on_tuples(inst)
    assert checks[want.name] == want and not want.passed
