import json
import re

import pytest

from logcap.instance import (
    RejectedShiftError,
    SchemaError,
    build_instance,
    coboundary_shift,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    validate,
)
from tests.conftest import FIXTURES, random_admissible_shift


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
