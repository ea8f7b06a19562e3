import json
import random
from itertools import product

import pytest

from logcap import extension, resolvent
from logcap.extension import u_order
from logcap.instance import coboundary_shift, load_instance
from logcap.resolvent import log_iso, trace
from logcap.verifier import CHECK_ARITHMETIC, CHECK_IDS, Verdict, run_all, run_check
from tests import census
from tests.census import v1_corruptions
from tests.conftest import CORPUS, FIXTURES, corpus_paths, random_admissible_shift, span_elements


def test_e1_all_checks_pass(e1):
    rep = run_all(e1)
    assert rep.validation.ok
    assert [v.check_id for v in rep.verdicts] == list(CHECK_IDS)
    assert all(v.status == "pass" for v in rep.verdicts)


def test_e1_key_quantities(e1):
    rep = run_all(e1)
    by_id = {v.check_id: v for v in rep.verdicts}
    assert rep.delta == {}  # delta = 0
    assert by_id["V6"].witness["trace_image_order"] == 1
    assert by_id["V9"].witness["index"] == 2
    assert by_id["V1"].witness == {"elements_checked": 2}
    assert rep.certificate_hash is not None


def test_inst33_all_checks_pass(inst33):
    rep = run_all(inst33)
    assert rep.validation.ok
    assert all(v.status == "pass" for v in rep.verdicts)
    by_id = {v.check_id: v for v in rep.verdicts}
    assert by_id["V8"].witness["boundary_order"] == 3
    assert by_id["V9"].witness["index"] == 9


def test_rank_three_group_passes_every_check(rank3):
    assert u_order(rank3) == 256
    rep = run_all(rank3, oracle_bound=4096)
    assert {v.check_id: v.status for v in rep.verdicts} == dict.fromkeys(CHECK_IDS, "pass")
    m_matrix = rank3.frame.relations[0].m_matrix
    assert len(m_matrix) == 3 and all(len(row) == 3 for row in m_matrix)


def test_rank_five_group_passes_every_check(rank5):
    assert u_order(rank5) == 256
    rep = run_all(rank5, oracle_bound=4096)
    assert {v.check_id: v.status for v in rep.verdicts} == dict.fromkeys(CHECK_IDS, "pass")
    m_matrix = rank5.frame.relations[0].m_matrix
    assert len(m_matrix) == 5 and all(len(row) == 5 for row in m_matrix)


def test_trivial_torsion_everything_vacuous(trivial_atilde):
    rep = run_all(trivial_atilde)
    assert rep.validation.ok
    assert all(v.status == "pass" for v in rep.verdicts)
    by_id = {v.check_id: v for v in rep.verdicts}
    assert by_id["V6"].witness["trace_image_order"] == 1
    assert by_id["V5"].witness["omega_image_order"] == 1


def test_h1_failure_gates_all_checks(h1_violating):
    rep = run_all(h1_violating)
    assert not rep.validation.ok
    for v in rep.verdicts:
        assert v.status == "hypothesis-failed"
        assert "H1" in v.witness["failed_validation"]


def test_single_check_gating(h1_violating):
    v = run_check(h1_violating, "V1")
    assert v.status == "hypothesis-failed"


def test_single_check_runs(e1):
    v = run_check(e1, "V9")
    assert v.status == "pass" and v.witness["index"] == 2


def test_single_check_does_not_build_the_certificate(monkeypatch):
    """Only V3, V6 and V8 read the relation certificate, so V1 alone
    solves no relation system."""

    def no_solve(*args):
        raise AssertionError("the certificate was built")

    monkeypatch.setattr(resolvent, "solve", no_solve)
    v = run_check(load_instance(CORPUS / "l3" / "p3_n3_G3_A3_000.json"), "V1")
    assert v.status == "pass"


def test_unknown_check_id_rejected(e1):
    with pytest.raises(ValueError):
        run_check(e1, "V11")


def test_forced_run_on_corrupted_cocycle_emits_witness(corrupted):
    # gated by default
    gated = run_all(corrupted)
    assert all(v.status == "hypothesis-failed" for v in gated.verdicts)
    # forced: the broken factor set breaks the transfer/trace diagram
    rep = run_all(corrupted, force=True)
    by_id = {v.check_id: v for v in rep.verdicts}
    assert by_id["V1"].status == "fail"
    w = by_id["V1"].witness
    assert set(w) == {"element", "transfer", "trace_of_log"}
    assert w["transfer"] != w["trace_of_log"]


def test_verdicts_invariant_under_coboundary_shift(inst33, rng):
    base = run_all(inst33)
    base_statuses = [(v.check_id, v.status) for v in base.verdicts]
    for _ in range(3):
        shifted = coboundary_shift(inst33, random_admissible_shift(inst33, rng))
        rep = run_all(shifted)
        assert [(v.check_id, v.status) for v in rep.verdicts] == base_statuses


def test_oracle_check_skipped_above_bound(e1):
    v = run_check(e1, "V10", oracle_bound=16)
    assert v.status == "skipped"
    assert "exceeds bound" in v.witness["reason"]


def test_v1_verdict_does_not_depend_on_the_oracle_bound(e1, inst33, rank3, corrupted):
    for inst in (e1, inst33, rank3, corrupted):
        verdicts = {
            json.dumps(run_check(inst, "V1", oracle_bound=bound, force=True).to_dict())
            for bound in (0, 1, 4096)
        }
        assert len(verdicts) == 1


def test_v1_checks_group_order_elements_on_the_corpus():
    # (0, tau) for every tau in G
    paths = corpus_paths()
    assert len(paths) == 55
    for path in paths:
        inst = load_instance(path)
        v = run_check(inst, "V1")
        want = {"elements_checked": inst.group.size()}
        assert (v.status, v.witness) == ("pass", want), path.name


def test_v1_generator_walk_witness_on_corrupted_cocycle(corrupted):
    v = run_check(corrupted, "V1", oracle_bound=0, force=True)
    assert v.status == "fail"
    assert v.witness == {
        "element": {"a": [0, 0], "tau": [1]},
        "transfer": [1, 0],
        "trace_of_log": [0, 0],
    }


def _v1_on_all_of_u(inst):
    """V1 as a walk over all of U, A coordinates outer and G inner, up to
    the first pair where the transfer and the trace of the logarithm
    differ: (status, failure witness or None)."""
    try:
        a_coords = product(*(range(o) for o in inst.frame.orders))
        for a, tau in product(a_coords, inst.group.elements()):
            via_transfer = extension.transfer(inst, a, tau)
            via_trace = trace(inst, log_iso(inst, a, tau).to_vec())
            if via_transfer != via_trace:
                return "fail", {
                    "element": {"a": list(a), "tau": list(tau)},
                    "transfer": list(via_transfer),
                    "trace_of_log": list(via_trace),
                }
    except Exception as e:
        return "fail", {"error": f"{type(e).__name__}: {e}"}
    return "pass", None


def _v1_matches_the_walk(inst):
    v = run_check(inst, "V1", force=True)
    status, failure = _v1_on_all_of_u(inst)
    assert v.status == status
    if failure is not None:
        assert v.witness == failure
    return v


_V1_REFERENCE_PATHS = census.BASE_PATHS


@pytest.mark.parametrize(
    "path",
    _V1_REFERENCE_PATHS,
    ids=[p.relative_to(p.parent.parent).as_posix() for p in _V1_REFERENCE_PATHS],
)
def test_v1_matches_the_walk_over_u(path):
    _v1_matches_the_walk(load_instance(path))


def test_v1_matches_the_walk_over_u_on_seeded_corruptions():
    # forced copies of every corpus instance and fixture with |U| <= 256
    failed_at = []
    for path in _V1_REFERENCE_PATHS:
        base = load_instance(path)
        if u_order(base) > 256:
            continue
        group = base.group
        for inst in v1_corruptions(base, path.name):
            v = _v1_matches_the_walk(inst)
            if v.status == "fail":
                tau = tuple(v.witness["element"]["tau"])
                if tau == group.identity():
                    failed_at.append("identity")
                else:
                    failed_at.append("generator" if tau in group.generators() else "other")
    assert len(failed_at) >= 10
    assert {"identity", "other"} <= set(failed_at)


def _capture_oracle_facts(monkeypatch):
    """Wrap forge.oracle_group: each call appends its facts, or None when
    the oracle raises."""
    from logcap import forge

    oracle_group = forge.oracle_group
    captured = []

    def capturing(inst, bound=2**12):
        captured.append(None)
        captured[-1] = oracle_group(inst, bound=bound)
        return captured[-1]

    monkeypatch.setattr(forge, "oracle_group", capturing)
    return captured


def _subgroup_mismatches_by_element_sets(inst, facts):
    """V10's derived-subgroup entries as an element-set comparison: every
    element of the frame's submodule, reduced, against the oracle's set."""
    mismatches = {}
    for key in ("derived", "derived_degree_zero"):
        formula = {inst.a_reduce(v) for v in span_elements(getattr(inst.frame, key))}
        oracle = getattr(facts, key)
        if formula != oracle:
            mismatches[key] = {"formula_order": len(formula), "oracle_order": len(oracle)}
    return mismatches


def test_v10_subgroup_entries_match_the_element_set_comparison(monkeypatch):
    # the corpus-oracle instances, the fixtures and their corruptions, run
    # as forced; the reference reads the facts of V10's own oracle run.  The
    # check is called directly, since run_check's certificate is not read
    from logcap.verifier import _CHECKS

    bases = [p for p in _V1_REFERENCE_PATHS if u_order(load_instance(p)) <= 256]
    assert len(bases) == 42 + 3
    captured = _capture_oracle_facts(monkeypatch)
    compared, found = 0, set()
    for path in bases:
        base = load_instance(path)
        for inst in [base, *v1_corruptions(base, path.name)]:
            captured.clear()
            try:
                v = _CHECKS["V10"](inst, 4096)
            except Exception:
                assert captured == [None]
                continue
            assert len(captured) == 1
            want = _subgroup_mismatches_by_element_sets(inst, captured[0])
            got = v.witness.get("mismatches", {})
            assert {k: got[k] for k in want.keys() & got.keys()} == want
            assert not {"derived", "derived_degree_zero"} & (got.keys() - want.keys())
            compared += 1
            found |= want.keys()
    assert compared > 150 and found == {"derived_degree_zero"}


def test_v10_fails_on_a_derived_set_that_is_not_the_whole_subgroup(inst33, monkeypatch):
    from dataclasses import replace

    from logcap import forge

    facts = forge.oracle_group(inst33, bound=4096)
    n = len(facts.derived)
    assert n > 1 and inst33.frame.size(inst33.frame.derived) == n
    zero = inst33.a_zero()
    outside = next(
        v for v in product(*(range(o) for o in inst33.frame.orders)) if v not in inst33.frame.derived
    )
    # dropping zero keeps the span, so only the size test sees it; adding a
    # vector outside changes both; swapping zero for it keeps the size, so
    # only the span test sees it
    assert inst33.span_a(facts.derived - {zero}) == inst33.frame.derived
    for derived, want in (
        (facts.derived - {zero}, {"formula_order": n, "oracle_order": n - 1}),
        (facts.derived | {outside}, {"formula_order": n, "oracle_order": n + 1}),
        (facts.derived - {zero} | {outside}, {"formula_order": n, "oracle_order": n}),
    ):
        patched = replace(facts, derived=derived)
        monkeypatch.setattr(forge, "oracle_group", lambda inst, bound: patched)
        v = run_check(inst33, "V10", oracle_bound=4096)
        assert v.status == "fail"
        assert v.witness["mismatches"] == {"derived": want}


def test_v10_verdict_does_not_depend_on_the_order_of_the_oracle_transfers(monkeypatch):
    from dataclasses import replace

    from logcap import forge

    insts = [load_instance(p) for p in corpus_paths()]
    insts = [inst for inst in insts if u_order(inst) <= 256]
    want = [run_check(inst, "V10", oracle_bound=4096) for inst in insts]
    assert len(insts) >= 42 and all(v.status == "pass" for v in want)
    oracle = forge.oracle_group

    def reversed_transfers(inst, bound):
        facts = oracle(inst, bound)
        return replace(facts, transfer=dict(reversed(facts.transfer.items())))

    monkeypatch.setattr(forge, "oracle_group", reversed_transfers)
    assert [run_check(inst, "V10", oracle_bound=4096) for inst in insts] == want


@pytest.mark.parametrize("k", [1, 3])
def test_v10_counts_each_changed_transfer_value(inst33, monkeypatch, k):
    from dataclasses import replace

    from logcap import forge

    facts = forge.oracle_group(inst33, bound=4096)
    transfer = dict(facts.transfer)
    orders = inst33.frame.orders
    for key in random.Random(k).sample(sorted(transfer), k):
        transfer[key] = tuple((x + 1) % o for x, o in zip(transfer[key], orders))
    patched = replace(facts, transfer=transfer)
    monkeypatch.setattr(forge, "oracle_group", lambda inst, bound: patched)
    v = run_check(inst33, "V10", oracle_bound=4096)
    assert v.status == "fail"
    assert v.witness["mismatches"] == {"transfer_disagreements": k}


def test_v10_fails_on_gamma_commutators_that_do_not_span_ig_gamma():
    # a seeded corruption whose law still has inverses and the formula's
    # derived subgroups, but whose gamma commutators span only zero while
    # I_G * gamma has order 4
    path = CORPUS / "l2" / "p2_n4_G2_A4_001.json"
    inst = v1_corruptions(load_instance(path), path.name)[1]
    v = run_check(inst, "V10", oracle_bound=4096, force=True)
    assert v.status == "fail"
    assert v.witness["mismatches"] == {
        "gamma_commutators": {"formula_order": 4, "oracle_order": 1}
    }


# The conditions of the failure census that fire on some input, and those
# that fire on none.  A condition joins one of the two in the change that
# adds it; CHANGES.md gives the reason each never-firing one is kept.
CENSUS_FIRES = {
    ("V1", "element"),
    ("V2", "lhs_basis"),
    ("V3", "error"),
    ("V3", "trace_values_outside_ig_gamma"),
    ("V4", "genus"),
    ("V5", "error"),
    ("V5", "generation"),
    ("V5", "routes_disagree"),
    ("V6", "error"),
    ("V6", "images_equal"),
    ("V6", "mismatches"),
    ("V7", "error"),
    ("V7", "nonzero_traces"),
    ("V8", "error"),
    ("V8", "violations"),
    ("V9", "error"),
    ("V9", "index"),
    ("V10", "degree_zero_index"),
    ("V10", "derived_degree_zero"),
    ("V10", "error"),
    ("V10", "gamma_commutators"),
    ("V10", "transfer_disagreements"),
}
CENSUS_NEVER_FIRES = {("V10", "derived")}


def test_failure_census_pins_the_conditions_that_fire():
    fired = census.fired()
    assert set(fired) == CENSUS_FIRES
    assert census.CONDITIONS - CENSUS_FIRES == CENSUS_NEVER_FIRES


def test_failure_census_coboundary_shifts_keep_every_status():
    statuses = {}
    for (family, base, _), rep in zip(census.inputs(), census.run()):
        if family in ("base", "coboundary"):
            statuses.setdefault(base, []).append([v.status for v in rep.verdicts])
    assert len(statuses) == len(census.BASE_PATHS)
    assert all(len(pair) == 2 and pair[0] == pair[1] for pair in statuses.values())


@pytest.mark.parametrize(
    "verdict",
    [
        Verdict("V4", "fail", {"degree_zero_derived_order": 1, "new_key": 1}),
        Verdict("V6", "fail", {"error": "ValueError: not a known failure"}),
        Verdict("V9", "fail", {"index": 2, "group_order": 2}),
        Verdict("V10", "fail", {"u_order": 8, "derived_order": 2, "mismatches": {"new": 1}}),
    ],
)
def test_failure_census_refuses_a_condition_it_does_not_know(verdict):
    with pytest.raises(census.UnknownCondition):
        census.conditions(verdict)


def test_report_serialization_roundtrip(e1):
    rep = run_all(e1)
    payload = rep.to_dict()
    text = json.dumps(payload, sort_keys=True)
    again = json.loads(text)
    assert again["checks"][0]["check"] == "V1"
    assert again["validation"]["ok"] is True


def test_markdown_report_contains_table(e1, tmp_path, capsys):
    from logcap.cli import main
    from logcap.instance import save_instance

    path = tmp_path / "e1.json"
    save_instance(e1, path)
    assert main(["verify", str(path), "--format", "markdown"]) == 0
    md = capsys.readouterr().out
    assert "| V1 | pass |" in md
    assert "certificate `" in md


def test_run_check_reports_a_crashing_check_as_fail(e1, monkeypatch):
    from logcap import verifier

    def crash(inst, oracle_bound):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(verifier._CHECKS, "V4", crash)
    v = run_check(e1, "V4")
    assert v.status == "fail"
    assert v.witness == {"error": "ZeroDivisionError: boom"}
    assert run_all(e1).verdicts[3] == v


def test_checks_share_the_instance_certificate(monkeypatch):
    from logcap import resolvent
    from logcap.instance import build_instance

    calls = []
    solve_relations = resolvent.relation_matrices

    def counted(inst):
        calls.append(inst)
        return solve_relations(inst)

    monkeypatch.setattr(resolvent, "relation_matrices", counted)
    fresh_e1 = build_instance(2, 3, [2], [2], [[[1, 0], [1, 1]]], {})
    assert run_check(fresh_e1, "V3").status == "pass"
    assert run_check(fresh_e1, "V6").status == "pass"
    rep = run_all(fresh_e1)
    assert rep.validation.ok and all(v.status == "pass" for v in rep.verdicts)
    assert len(calls) == 1


def test_each_derived_submodule_is_built_once(monkeypatch):
    from logcap import extension
    from logcap.instance import load_instance

    calls = []
    derived_subgroup = extension.derived_subgroup

    def counted(inst, degree_zero=False):
        calls.append(degree_zero)
        return derived_subgroup(inst, degree_zero)

    monkeypatch.setattr(extension, "derived_subgroup", counted)
    e1 = load_instance(FIXTURES / "e1.json")
    run_all(e1, oracle_bound=4096)
    assert sorted(calls) == [False, True]
    # validation, V4 and V10 all read the frame's two derived subgroups
    assert run_check(e1, "V4", oracle_bound=4096).status == "pass"
    assert run_check(e1, "V10", oracle_bound=4096).status == "pass"
    assert len(calls) == 2


def test_each_instance_is_validated_once(monkeypatch):
    from logcap import instance, resolvent

    calls = []
    validate = instance.validate

    def counted(inst):
        calls.append(inst)
        return validate(inst)

    # the frame calls validate through resolvent's module-level binding
    for module in (instance, resolvent):
        monkeypatch.setattr(module, "validate", counted)
    e1 = instance.load_instance(FIXTURES / "e1.json")
    assert run_all(e1, oracle_bound=4096).validation.ok
    # run_check reads the frame's report instead of validating again
    assert run_check(e1, "V4", oracle_bound=4096).status == "pass"
    assert run_check(e1, "V10", oracle_bound=4096).status == "pass"
    assert calls == [e1]


def test_every_check_has_one_arithmetic_entry():
    assert tuple(CHECK_ARITHMETIC) == CHECK_IDS
