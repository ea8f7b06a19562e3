import pytest

from logcap.extension import u_order
from logcap.instance import coboundary_shift, load_instance
from logcap.verifier import CHECK_IDS, run_all, run_check
from tests.conftest import FIXTURES, corpus_paths, random_admissible_shift


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
    assert by_id["V1"].witness["exhaustive"] is True
    assert by_id["V1"].witness["elements_checked"] == 32
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


def test_v1_generator_mode_agrees_with_exhaustive(e1, inst33):
    for inst in (e1, inst33):
        gen_based = run_check(inst, "V1", oracle_bound=1)
        exhaustive = run_check(inst, "V1", oracle_bound=2**12)
        assert gen_based.witness["exhaustive"] is False
        assert exhaustive.witness["exhaustive"] is True
        assert gen_based.status == exhaustive.status == "pass"
        assert gen_based.witness["elements_checked"] < exhaustive.witness["elements_checked"]


def test_v1_generator_walk_pinned_on_the_corpus():
    # at bound 0 V1 walks the unit vectors of A, then the group generators
    paths = corpus_paths()
    assert len(paths) == 55
    for path in paths:
        inst = load_instance(path)
        v = run_check(inst, "V1", oracle_bound=0)
        want = {"elements_checked": inst.dim_a + len(inst.group.generators()), "exhaustive": False}
        assert (v.status, v.witness) == ("pass", want), path.name


def test_v1_generator_walk_witness_on_corrupted_cocycle(corrupted):
    v = run_check(corrupted, "V1", oracle_bound=0, force=True)
    assert v.status == "fail"
    assert v.witness == {
        "element": {"a": [0, 0], "tau": [1]},
        "transfer": [1, 0],
        "trace_of_log": [0, 0],
    }


def test_report_serialization_roundtrip(e1):
    import json

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
    from logcap import instance

    calls = []
    validate = instance.validate

    def counted(inst):
        calls.append(inst)
        return validate(inst)

    monkeypatch.setattr(instance, "validate", counted)
    e1 = instance.load_instance(FIXTURES / "e1.json")
    assert run_all(e1, oracle_bound=4096).validation.ok
    # run_check reads the frame's report instead of validating again
    assert run_check(e1, "V4", oracle_bound=4096).status == "pass"
    assert run_check(e1, "V10", oracle_bound=4096).status == "pass"
    assert calls == [e1]
