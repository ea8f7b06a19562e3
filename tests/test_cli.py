import concurrent.futures
import copy
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

from logcap import cli
from logcap.cli import main
from logcap.instance import SchemaError, instance_from_dict
from tests.conftest import CORPUS, FIXTURES


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run_cli(["validate", FIXTURES / "e1.json"], capsys)
    assert code == 0
    assert "pass  H1" in out


def test_validate_math_failure_names_h1(capsys):
    code, out, _ = run_cli(["validate", FIXTURES / "h1_violating.json"], capsys)
    assert code == 2
    assert "FAIL  H1" in out


def test_validate_corrupted_names_cocycle_identity(capsys):
    code, out, _ = run_cli(["validate", FIXTURES / "corrupted_cocycle.json"], capsys)
    assert code == 2
    assert "FAIL  cocycle-identity" in out


def test_validate_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["validate", bad], capsys)
    assert code == 1
    assert "line" in err


def test_validate_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"prime": 2}))
    code, _, err = run_cli(["validate", bad], capsys)
    assert code == 1
    assert "missing" in err


def test_verify_e1_json_report(capsys):
    code, out, _ = run_cli(["verify", FIXTURES / "e1.json"], capsys)
    assert code == 0
    payload = json.loads(out)
    inst = payload["instances"][0]
    assert inst["delta"] == {}
    checks = {c["check"]: c for c in inst["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    assert checks["V6"]["witness"]["trace_image_order"] == 1
    assert payload["summary"]["fail"] == 0


def test_verify_h1_fixture_exit_code(capsys):
    code, out, _ = run_cli(["verify", FIXTURES / "h1_violating.json"], capsys)
    assert code == 2
    payload = json.loads(out)
    statuses = {c["status"] for c in payload["instances"][0]["checks"]}
    assert statuses == {"hypothesis-failed"}


def test_verify_corrupted_fixture_exit_code(capsys):
    code, _, _ = run_cli(["verify", FIXTURES / "corrupted_cocycle.json"], capsys)
    assert code == 2


def test_verify_markdown_byte_stable(tmp_path, capsys):
    outputs = []
    for k in range(3):
        out = tmp_path / f"r{k}.md"
        code, _, _ = run_cli(
            ["verify", FIXTURES / "e1.json", "--format", "markdown", "--out", out],
            capsys,
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert b"| V1 | pass |" in outputs[0]


def test_search_writes_corpus_with_e1(tmp_path, capsys):
    code, out, _ = run_cli(
        [
            "search", "--prime", "2", "--precision", "3",
            "--G", "2", "--Atilde", "2", "--out", tmp_path / "c",
        ],
        capsys,
    )
    assert code == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    files = [f["name"] for comp in manifest["components"] for f in comp["files"]]
    assert len(files) == 1
    data = json.loads((tmp_path / "c" / files[0]).read_text())
    assert data == json.loads((FIXTURES / "e1.json").read_text())


def test_search_trivial_torsion_single_instance(tmp_path, capsys):
    code, _, _ = run_cli(
        [
            "search", "--prime", "2", "--precision", "3",
            "--G", "2", "--Atilde", "0", "--out", tmp_path / "c",
        ],
        capsys,
    )
    assert code == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert sum(c["count"] for c in manifest["components"]) == 1


def test_search_repeat_runs_identical_manifest(tmp_path, capsys):
    args = [
        "search", "--prime", "2", "--precision", "4",
        "--G", "2", "--G", "4", "--Atilde", "0", "--Atilde", "2",
        "--seed", "7",
    ]
    code, _, _ = run_cli(args + ["--out", tmp_path / "a"], capsys)
    assert code == 0
    code, _, _ = run_cli(args + ["--out", tmp_path / "b"], capsys)
    assert code == 0
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_search_ceiling_refusal_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        [
            "search", "--prime", "3", "--precision", "3",
            "--G", "3,3", "--Atilde", "3,3", "--out", tmp_path / "c",
            "--ceiling", "100", "--mode", "exhaustive",
        ],
        capsys,
    )
    assert code == 3
    assert "refused" in err


def test_oracle_command(capsys):
    # the whole output, on e1 and on a corpus instance with G and A~ of rank 2
    for path, want in (
        (FIXTURES / "e1.json", "|U| = 32\n|U~| = 4\n|U'| = 2\n|U~'| = 1\n|U~ / U'| = 2\n"
         "|U^omega| = 2\n"),
        (CORPUS / "l2" / "p2_n4_G2x2_A2x2_000.json", "|U| = 256\n|U~| = 16\n|U'| = 4\n"
         "|U~'| = 1\n|U~ / U'| = 4\n|U^omega| = 4\n"),
    ):
        code, out, err = run_cli(["oracle", path], capsys)
        assert (code, out, err) == (0, want, "")


def test_oracle_command_refuses_an_invalid_instance(capsys):
    code, out, err = run_cli(["oracle", FIXTURES / "corrupted_cocycle.json"], capsys)
    assert code == 2
    assert out == ""
    assert "cocycle-identity" in err


def test_oracle_bound_refusal(capsys):
    code, _, err = run_cli(["oracle", FIXTURES / "e1.json", "--bound", "8"], capsys)
    assert code == 3
    assert "refused" in err


def test_report_rerenders_markdown(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["verify", FIXTURES / "e1.json", "--out", out_json], capsys
    )
    assert code == 0
    code, out, _ = run_cli(["report", out_json], capsys)
    assert code == 0
    assert "| V1 | pass |" in out


def test_report_reproduces_verify_json_and_writes_out(tmp_path, capsys):
    """report --format json gives back the bytes verify wrote, and report
    --out writes the text report prints."""
    out_json = tmp_path / "report.json"
    code, _, _ = run_cli(["verify", FIXTURES / "e1.json", "--out", out_json], capsys)
    assert code == 0
    code, out, _ = run_cli(["report", out_json, "--format", "json"], capsys)
    assert (code, out) == (0, out_json.read_text(encoding="utf-8"))
    code, printed, _ = run_cli(["report", out_json], capsys)
    assert code == 0
    out_md = tmp_path / "report.md"
    code, out, _ = run_cli(["report", out_json, "--out", out_md], capsys)
    assert (code, out) == (0, "")
    assert out_md.read_text(encoding="utf-8") == printed


def test_forced_markdown_report_of_an_invalid_instance(capsys):
    """The markdown report names the failed validation checks, and a failing
    check with none of the listed witness keys shows its raw witness."""
    code, out, _ = run_cli(
        ["verify", FIXTURES / "corrupted_cocycle.json", "--force", "--format", "markdown"], capsys
    )
    assert code == 2
    assert "\nvalidation failed: cocycle-identity\n" in out
    assert '| V1 | fail | precision-n | {"element": {"a": [0, 0], "tau": [1]}, ' in out


def test_report_rejects_non_report(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text("[]")
    code, _, err = run_cli(["report", p], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "payload", [{"instances": [{"file": "x"}]}, {"instances": [], "summary": {}}]
)
def test_report_with_missing_keys_is_an_input_error(tmp_path, capsys, payload):
    p = tmp_path / "x.json"
    p.write_text(json.dumps(payload))
    for fmt in ("markdown", "json"):
        code, out, err = run_cli(["report", p, "--format", fmt], capsys)
        assert (code, out) == (1, "")
        assert err == "error: not a verification report\n"


@pytest.mark.parametrize("command", ["validate", "verify", "oracle", "report"])
def test_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    p = tmp_path / "x.json"
    p.write_bytes(b"\xff\xfe")
    code, _, err = run_cli([command, p], capsys)
    assert code == 1
    assert err.startswith("error:") and "not UTF-8" in err


def _hostile_json(tmp_path, kind):
    """A file json.load refuses with other than a JSONDecodeError: a copy of
    e1.json whose precision has 5,000 digits, or an array nested 100,000
    deep."""
    p = tmp_path / f"{kind}.json"
    if kind == "long-int":
        text = (FIXTURES / "e1.json").read_text(encoding="utf-8")
        p.write_text(text.replace('"precision": 3', '"precision": ' + "7" * 5000), encoding="utf-8")
    else:
        p.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    return p


@pytest.mark.parametrize("kind", ["long-int", "deep"])
@pytest.mark.parametrize("command", ["validate", "verify", "report"])
def test_unparsable_json_is_an_input_error(tmp_path, capsys, command, kind):
    p = _hostile_json(tmp_path, kind)
    code, out, err = run_cli([command, p], capsys)
    assert (code, out) == (1, "")
    reason = {"long-int": "too many digits", "deep": "nested too deeply"}[kind]
    assert err.startswith(f"error: {p}: ") and reason in err


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "logcap.cli", "validate", str(FIXTURES / "e1.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pass  H1" in proc.stdout


def test_verify_directory_input(tmp_path, capsys):
    shutil.copy(FIXTURES / "e1.json", tmp_path / "e1.json")
    code, out, _ = run_cli(["verify", tmp_path], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["instances"] == 1


def _write(tmp_path, payload):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(payload))
    return path


def _c2_payload(**changes):
    payload = {
        "prime": 2,
        "precision": 3,
        "G": {"orders": [2]},
        "A": {"atilde_orders": [], "action": {"tau_1": [[1]]}},
        "cocycle": {},
    }
    payload.update(changes)
    return payload


def test_verify_directory_without_instance_files_is_an_input_error(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("{}")
    code, out, err = run_cli(["verify", tmp_path], capsys)
    assert (code, out) == (1, "")
    assert err == "error: no instance files found\n"


def test_zero_precision_is_an_input_error(tmp_path, capsys):
    code, _, err = run_cli(["verify", _write(tmp_path, _c2_payload(precision=0))], capsys)
    assert code == 1
    assert "precision" in err and "Traceback" not in err


def test_boolean_integer_field_is_an_input_error(tmp_path, capsys):
    code, _, err = run_cli(["validate", _write(tmp_path, _c2_payload(precision=True))], capsys)
    assert code == 1
    assert "integers" in err and "Traceback" not in err


def test_rank_five_group_verifies_end_to_end(tmp_path, capsys):
    # G = (Z/2)^5, the one rank-5 group of order at most 32: a 5x5 relation
    # matrix, and |U| = 256, so V10 runs at the default oracle bound
    payload = _c2_payload(
        G={"orders": [2] * 5},
        A={"atilde_orders": [], "action": {f"tau_{k}": [[1]] for k in range(1, 6)}},
    )
    code, out, err = run_cli(["verify", _write(tmp_path, payload)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["summary"]["pass"] == 10
    assert [c["status"] for c in report["instances"][0]["checks"]] == ["pass"] * 10


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_directory_with_a_malformed_file_aborts_before_verifying(
    tmp_path, capsys, monkeypatch, workers
):
    def started(*args):
        raise RuntimeError("verification started")

    monkeypatch.setattr(cli, "_verify_one", started)
    shutil.copy(FIXTURES / "e1.json", tmp_path / "a.json")
    (tmp_path / "b.json").write_text(json.dumps({"prime": 2}))
    code, out, err = run_cli(["verify", tmp_path, "--workers", workers], capsys)
    assert code == 1 and out == ""
    assert "b.json" in err and "Traceback" not in err


def test_verify_pool_is_no_larger_than_the_file_count(tmp_path, capsys, monkeypatch):
    sizes = []

    class InlinePool:
        """Records max_workers and runs each task at submit, in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    serial = run_cli(["verify", FIXTURES / "e1.json"], capsys)
    assert run_cli(["verify", FIXTURES / "e1.json", "--workers", "5000"], capsys) == serial
    assert sizes == []
    for name in ("a.json", "b.json"):
        shutil.copy(FIXTURES / "e1.json", tmp_path / name)
    serial = run_cli(["verify", tmp_path], capsys)
    assert run_cli(["verify", tmp_path, "--workers", "5000"], capsys) == serial
    assert sizes == [2]


def test_mersenne_prime_loads_at_once(tmp_path, capsys):
    # 2^61 - 1 is prime; trial division up to its square root would stall
    payload = _c2_payload(
        prime=2**61 - 1, precision=1, G={"orders": []}, A={"atilde_orders": [], "action": {}}
    )
    code, out, err = run_cli(["validate", _write(tmp_path, payload)], capsys)
    assert code == 0 and "pass  H1" in out and "Traceback" not in err


def test_prime_beyond_the_exact_primality_test_is_an_input_error(tmp_path, capsys):
    payload = _c2_payload(
        prime=2**89 - 1, precision=1, G={"orders": []}, A={"atilde_orders": [], "action": {}}
    )
    code, _, err = run_cli(["validate", _write(tmp_path, payload)], capsys)
    assert code == 1
    assert "certify" in err and "Traceback" not in err


@pytest.mark.parametrize("prime,order", [(2, 2**40), (2**61 - 1, 2**61 - 1)])
def test_group_order_above_the_limit_is_refused(tmp_path, capsys, prime, order):
    payload = _c2_payload(prime=prime, G={"orders": [order]})
    code, _, err = run_cli(["validate", _write(tmp_path, payload)], capsys)
    assert code == 3
    assert err.startswith("refused:") and "group order" in err and "Traceback" not in err


def test_search_with_a_composite_prime_is_an_input_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["search", "--prime", "4", "--precision", "3", "--G", "2", "--Atilde", "2",
         "--out", tmp_path / "c"],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:") and "not prime" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args,message",
    [
        (["--precision", "3", "--G", "3", "--Atilde", "2"], "cyclic factor order 3"),
        (["--precision", "1", "--G", "2", "--Atilde", "3"], "torsion order 3"),
        (["--precision", "0", "--G", "2", "--Atilde", "2"], "precision must be >= 1"),
    ],
)
def test_search_with_malformed_orders_or_precision_is_an_input_error(
    tmp_path, capsys, args, message
):
    # each shape is below the precision floor, so none may pass as excluded
    code, out, err = run_cli(["search", "--prime", "2", *args, "--out", tmp_path / "c"], capsys)
    assert code == 1
    assert err.startswith("error:") and message in err and "Traceback" not in err
    assert "wrote" not in out and not (tmp_path / "c").exists()


def test_search_with_a_repeated_component_is_an_input_error(tmp_path, capsys):
    code, out, err = run_cli(
        ["search", "--prime", "2", "--precision", "4", "--G", "2", "--G", "2",
         "--Atilde", "2", "--out", tmp_path / "c"],
        capsys,
    )
    assert code == 1
    assert err.startswith("error:") and "repeated" in err and "Traceback" not in err
    assert "wrote" not in out and not (tmp_path / "c").exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["verify", "--no-such-flag", FIXTURES / "e1.json"], "unrecognized arguments"),
        (["search", "--prime", "2", "--G", "2", "--Atilde", "2", "--out", "c"],
         "the following arguments are required: --precision"),
        (["search", "--prime", "2", "--precision", "4", "--G", "2,x", "--Atilde", "0",
          "--out", "c"], "cannot parse orders '2,x'"),
        ([], "the following arguments are required: command"),
        (["verify", FIXTURES / "e1.json", "--workers", "0"],
         "argument --workers: must be at least 1, got 0"),
        (["verify", FIXTURES / "e1.json", "--oracle-bound", "-1"],
         "argument --oracle-bound: must be at least 0, got -1"),
        (["search", "--prime", "2", "--precision", "4", "--G", "2", "--Atilde", "2",
          "--out", "c", "--samples", "-2", "--mode", "sample"],
         "argument --samples: must be at least 0, got -2"),
        (["search", "--prime", "2", "--precision", "4", "--G", "2", "--Atilde", "2",
          "--out", "c", "--ceiling", "-1"], "argument --ceiling: must be at least 0, got -1"),
        (["search", "--prime", "2", "--precision", "4", "--G", "2", "--Atilde", "2",
          "--out", "c", "--oracle-bound", "-1"], "unrecognized arguments"),
        (["oracle", FIXTURES / "e1.json", "--bound", "-1"],
         "argument --bound: must be at least 0, got -1"),
    ],
)
def test_usage_error_is_an_input_error(capsys, args, message):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == "" and "usage: logcap" in err and message in err


def test_help_exits_zero(capsys):
    code, out, err = run_cli(["verify", "--help"], capsys)
    assert code == 0 and out.startswith("usage: logcap verify") and err == ""


def test_oracle_bound_help_says_what_reads_it(capsys):
    _, out, _ = run_cli(["verify", "--help"], capsys)
    assert "V10 is skipped; no other check reads it" in " ".join(out.split())


def test_usage_error_exit_code_from_the_command_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "logcap.cli", "search", "--prime", "2", "--precision", "4",
         "--G", "2,x", "--Atilde", "0", "--out", str(tmp_path / "d")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "cannot parse orders" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "d").exists()


def test_search_below_the_precision_floor_records_the_exclusion(tmp_path, capsys):
    code, out, _ = run_cli(
        ["search", "--prime", "2", "--precision", "2", "--G", "4", "--Atilde", "4",
         "--out", tmp_path / "c"],
        capsys,
    )
    assert code == 0 and "wrote 0 instance(s)" in out
    (comp,) = json.loads((tmp_path / "c" / "manifest.json").read_text())["components"]
    assert comp["mode"] == "excluded" and "below the floor" in comp["skip_reason"]


@pytest.mark.parametrize("precision", [30000, 10**6])
@pytest.mark.parametrize("command", ["validate", "verify"])
def test_coefficient_modulus_above_the_limit_is_refused_at_once(
    tmp_path, capsys, command, precision
):
    start = time.perf_counter()
    code, _, err = run_cli([command, _write(tmp_path, _c2_payload(precision=precision))], capsys)
    assert code == 3
    assert err.startswith("refused:") and "modulus" in err and "Traceback" not in err
    assert time.perf_counter() - start < 2.0


# -- schema fuzzing: every field of e1.json, mutated ---------------------------

E1 = json.loads((FIXTURES / "e1.json").read_text(encoding="utf-8"))


def _field_paths(node, path=()):
    """The path of every key and list entry below node, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


def _mutations(path):
    """Copies of e1 with the field at path dropped, retyped or resized, and
    with an extra key next to it."""
    replacements = ["x", True, False, None, -1, -(2**64), 10**30, 2**64, [], {}, 2.5]
    out = []
    for value in ["DROP", "EXTRA"] + replacements:
        data = copy.deepcopy(E1)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if value == "DROP":
            del parent[path[-1]]
        elif value == "EXTRA":
            if not isinstance(parent, dict):
                continue
            parent["extra"] = 1
        else:
            parent[path[-1]] = value
        out.append(data)
    return out


@pytest.mark.parametrize(
    "path", list(_field_paths(E1)), ids=lambda p: ".".join(map(str, p))
)
def test_mutated_fields_of_e1_end_in_a_contract_exit_code(tmp_path, capsys, path):
    for data in _mutations(path):
        file = _write(tmp_path, data)
        for command in (["validate"], ["verify"], ["verify", "--force"]):
            code, _, err = run_cli(command + [file], capsys)
            assert code in (0, 1, 2, 3), (command, data)
            assert "Traceback" not in err


def test_out_of_range_cocycle_key_is_an_input_error(tmp_path, capsys):
    data = copy.deepcopy(E1)
    data["cocycle"]["0,5"] = [1]
    with pytest.raises(SchemaError, match=re.escape("cocycle key ((0,), (5,))")):
        instance_from_dict(data)
    code, _, err = run_cli(["validate", _write(tmp_path, data)], capsys)
    assert code == 1
    assert "cocycle key" in err and "Traceback" not in err
