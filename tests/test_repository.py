"""Repository-wide checks: the library's invariants survive ``python -O``,
every demo script runs to completion and prints its pinned output, every
name the benchmark's tracer wraps and every name in ``logcap.__all__``
exists, the benchmark's own tests pass, every committed benchmark record
names what the benchmark measures, no public library name is there for
its tests alone, and the package's imports follow one layer order."""

import ast
import collections
import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import logcap

from tests.conftest import REPO

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_no_assert_statements_in_library():
    # python -O strips assert statements; invariants must raise for real
    found = []
    for path in sorted((REPO / "src" / "logcap").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


# sha256 of each demo's stdout; every demo is deterministic, so a
# mismatch means its printed output changed
DEMO_DIGESTS = {
    "01_exact_linear_algebra.py": "271d8fce19e4dc57ca28d2610e182281ad43c44a50d4522e8aec679738a5c42c",
    "02_extension_group_and_transfer.py": "c473dece8e2c48bae79e6efc8a9c903bc833dcbcf656467cd0341508102df3e3",
    "03_resolvent_and_certificates.py": "a6c49826ae15b111baa9bd8fa3b0c9ef79c4922a96144833f476e4992a53acd9",
    "04_checking_the_statements.py": "3f7a82fb1e2881a73f8415756c90124d96da296488645473ac46b69716272b67",
    "05_searching_for_instances.py": "71452c7b889f575b0e0a34357d4a692230680aab68a52715f7e7a8676364e383",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(path)], cwd=REPO, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[path.name], proc.stdout.decode()


def _tracer_tables() -> dict:
    """The SPAN_* and COUNT_* tables of perfbench/spans.py, read from its
    source without importing it."""
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.startswith(("SPAN_", "COUNT_"))
    }


def test_every_traced_name_resolves_in_logcap():
    tables = _tracer_tables()
    assert set(tables) == {"SPAN_FUNCTIONS", "SPAN_METHODS", "COUNT_FUNCTIONS", "COUNT_METHODS"}
    missing = []
    for mod, attr, _ in tables["SPAN_FUNCTIONS"] + tables["COUNT_FUNCTIONS"]:
        if not callable(getattr(importlib.import_module(f"logcap.{mod}"), attr, None)):
            missing.append(f"{mod}.{attr}")
    for mod, cls, attr, _ in tables["SPAN_METHODS"] + tables["COUNT_METHODS"]:
        owner = getattr(importlib.import_module(f"logcap.{mod}"), cls, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{mod}.{cls}.{attr}")
    assert missing == []


def test_every_exported_name_resolves():
    """Every name in logcap.__all__ is an attribute of logcap, so a
    star import cannot break after a deletion."""
    assert [name for name in logcap.__all__ if not hasattr(logcap, name)] == []


def test_benchmark_selftest_passes():
    # the benchmark requires every per-layer metric to record work, so a
    # change to a traced name must keep its tests passing
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/selftest.py"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


BENCH_RECORDS = sorted(REPO.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_record_names_the_benchmark(path):
    """A BENCH_<label>.json parses, carries its own label, and reports only
    workloads and metrics that BENCHMARK.json declares."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    record = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{record['label']}.json"
    runs = dict(record["workloads"])
    runs.update((k, v) for k, v in record.get("holdout", {}).items() if isinstance(v, dict))
    assert runs and set(runs) <= workloads
    for run in runs.values():
        assert run["metrics"] and set(run["metrics"]) <= end_to_end
    assert "traced" in record
    for traced in (v for k, v in record.items() if k.startswith("traced")):
        assert traced["workload"] in workloads
        for side in ("parent", "change"):
            assert traced[side] and set(traced[side]) <= per_layer


def test_every_public_library_name_has_a_user_outside_the_tests():
    """A public module-level function or class of src/logcap is referenced
    from src/, demos/ or tools/ (outside its own definition), or exported
    through logcap.__all__."""
    files = sorted((REPO / "src").rglob("*.py")) + DEMOS + sorted((REPO / "tools").glob("*.py"))
    defined, used = {}, []  # used: (path, index of the top-level statement, name)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for i, node in enumerate(tree.body):
            if (
                path.parent.name == "logcap"
                and isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
            ):
                defined[path, i] = node.name
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.append((path, i, sub.id))
                elif isinstance(sub, ast.Attribute):
                    used.append((path, i, sub.attr))
                elif isinstance(sub, ast.alias):
                    used.append((path, i, sub.name))
    unused = [
        f"{path.name}:{name}"
        for (path, i), name in defined.items()
        if name not in logcap.__all__
        and not any(n == name and (p, j) != (path, i) for p, j, n in used)
    ]
    assert defined and unused == []


# Public method names that more than one class of src/logcap defines.  An
# attribute read cannot tell those classes apart, so each defining class
# names one user here, checked by hand to read the name on an object of
# that class: (file, function or Class.method in that file).
SHARED_METHOD_USERS = {
    ("AbelianLGroup", "contains"): ("groupring.py", "GroupRingElt.__init__"),
    ("Submodule", "contains"): ("lattice.py", "Submodule.__contains__"),  # every `in`
    ("Instance", "ring"): ("extension.py", "u_order"),
    ("Frame", "ring"): ("resolvent.py", "Frame.orders"),
    ("AbelianLGroup", "size"): ("extension.py", "u_order"),
    ("Frame", "size"): ("verifier.py", "_v2_denominator"),
    ("RelationCertificate", "size"): ("resolvent.py", "delta"),
    ("GroupRingElt", "to_dict"): ("verifier.py", "_v6_delta"),
    ("ValidationReport", "to_dict"): ("verifier.py", "InstanceReport.to_dict"),
    ("RelationCertificate", "to_dict"): ("resolvent.py", "RelationCertificate.content_hash"),
    ("Verdict", "to_dict"): ("verifier.py", "InstanceReport.to_dict"),
    ("InstanceReport", "to_dict"): ("cli.py", "_verify_one"),
}


def _functions(tree):
    """Each function of a module by its name, Class.method for a method."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update(
                (f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef)
            )
    return out


def test_every_public_method_has_a_user_outside_the_tests():
    """A public method or property of a public class of src/logcap is read
    as an attribute in src/, demos/ or tools/, outside its own definition.
    A name that several classes define has one hand-checked user per class
    in SHARED_METHOD_USERS, and that function reads the name."""
    files = sorted((REPO / "src").rglob("*.py")) + DEMOS + sorted((REPO / "tools").glob("*.py"))
    defined, used, functions = [], [], {}  # used: (path, line, attribute name)
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "logcap":
            functions[path.name] = _functions(tree)
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
                    defined += [
                        (path, cls.name, node)
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                    ]
        used += [(path, n.lineno, n.attr) for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    classes_of = collections.Counter(node.name for _, _, node in defined)
    shared = {(cls, node.name) for _, cls, node in defined if classes_of[node.name] > 1}
    assert shared == set(SHARED_METHOD_USERS)
    for (cls, name), (file, function) in SHARED_METHOD_USERS.items():
        reads = {n.attr for n in ast.walk(functions[file][function]) if isinstance(n, ast.Attribute)}
        assert name in reads, f"{file}:{function} does not read {cls}.{name}"
    unused = [
        f"{path.name}:{cls}.{node.name}"
        for path, cls, node in defined
        if (cls, node.name) not in shared
        and not any(
            name == node.name and not (p == path and node.lineno <= line <= node.end_lineno)
            for p, line, name in used
        )
    ]
    assert defined and unused == []


# Each module of src/logcap imports only modules before it in this order.
LAYER_ORDER = ("lattice", "groupring", "instance", "extension", "resolvent", "forge", "verifier", "cli")

IMPORT_GRAPH = {
    "lattice": set(),
    "groupring": {"lattice"},
    "instance": {"lattice", "groupring"},
    "extension": {"lattice", "groupring"},
    "resolvent": {"lattice", "groupring", "instance", "extension"},
    "forge": {"lattice", "groupring", "instance"},
    "verifier": {"lattice", "instance", "extension", "resolvent", "forge"},
    "cli": {"lattice", "groupring", "instance", "forge", "verifier"},
}


def _relative_imports(tree):
    """(module-level targets, [(function, target)]) of the relative imports
    of a module, outside ``if TYPE_CHECKING:`` blocks."""
    type_only = {
        id(n)
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
        for stmt in node.body
        for n in ast.walk(stmt)
    }
    owner = {id(n): name for name, f in _functions(tree).items() for n in ast.walk(f)}
    module_level, in_functions = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in type_only:
            targets = [node.module] if node.module else [a.name for a in node.names]
            if id(node) in owner:
                in_functions += [(owner[id(node)], t) for t in targets]
            else:
                module_level.update(targets)
    return module_level, in_functions


def test_import_graph_follows_the_layer_order():
    """The module-level relative imports of src/logcap are exactly
    IMPORT_GRAPH, each pointing to an earlier module of LAYER_ORDER (so the
    package has no import cycle); the oracle in forge reads neither
    extension nor resolvent; and Instance.frame, which builds the Frame of
    resolvent on first use, holds the only function-level import."""
    src = REPO / "src" / "logcap"
    assert {p.stem for p in src.glob("*.py")} == set(LAYER_ORDER) | {"__init__"}
    graph, in_functions = {}, []
    for name in LAYER_ORDER:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        graph[name], calls = _relative_imports(tree)
        in_functions += [(name, function, target) for function, target in calls]
    assert graph == IMPORT_GRAPH
    for name, targets in graph.items():
        assert all(LAYER_ORDER.index(t) < LAYER_ORDER.index(name) for t in targets), name
    assert not graph["forge"] & {"extension", "resolvent"}
    assert in_functions == [("instance", "Instance.frame", "resolvent")]
