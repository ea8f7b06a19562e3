"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

They check the statistics, that a wrong output makes fail_ratio positive,
that the tracer wraps every binding site, and that every per-layer metric
records work on the workload baseline.PAIRING pairs it with, with the traced
outputs passing the same checks as untraced ones.  Passes here run on
small subsets of each workload's ops, to keep the tests quick.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from baseline import PAIRING  # noqa: E402
from run import _layer_metrics  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# small ops that still reach every paired layer of their workload
SUBSETS = {
    "corpus-oracle": ["p2_n4_G2_A2_000.json", "p2_n4_G4_A2_000.json", "p3_n3_G3_A0_000.json"],
    "corpus-formula": None,  # all 55: one pass takes about a second
    "corpus-build": ["l2_08", "l2_14", "l3_03", "l3_02"],
    "corpus-oracle-w2": ["p2_n4_G2_A2_000.json", "p2_n4_G4_A2_000.json", "p3_n3_G3_A0_000.json"],
}


def _workload(name):
    wl = workloads.WORKLOADS[name]()
    wl.load_inputs()
    if SUBSETS[name] is not None:
        wl.ops = list(SUBSETS[name])
    return wl


def test_quartiles_match_statistics():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert stats.quartiles(xs) == tuple(statistics.quantiles(xs, n=4))
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


@pytest.mark.parametrize(
    "n, value, percentile",
    [(55, 45, 81), (42, 32, 76), (24, 14, 58), (11, 1, 9), (1000, 990, 99)],
)
def test_tail_leaves_ten_samples_beyond(n, value, percentile):
    xs = list(range(n, 0, -1))
    random.Random(n).shuffle(xs)
    got, pct, count = stats.tail(xs)
    assert (got, pct, count) == (value, percentile, n)
    assert sum(x > got for x in xs) == stats.TAIL_BEYOND


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail(range(10))


def test_flipped_verdict_fails_the_op(tmp_path):
    wl = _workload("corpus-formula")
    wl.ops = wl.ops[:2]
    victim = wl.ops[1]
    flipped = json.loads(json.dumps(wl.expected[victim]))
    flipped["checks"]["V9"]["status"] = "fail"
    wl.expected[victim] = flipped
    res = wl.run_pass(wl.ops, tmp_path / "work", None)
    assert res.attempted == 2
    assert len(res.failures) == 1 and res.failures[0].startswith(victim)
    assert len(res.failures) / res.attempted > 0


def test_wrong_sha256_fails_the_op(tmp_path):
    wl = _workload("corpus-build")
    wl.ops = ["l2_01", "l2_02"]
    params, comp, entry = wl.specs["l2_02"]
    bad = json.loads(json.dumps(entry))
    bad["files"][0]["sha256"] = "0" * 64
    wl.specs["l2_02"] = (params, comp, bad)
    res = wl.run_pass(wl.ops, tmp_path / "work", None)
    assert len(res.failures) == 1 and "sha256" in res.failures[0]
    assert len(res.failures) / res.attempted > 0


def test_untraced_passes_are_correct(tmp_path):
    for name in SUBSETS:
        wl = _workload(name)
        res = wl.run_pass(wl.ops, tmp_path / name, None)
        assert res.failures == [], name
        assert set(res.op_times) == set(wl.ops), name


def _measured_originals() -> list:
    mods = spans._modules()
    out = [getattr(mods[m], a) for m, a, _ in spans.SPAN_FUNCTIONS + spans.COUNT_FUNCTIONS]
    for m, c, a, _ in spans.SPAN_METHODS + spans.COUNT_METHODS:
        raw = vars(getattr(mods[m], c))[a]
        out.append(getattr(raw, "__func__", raw))
    return out + list(mods["verifier"]._CHECKS.values())


def _bindings_of(originals) -> list:
    """Every module, class or _CHECKS entry that binds one of ``originals``."""
    import logcap

    mods = spans._modules()
    owners = [logcap, *mods.values()]
    owners += [getattr(mods[m], c) for m, c, _, _ in spans.SPAN_METHODS + spans.COUNT_METHODS]
    ids = {id(f) for f in originals}
    out = [
        f"{owner.__name__}.{key}"
        for owner in owners
        for key, value in vars(owner).items()
        if id(getattr(value, "__func__", value)) in ids
    ]
    out += [f"_CHECKS[{cid}]" for cid, fn in mods["verifier"]._CHECKS.items() if id(fn) in ids]
    return out


def test_every_binding_site_is_wrapped_and_restored():
    from logcap import lattice, verifier

    original = lattice.preimage
    originals = _measured_originals()
    bound_before = _bindings_of(originals)
    assert "logcap.verifier.preimage" in bound_before
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert _bindings_of(originals) == []
        assert verifier.preimage is not original
        assert verifier.preimage.__wrapped__ is original
        assert all(hasattr(f, "__wrapped__") for f in verifier._CHECKS.values())
    finally:
        tracer.uninstall()
    assert verifier.preimage is original and lattice.preimage is original
    assert _bindings_of(originals) == bound_before
    assert not any(hasattr(f, "__wrapped__") for f in verifier._CHECKS.values())


def test_every_per_layer_metric_records_work_on_its_workload(tmp_path):
    names = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(PAIRING) == sorted(names)
    seen = {}
    for wl_name in SUBSETS:
        wl = _workload(wl_name)
        tracer = spans.Tracer()
        untraced = [wl.run_pass(wl.ops, tmp_path / "u", None)]
        tracer.install()
        try:
            traced = [wl.run_pass(wl.ops, tmp_path / "t", tracer)]
        finally:
            tracer.uninstall()
        assert traced[0].failures == [], wl_name
        seen[wl_name] = _layer_metrics(names, untraced, traced)
    missing = [
        f"{metric} on {wl_name}"
        for metric, wl_names in PAIRING.items()
        for wl_name in wl_names
        if not seen[wl_name][metric] > 0
    ]
    assert missing == []
    assert seen["corpus-formula"]["forge.oracle_group.calls"] == 0
    assert seen["corpus-build"]["forge.oracle_group.calls"] == 0
