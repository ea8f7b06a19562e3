"""The benchmark's workloads: their inputs, one timed pass, and its checks.

Every workload reads the frozen copies under perfbench/data, never corpus/
or tools/, so that regenerating the shipped corpus cannot change one.  A
pass runs every op of the workload once, in an order the caller draws from
the seed; outputs are checked after the pass, outside the timed region, and
compared by name so that the order does not matter.

Calls go through module attributes (``verifier.run_all``, not a name
imported here), so that a traced pass sees them.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from logcap import cli, forge, instance, verifier

import checks
import spans
import speed

DATA = Path(__file__).resolve().parent / "data"
INSTANCES = DATA / "instances"
# the library's default oracle bound at the commit the data was frozen from,
# pinned so that a change of the default cannot change a workload
ORACLE_BOUND = 4096
POOL_WORKERS = 2
# The two largest sampled components, (2,2)x(2,4) and (2,2)x(2,2,2), take 8
# of the 10.5 s a full build pass needs.  With them a 20 s run holds one
# pass, which leaves every small component's latency a single sample on a
# noisy machine; without them a run holds six or more passes.
BUILD_SKIPPED = ("l2_16", "l2_17")


@dataclass
class PassResult:
    wall: float  # scaled seconds for the whole pass
    op_times: dict  # op name -> scaled seconds
    failures: list  # one line per failed op
    attempted: int
    layers: dict = field(default_factory=dict)  # tracer summary, traced passes only
    # scaled over elapsed seconds: the factor for span times, which include
    # the reference kernel's interruptions
    layer_scale: float = 1.0


def _run_ops(order, op):
    """Run ``op(name)`` for each name in order, timing each call while a
    Speedometer times the reference kernel.

    Returns ({name: result or error text}, {name: scaled seconds}, elapsed
    seconds summed over the ops).
    """
    clock = time.perf_counter
    results, spans_ = {}, {}
    with speed.Speedometer() as meter:
        for name in order:
            t0 = clock()
            try:
                results[name] = op(name)
            except Exception as e:  # a crashing op is a failed op; the run goes on
                results[name] = f"{type(e).__name__}: {e}"
            spans_[name] = (t0, clock())
    times = {n: meter.work(t0, t1)[1] for n, (t0, t1) in spans_.items()}
    elapsed = sum(t1 - t0 for t0, t1 in spans_.values())
    return results, times, elapsed


class SerialVerify:
    """Instances through validation and V1..V10, one after another in-process."""

    serial = True

    def __init__(self, bound: int, oracle_set_only: bool):
        self.bound = bound
        self.oracle_set_only = oracle_set_only

    def load_inputs(self) -> None:
        exp = json.loads((DATA / "expected.json").read_text(encoding="utf-8"))
        self.expected = exp["verdicts"][str(self.bound)]
        self.ops = list(exp["oracle_set"] if self.oracle_set_only else sorted(self.expected))
        for name in self.ops:
            instance.load_instance(INSTANCES / name)

    def _check(self, reports: dict) -> list:
        failures = []
        for name in sorted(reports):
            rep = reports[name]
            if name not in self.expected:
                failures.append(f"{name}: not an input of this workload")
                continue
            if isinstance(rep, str):
                failures.append(f"{name}: {rep}")
                continue
            bad = checks.verify_mismatches(rep, self.expected[name])
            if bad:
                failures.append(f"{name}: {'; '.join(bad)}")
        return failures

    def _verify(self, name):
        inst = instance.load_instance(INSTANCES / name)
        return verifier.run_all(inst, oracle_bound=self.bound).to_dict()

    def run_pass(self, order, work: Path, tracer) -> PassResult:
        reports, times, elapsed = _run_ops(order, self._verify)
        layers = tracer.summary() if tracer else {}
        wall = sum(times.values())
        return PassResult(wall, times, self._check(reports), len(order), layers, wall / elapsed)


class Build:
    """Corpus components regenerated through forge.build_corpus, one per op."""

    serial = True

    def load_inputs(self) -> None:
        groups = json.loads((DATA / "components.json").read_text(encoding="utf-8"))
        self.specs = {}
        for g in groups:
            p = dict(g["params"])
            for k in ("g_orders_list", "atilde_orders_list"):
                p[k] = tuple(tuple(x) for x in p[k])
            params = forge.SearchParams(**p)
            manifest = json.loads((DATA / "manifests" / f"{g['label']}.json").read_text(encoding="utf-8"))
            for i, c in enumerate(g["components"]):
                comp = forge.ComponentSpec(
                    tuple(c["g_orders"]), tuple(c["atilde_orders"]), c["mode"], c["samples"]
                )
                self.specs[f"{g['label']}_{i:02d}"] = (params, comp, manifest["components"][i])
        self.ops = sorted(n for n in self.specs if n not in BUILD_SKIPPED)

    def run_pass(self, order, work: Path, tracer) -> PassResult:
        def build(name):
            params, comp, _ = self.specs[name]
            return forge.build_corpus(params, [comp], work / name)

        manifests, times, elapsed = _run_ops(order, build)
        layers = tracer.summary() if tracer else {}
        failures, written = [], 0
        for name in sorted(manifests):
            m = manifests[name]
            if isinstance(m, str):
                failures.append(f"{name}: {m}")
                continue
            written += sum(e["count"] for e in m["components"])
            bad = checks.build_mismatches(work / name, m, self.specs[name][2])
            if bad:
                failures.append(f"{name}: {'; '.join(bad)}")
        if tracer:
            layers["forge.files_written"] = written
        shutil.rmtree(work, ignore_errors=True)
        wall = sum(times.values())
        return PassResult(wall, times, failures, len(order), layers, wall / elapsed)


# The pool workers are forked from the benchmark process and inherit these;
# each task appends its time (and, traced, its layer summary) to a file in
# OPS_DIR, the only channel back that leaves the CLI's output untouched.
_ORIGINAL_VERIFY_ONE = cli._verify_one
_WORKER_TRACER = None
_WORKER_METER = None  # started by a worker's first task, runs until it exits
OPS_ENV = "PERFBENCH_OPS_DIR"


def timed_verify_one(path_str, oracle_bound, force):
    """cli._verify_one, timed inside the worker that runs it."""
    global _WORKER_METER
    if _WORKER_METER is None:
        _WORKER_METER = speed.Speedometer().__enter__()
    tracer = _WORKER_TRACER
    if tracer:
        tracer.reset()
    t0 = time.perf_counter()
    result = _ORIGINAL_VERIFY_ONE(path_str, oracle_bound, force)
    t1 = time.perf_counter()
    raw, scaled = _WORKER_METER.work(t0, t1)
    rec = {"file": Path(path_str).name, "raw": raw, "scaled": scaled, "kernel": t1 - t0 - raw}
    if tracer:
        rec["layers"] = tracer.summary()
    path = Path(os.environ[OPS_ENV]) / f"{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    return result


class PoolVerify(SerialVerify):
    """The same instances through ``logcap verify --workers 2``, in-process."""

    serial = False

    def run_pass(self, order, work: Path, tracer) -> PassResult:
        global _WORKER_TRACER
        ops_dir = work / "ops"
        ops_dir.mkdir(parents=True, exist_ok=True)
        report = work / "report.json"
        argv = ["verify", *(str(INSTANCES / n) for n in order)]
        argv += ["--workers", str(POOL_WORKERS), "--oracle-bound", str(self.bound), "--out", str(report)]
        os.environ[OPS_ENV] = str(ops_dir)
        _WORKER_TRACER = tracer
        cli._verify_one = timed_verify_one
        clock = time.perf_counter
        try:
            start = clock()
            try:
                code = cli.main(argv)
            except Exception as e:  # counted below as every op failing
                code = f"{type(e).__name__}: {e}"
            wall = clock() - start
        finally:
            cli._verify_one = _ORIGINAL_VERIFY_ONE
            _WORKER_TRACER = None
            del os.environ[OPS_ENV]
        layers = tracer.summary() if tracer else {}
        times, raws, kernel, task_layers = {}, [], 0.0, []
        for f in ops_dir.glob("*.jsonl"):
            for line in f.read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                times[rec["file"]] = rec["scaled"]
                raws.append(rec["raw"])
                kernel += rec["kernel"]
                task_layers.append(rec.get("layers", {}))
        if tracer:
            layers = spans.merge([layers, *task_layers])
        # the wall less the kernel timings inside tasks, spread over the
        # workers, scaled by the time-weighted speed the workers saw
        raw_wall = wall - kernel / POOL_WORKERS
        wall = raw_wall * sum(times.values()) / sum(raws) if raws else raw_wall
        layer_scale = sum(times.values()) / (sum(raws) + kernel) if raws else 1.0
        if code != 0 or not report.is_file():
            failures = [f"{n}: logcap verify ended with {code}" for n in order]
        else:
            payload = json.loads(report.read_text(encoding="utf-8"))
            reports = {n: "missing from the report" for n in order}
            reports.update({r["file"]: r for r in payload["instances"]})
            failures = self._check(reports)
        shutil.rmtree(work, ignore_errors=True)
        return PassResult(wall, times, failures, len(order), layers, layer_scale)


WORKLOADS = {
    "corpus-oracle": lambda: SerialVerify(ORACLE_BOUND, oracle_set_only=True),
    "corpus-formula": lambda: SerialVerify(0, oracle_set_only=False),
    "corpus-build": Build,
    "corpus-oracle-w2": lambda: PoolVerify(ORACLE_BOUND, oracle_set_only=True),
}
