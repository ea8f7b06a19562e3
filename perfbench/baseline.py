"""Run the benchmark over two sets of seeds and record the baseline.

    python3 perfbench/baseline.py --commit 210151d

For every workload it runs ``run.py`` with tracing off once per seed of
SEEDS and again once per seed of CHECK_SEEDS, then once with tracing on
(the first seed), and writes perfbench/BASELINE.json: the machine, each
end-to-end metric's values, median, quartiles and spread (interquartile
distance over median) for both seed sets, the check set's median change
against the first, the traced per-layer numbers, the shares the workload
design rests on, and which workload each per-layer metric is expected to
move on.  A spread of a third of the metric's bound or more is printed as
UNSTEADY, and a median that moves by more than the bound as MOVED.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

_LAYER_WORKLOADS = {
    "lattice": ["corpus-build", "corpus-formula"],
    "groupring": ["corpus-formula"],
    "instance": ["corpus-formula", "corpus-build"],
    "extension": ["corpus-oracle", "corpus-formula"],
    "resolvent": ["corpus-formula"],
    "verifier": ["corpus-formula", "corpus-oracle"],
    "forge": ["corpus-oracle", "corpus-build"],
    "cli": ["corpus-oracle-w2"],
}
VERIFY = ["corpus-oracle", "corpus-formula", "corpus-oracle-w2"]
# per-layer metric -> the workloads on which it must record work; the
# end-to-end metric it should move is given in NOTES
PAIRING = {
    "forge.oracle_group.calls": ["corpus-oracle", "corpus-oracle-w2"],
    "forge.oracle_group.s": ["corpus-oracle", "corpus-oracle-w2"],
    **{f"extension.{m}": ["corpus-oracle", "corpus-formula"] for m in (
        "transfer.calls", "transfer.s", "derived_subgroup.calls", "derived_subgroup.s", "UElement.mul.calls")},
    **{f"verifier.V{i}.s": ["corpus-formula"] for i in range(2, 10)},
    "verifier.V1.s": ["corpus-oracle", "corpus-formula"],
    "verifier.V10.s": ["corpus-oracle"],
    **{f"verifier.{m}": ["corpus-formula", "corpus-oracle"] for m in ("run_all.calls", "run_all.s", "session.s")},
    **{f"resolvent.{m}": ["corpus-formula"] for m in (
        "relation_matrices.calls", "relation_matrices.s", "delta.calls", "delta.s", "trace.calls", "trace.s",
        "star_act.calls", "omega_act.calls", "ResolventElt.new.calls")},
    **{f"groupring.{m}": ["corpus-formula"] for m in ("det_ring.calls", "det_ring.s", "GroupRingElt.mul.calls")},
    **{f"instance.{m}": ["corpus-formula", "corpus-build"] for m in (
        "validate.calls", "validate.s", "Instance.act.calls")},
    "instance.load_instance.calls": VERIFY,
    "instance.load_instance.s": VERIFY,
    **{f"lattice.{m}": ["corpus-build", "corpus-formula"] for m in (
        "from_generators.calls", "from_generators.s", "kernel.calls", "kernel.s", "preimage.calls",
        "preimage.s", "ZModRing.new.calls")},
    **{f"lattice.{m}": ["corpus-formula"] for m in (
        "solve.calls", "solve.s", "quotient_order.calls", "quotient_order.s", "solve.found_ratio")},
    **{f"forge.{m}": ["corpus-build"] for m in (
        "estimate_space.calls", "estimate_space.s", "action_configurations.calls", "action_configurations.s",
        "random_instance.calls", "random_instance.s", "accept_ratio")},
    "cli.main.s": ["corpus-oracle-w2"],
    **{f"layer.{layer}.{k}": w for layer, w in _LAYER_WORKLOADS.items() for k in ("self_s", "outer_s")},
    "trace.wall_untraced_s": list(_LAYER_WORKLOADS["lattice"]) + ["corpus-oracle", "corpus-oracle-w2"],
    "trace.wall_traced_s": list(_LAYER_WORKLOADS["lattice"]) + ["corpus-oracle", "corpus-oracle-w2"],
    "trace.overhead_s": [],  # traced minus untraced: may read below zero on a noisy machine
    "trace.spans": ["corpus-oracle", "corpus-formula", "corpus-build", "corpus-oracle-w2"],
}
NOTES = [
    "Each per-layer metric is a per-pass median over the traced passes of one run. X.calls counts calls, "
    "X.s is inclusive seconds, layer.L.self_s is time in layer L's spans minus their child spans, "
    "layer.L.outer_s is time inside the outermost spans of layer L.",
    "Layer metrics should move: forge.oracle_group -> wall_s, op_tail_s on the oracle workloads; "
    "instance.load_instance -> setup_s; cli.main.s -> wall_s of corpus-oracle-w2; all others -> wall_s "
    "(and op_p50_s for the verifier metrics) on the workloads paired with them.",
    "On corpus-oracle-w2 the per-layer seconds are summed over both workers, so they can exceed wall_s.",
    "corpus-oracle and corpus-oracle-w2 use the 42 corpus instances with |U| <= 256. The whole corpus "
    "takes about 70 s serially through the oracle, more than one timed run can hold; the 512- and "
    "729-element instances would also make the parallel wall time depend on where the seed puts them.",
    "corpus-build skips the components (2,2)x(2,4) and (2,2)x(2,2,2): they take 8 of the 10.5 s of a full "
    "pass, so a run would hold one pass and each small component's latency would be a single noisy sample.",
    "All timings are scaled to nominal machine speed by a pure-Python reference kernel timed every 0.1 s "
    "during the work (speed.py); unscaled run medians of the same code differed by 25-40 % on this machine, "
    "which switches between speed states about 1.6x apart.",
    "setup_s is the median of 9 set-up probes (fresh interpreters that import logcap and load the inputs) "
    "over the median of 10 reference starts timed between them (fresh interpreters importing a fixed set "
    "of standard modules), times 0.065 s. Scaled by the kernel instead, its spread over ten seeds was "
    "0.14-0.25; interpreter start and imports do not follow the kernel's speed.",
    "peak_rss_mb is ru_maxrss: on corpus-oracle-w2 it is the largest single process (parent or one "
    "worker), not the sum over the pool.",
    "fail_ratio is the result's failed / attempted; it is not a BENCHMARK.json metric because it is 0 "
    "at this commit and metrics there must never read 0.",
    "Not measurable here: hardware counters (none exposed), the memory of the whole pool at once, and "
    "a quiet machine: the machine is shared with other tenants, so timings carry their load.",
]


SEEDS = list(range(1, 11))
CHECK_SEEDS = list(range(11, 21))


def _run(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs wrong:\n" + "\n".join(lines[:-1]))
    return result


def _machine() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def _summary(runs, metric, bound, label) -> dict:
    vals = [r["metrics"][metric]["value"] for r in runs]
    q1, q2, q3 = stats.quartiles(vals)
    sp = (q3 - q1) / q2
    flag = "" if sp < bound / 3 else "  UNSTEADY"
    print(f"{label:24} {metric:12} median {q2:.6g} spread {sp:.4f} (bound {bound}){flag}", flush=True)
    return {"median": q2, "q1": q1, "q3": q3, "spread": sp, "values": vals}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--commit", required=True, help="the commit measured, recorded as given")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    e2e, check, layers, info = {}, {}, {}, {}
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [_run(wl, s, seconds, 0) for s in SEEDS]
        check_runs = [_run(wl, s, seconds, 0) for s in CHECK_SEEDS]
        info[wl] = runs[0]["lines"][0]
        e2e[wl], check[wl] = {}, {}
        for metric, bound in bounds.items():
            e2e[wl][metric] = _summary(runs, metric, bound, wl)
            check[wl][metric] = c = _summary(check_runs, metric, bound, f"{wl} (check)")
            c["median_change"] = change = c["median"] / e2e[wl][metric]["median"] - 1
            flag = "" if abs(change) <= bound else "  MOVED"
            print(f"{wl + ' (check)':24} {metric:12} median change {change:+.4f}{flag}", flush=True)
        traced = _run(wl, SEEDS[0], seconds, 1)
        layers[wl] = {k: v["value"] for k, v in traced["metrics"].items()}
    o, b = layers["corpus-oracle"], layers["corpus-build"]
    wall_o, wall_b = o["trace.wall_traced_s"], b["trace.wall_traced_s"]
    out = {
        "commit": args.commit,
        "machine": _machine(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "op_tail": info,
        "end_to_end": e2e,
        "check": {"seeds": CHECK_SEEDS, "end_to_end": check},
        "per_layer": layers,
        "shares": {
            "corpus-oracle: forge.oracle_group.s / traced wall": o["forge.oracle_group.s"] / wall_o,
            "corpus-oracle: layer.lattice.outer_s / traced wall": o["layer.lattice.outer_s"] / wall_o,
            "corpus-build: layer.lattice.outer_s / traced wall": b["layer.lattice.outer_s"] / wall_b,
        },
        "pairing": PAIRING,
        "notes": NOTES,
    }
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
