"""logcap benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus-formula --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its src/.
The run first times SETUP_PROBES fresh interpreters that import logcap and
load every input of the workload, each next to a reference start (setup_s),
then runs whole passes over the
workload, each in an order drawn from the seed, until the next pass would
end after --seconds (at least one pass), and checks every output.  Every
timing is scaled to a nominal machine speed by a reference kernel timed
next to it (see speed.py).

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates an untraced and a traced pass and reports the
per-layer metrics, taken from the traced passes, plus the tracing overhead.
Per-pass figures are medians over the passes of the run.  Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_seconds(workload: str) -> float:
    """Scaled seconds of a set-up: the median probe over the median of the
    reference starts timed between the probes, in START_NOMINAL units."""
    import speed

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", "0"]
    probes, refs = [], [speed.time_process(speed.START_REF)]
    for _ in range(SETUP_PROBES):
        probes.append(speed.time_process(cmd))
        refs.append(speed.time_process(speed.START_REF))
    return median(probes) / median(refs) * speed.START_NOMINAL


def _measure(wl, rng, seconds, work, tracer):
    """Untraced passes (paired with traced ones when tracing) until time is up."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        order = rng.sample(wl.ops, len(wl.ops))
        untraced.append(wl.run_pass(order, work, None))
        if tracer is not None:
            tracer.install()
            try:
                tracer.reset()
                traced.append(wl.run_pass(order, work, tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return untraced, traced


def _peak_rss_mb(serial: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not serial:
        # ru_maxrss of children is the largest single worker, not their sum
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _layer_metrics(names, untraced, traced) -> dict:
    per_pass = []
    for p in traced:
        s = {k: v * p.layer_scale if k.endswith(("_s", ".s")) else v for k, v in p.layers.items()}
        solves = s.get("lattice.solve.calls", 0)
        s["lattice.solve.found_ratio"] = s.get("lattice.solve.found", 0) / solves if solves else 0.0
        validates = s.get("instance.validate.calls", 0)
        s["forge.accept_ratio"] = s.get("forge.files_written", 0) / validates if validates else 0.0
        per_pass.append(s)
    wall_u = median([p.wall for p in untraced])
    wall_t = median([p.wall for p in traced])
    out = {n: median([s.get(n, 0) for s in per_pass]) for n in names}
    out.update(
        {
            "trace.wall_untraced_s": wall_u,
            "trace.wall_traced_s": wall_t,
            "trace.overhead_s": wall_t - wall_u,
        }
    )
    return {n: out[n] for n in names}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "logcap" / "__init__.py").is_file():
        print(f"error: no logcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    import stats
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        wl.load_inputs()
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup = _setup_seconds(args.workload)
    wl.load_inputs()
    rng = random.Random(args.seed)
    tracer = spans.Tracer() if args.trace else None
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        untraced, traced = _measure(wl, rng, args.seconds, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]

    if args.trace:
        table = bench["per_layer"]
        values = _layer_metrics([m["name"] for m in table], untraced, traced)
    else:
        table = bench["end_to_end"]
        # an op that crashed in a pool worker has no time
        timed = [[p.op_times[n] for p in untraced if n in p.op_times] for n in wl.ops]
        per_op = [median(ts) for ts in timed if ts] or [0.0]
        if len(per_op) > stats.TAIL_BEYOND:
            tail, pct, n = stats.tail(per_op)
        else:
            tail, pct, n = max(per_op), 100, len(per_op)
        values = {
            "wall_s": median([p.wall for p in untraced]),
            "setup_s": setup,
            "op_p50_s": median(per_op),
            "op_tail_s": tail,
            "peak_rss_mb": _peak_rss_mb(wl.serial),
        }
        print(f"op_tail_s is p{pct} of {n} per-op medians; setup_s is the median of {SETUP_PROBES} probes "
              f"over the median of {SETUP_PROBES + 1} reference starts")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(untraced)} untraced "
          f"and {len(traced)} traced pass(es) of {len(wl.ops)} ops")
    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"fail_ratio {len(failures) / attempted} ({len(failures)} of {attempted} ops)")
    metrics = {}
    for m in table:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
