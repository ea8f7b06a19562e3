"""Record the benchmark's frozen inputs and expected outputs.

Run once from the repository root, at the commit the baseline describes:

    python3 perfbench/freeze.py

It copies the shipped corpus instances and manifests, the component specs
pinned in tools/build_corpus.py, and the verdicts the current library gives
for every instance, into perfbench/data/.  The benchmark reads only those
copies, so regenerating corpus/ or editing the build script later does not
change a workload.  Re-running it on a later commit would overwrite the
expectations with that commit's outputs: do so only deliberately.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]

import build_corpus  # noqa: E402
from logcap import extension, verifier  # noqa: E402
from logcap.instance import load_instance  # noqa: E402

from checks import WITNESS_KEYS, verdict_digest  # noqa: E402
from workloads import ORACLE_BOUND  # noqa: E402
# corpus-oracle keeps the instances whose oracle pass fits one timed run
ORACLE_SET_MAX_U = 256


def main() -> None:
    inst_dir = DATA / "instances"
    if inst_dir.exists():
        shutil.rmtree(inst_dir)
    inst_dir.mkdir(parents=True)
    (DATA / "manifests").mkdir(exist_ok=True)
    paths = []
    for sub in ("l2", "l3"):
        for p in sorted((ROOT / "corpus" / sub).glob("*.json")):
            if p.name == "manifest.json":
                shutil.copyfile(p, DATA / "manifests" / f"{sub}.json")
            else:
                shutil.copyfile(p, inst_dir / p.name)
                paths.append(inst_dir / p.name)

    groups = []
    for label, params, comps in (
        ("l2", build_corpus.L2, build_corpus.L2_COMPONENTS),
        ("l3", build_corpus.L3, build_corpus.L3_COMPONENTS),
    ):
        groups.append(
            {"label": label, "params": asdict(params), "components": [asdict(c) for c in comps]}
        )
    (DATA / "components.json").write_text(json.dumps(groups, indent=2) + "\n", encoding="utf-8")

    expected = {"witness_keys": list(WITNESS_KEYS), "u_order": {}, "verdicts": {}}
    for bound in (ORACLE_BOUND, 0):
        table = {}
        for p in paths:
            inst = load_instance(p)
            expected["u_order"][p.name] = extension.u_order(inst)
            table[p.name] = verdict_digest(verifier.run_all(inst, oracle_bound=bound).to_dict())
            print(f"bound {bound}: {p.name}", file=sys.stderr)
        expected["verdicts"][str(bound)] = table
    expected["oracle_set"] = sorted(
        n for n, u in expected["u_order"].items() if u <= ORACLE_SET_MAX_U
    )
    (DATA / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
