"""Output checks: every op's result is compared with the frozen expectations.

A verify op is compared by each check's status and by the witness numbers
that do not depend on the algorithm that produced them, never by report
bytes, so that a change may add witness fields.  A build op is compared by
the sha256 of every file it wrote and by its manifest entry.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

WITNESS_KEYS = (
    "order",
    "index",
    "ambiguous_order",
    "boundary_order",
    "u_order",
    "derived_order",
)


def verdict_digest(report: dict) -> dict:
    """The part of one instance report that the benchmark pins."""
    checks = {}
    for c in report["checks"]:
        w = c.get("witness", {})
        checks[c["check"]] = {"status": c["status"], **{k: w[k] for k in WITNESS_KEYS if k in w}}
    return {"validation_ok": report["validation"]["ok"], "checks": checks}


def verify_mismatches(report: dict, expected: dict) -> list:
    """Differences between one instance report and its frozen digest."""
    try:
        got = verdict_digest(report)
    except (KeyError, TypeError) as e:
        return [f"malformed report: {type(e).__name__}: {e}"]
    out = []
    if got["validation_ok"] != expected["validation_ok"]:
        out.append(f"validation ok {got['validation_ok']} != {expected['validation_ok']}")
    for cid in sorted(set(got["checks"]) | set(expected["checks"])):
        g, e = got["checks"].get(cid), expected["checks"].get(cid)
        if g != e:
            out.append(f"{cid}: {g} != {e}")
    return out


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_mismatches(out_dir: Path, manifest: dict, expected_entry: dict) -> list:
    """Differences between one built component and its frozen manifest entry."""
    want = {f["name"]: f["sha256"] for f in expected_entry["files"]}
    got = {p.name: sha256_file(p) for p in out_dir.glob("*.json") if p.name != "manifest.json"}
    out = [
        f"{n}: sha256 {got.get(n)} != {want.get(n)}"
        for n in sorted(set(want) | set(got))
        if got.get(n) != want.get(n)
    ]
    entries = manifest.get("components", [])
    if entries != [expected_entry]:
        out.append(f"manifest entry {json.dumps(entries, sort_keys=True)[:200]} differs")
    return out
