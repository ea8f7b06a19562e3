"""Command-line front end: validate, verify, search, oracle, report.

Exit codes are a stable contract: 0 success, 1 malformed input or usage, 2 a
mathematical check failed (validation failure or a fail/hypothesis-failed
verdict), 3 a resource refusal (search space above the ceiling, oracle
bound exceeded, group order or coefficient modulus above its limit).
``main`` maps the errors to codes, so no traceback reaches the user.  All
configuration comes from flags; reports are byte stable for fixed inputs and
seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import forge, verifier
from .groupring import GroupSizeError
from .instance import SchemaError, load_instance, read_json, validate
from .lattice import ModulusSizeError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2
EXIT_RESOURCE = 3


def _orders_arg(text: str):
    text = text.strip()
    if text in ("0", ""):
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse orders {text!r}") from None


def _at_least(least: int):
    """The argparse type of an integer count that is at least ``least``."""

    def count(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid count value"
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value

    return count


def _collect_paths(paths):
    out = []
    for p in paths:
        path = Path(p)
        if path.is_dir():
            out.extend(sorted(path.glob("*.json")))
        else:
            out.append(path)
    return [p for p in out if p.name != "manifest.json"]


def cmd_validate(args) -> int:
    report = validate(load_instance(args.path))
    for c in report.checks:
        line = f"{'pass' if c.passed else 'FAIL'}  {c.name}"
        if c.detail and not c.passed:
            line += f"  ({c.detail})"
        print(line)
    return EXIT_OK if report.ok else EXIT_MATH


def _verify_one(path_str: str, oracle_bound: int, force: bool) -> dict:
    inst = load_instance(path_str)
    rep = verifier.run_all(inst, oracle_bound=oracle_bound, force=force)
    return {"file": Path(path_str).name, **rep.to_dict()}


def cmd_verify(args) -> int:
    paths = _collect_paths(args.paths)
    if not paths:
        print("error: no instance files found", file=sys.stderr)
        return EXIT_INPUT
    for p in paths:  # a malformed file ends the run before any verification
        load_instance(p)
    # the fork start method launches every worker at the first submit, so
    # the pool is never larger than the number of files
    workers = min(args.workers, len(paths))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_verify_one, str(p), args.oracle_bound, args.force)
                for p in paths
            ]
            results = [f.result() for f in futures]  # merged in input order
    else:
        results = [_verify_one(str(p), args.oracle_bound, args.force) for p in paths]
    payload = {
        "instances": results,
        "summary": _summary(results),
    }
    text = _render(payload, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    bad = payload["summary"]["fail"] + payload["summary"]["hypothesis-failed"] + payload[
        "summary"
    ]["validation-failed"]
    return EXIT_MATH if bad else EXIT_OK


def _summary(results) -> dict:
    counts = {"pass": 0, "fail": 0, "hypothesis-failed": 0, "skipped": 0}
    vfail = 0
    for r in results:
        if not r["validation"]["ok"]:
            vfail += 1
        for c in r["checks"]:
            counts[c["status"]] += 1
    return {**counts, "instances": len(results), "validation-failed": vfail}


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = ["# verification report", ""]
    s = payload["summary"]
    lines.append(
        f"{s['instances']} instance(s): {s['pass']} pass, {s['fail']} fail, "
        f"{s['hypothesis-failed']} hypothesis-failed, {s['skipped']} skipped."
    )
    lines.append("")
    for r in payload["instances"]:
        lines.append(f"### {r['file']}")
        lines.append("")
        if not r["validation"]["ok"]:
            failed = [c["name"] for c in r["validation"]["checks"] if not c["passed"]]
            lines.append(f"validation failed: {', '.join(failed)}")
            lines.append("")
        lines.append("| check | status | arithmetic | detail |")
        lines.append("|---|---|---|---|")
        for c in r["checks"]:
            detail = _detail_cell(c)
            lines.append(f"| {c['check']} | {c['status']} | {c['arithmetic']} | {detail} |")
        lines.append("")
        if r.get("certificate"):
            lines.append(f"certificate `{r['certificate'][:16]}`, delta `{r['delta']}`")
            lines.append("")
    return "\n".join(lines) + "\n"


def _detail_cell(check: dict) -> str:
    w = check.get("witness", {})
    keys = (
        "elements_checked",
        "order",
        "omega_image_order",
        "trace_image_order",
        "ambiguous_order",
        "trace_kernel_order",
        "index",
        "u_order",
        "boundary_order",
    )
    bits = [f"{k}={w[k]}" for k in keys if k in w]
    if check["status"] not in ("pass", "skipped") and not bits:
        bits = [json.dumps(w, sort_keys=True)[:120]]
    return ", ".join(bits)


def cmd_search(args) -> int:
    params = forge.SearchParams(
        prime=args.prime,
        precision=args.precision,
        g_orders_list=tuple(args.G),
        atilde_orders_list=tuple(args.Atilde),
        seed=args.seed,
        ceiling=args.ceiling,
        samples=args.samples,
    )
    components = [
        forge.ComponentSpec(g, a, args.mode)
        for g in params.g_orders_list
        for a in params.atilde_orders_list
    ]
    try:
        manifest = forge.build_corpus(params, components, args.out)
    except ValueError as e:  # a --prime, --precision or order that forge rejects
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    total = sum(c["count"] for c in manifest["components"])
    print(f"wrote {total} instance(s) to {args.out}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = load_instance(args.path)
    report = validate(inst)
    if not report.ok:  # the oracle's facts mean nothing without a group law
        print(f"validation failed: {', '.join(report.failed_names())}", file=sys.stderr)
        return EXIT_MATH
    facts = forge.oracle_group(inst, bound=args.bound)
    print(f"|U| = {facts.u_order}")
    print(f"|U~| = {facts.u_tilde_order}")
    print(f"|U'| = {len(facts.derived)}")
    print(f"|U~'| = {len(facts.derived_degree_zero)}")
    print(f"|U~ / U'| = {facts.degree_zero_index}")
    print(f"|U^omega| = {len(facts.gamma_commutators)}")
    return EXIT_OK


def cmd_report(args) -> int:
    payload = read_json(args.path)
    try:
        # The markdown render reads every field of a report, so it is the
        # shape check for both formats.
        text = _render(payload, "markdown")
    except (KeyError, TypeError, AttributeError):  # a field missing or of the wrong type
        print("error: not a verification report", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "json":
        text = _render(payload, "json")
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logcap",
        description="validate, verify, and search capitulation instances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the structural checks on one instance file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("verify", help="run the check catalogue V1..V10")
    p.add_argument("paths", nargs="+", help="instance files or corpus directories")
    p.add_argument("--format", choices=("json", "markdown"), default="json")
    p.add_argument("--out", default=None)
    p.add_argument(
        "--oracle-bound", type=_at_least(0), default=forge.DEFAULT_ORACLE_BOUND,
        help="|U| above which V10 is skipped; no other check reads it",
    )
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.add_argument(
        "--force",
        action="store_true",
        help="run checks even when validation fails (witness demonstrations)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="enumerate or sample instances into a corpus")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--precision", type=int, required=True)
    p.add_argument(
        "--G", type=_orders_arg, action="append", required=True,
        help="cyclic orders of G, e.g. 2,2 (repeatable)",
    )
    p.add_argument(
        "--Atilde", type=_orders_arg, action="append", required=True,
        help="invariant factors of the torsion part, 0 for trivial (repeatable)",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ceiling", type=_at_least(0), default=50_000)
    p.add_argument("--samples", type=_at_least(0), default=3)
    p.add_argument("--mode", choices=("auto", "exhaustive", "sample"), default="auto")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle", help="brute-force facts about one instance's extension group")
    p.add_argument("path")
    p.add_argument("--bound", type=_at_least(0), default=forge.DEFAULT_ORACLE_BOUND)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("report", help="re-render a verification report")
    p.add_argument("path", help="a JSON report produced by verify")
    p.add_argument("--format", choices=("json", "markdown"), default="markdown")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse has printed the help (0) or a usage error (2)
        return EXIT_INPUT if e.code else EXIT_OK
    try:
        return args.func(args)
    except (SchemaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (
        GroupSizeError,
        ModulusSizeError,
        forge.CeilingExceededError,
        forge.OracleBoundError,
    ) as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
