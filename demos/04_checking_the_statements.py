"""Running the check catalogue.

V1..V10 assert, on one validated instance at a time: the transfer/trace
diagram (V1), the shape of the denominator I_G * B (V2), the determinant
identities and the containment of the capitulation image (V3, V6), the
genus decomposition (V4), the omega identities (V5), the main statement
that ambiguous classes capitulate (V7), the vanishing of delta on the
boundary module (V8), the index remark (V9), and agreement with the
brute-force oracle (V10).

The instance here has G = (Z/3)^2 with an asymmetric factor set, so the
boundary module is nonzero and V8 is not vacuous.
"""

import json
import tempfile
from pathlib import Path

from logcap.cli import main
from logcap.instance import build_instance, save_instance

table = {}
for g1 in range(3):
    for g2 in range(3):
        for h1 in range(3):
            for h2 in range(3):
                table[((g1, g2), (h1, h2))] = ((2 * g1 * h2 + h1 * g2) % 3,)
ident = [[1, 0], [0, 1]]
inst = build_instance(3, 3, [3, 3], [3], [ident, ident], table)

# Verify through the command line: a JSON report, then its markdown rendering.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "g33_asymmetric.json"
    report_path = Path(tmp) / "report.json"
    save_instance(inst, path)
    main(["verify", str(path), "--out", str(report_path)])
    main(["report", str(report_path)])
    report = json.loads(report_path.read_text())["instances"][0]

checks = {c["check"]: c for c in report["checks"]}
print("boundary module order:", checks["V8"]["witness"]["boundary_order"], "(delta kills it)")
v9 = checks["V9"]["witness"]
print("ambiguous index:", v9["index"], "= |G| =", v9["group_order"])
