"""Named checks V1..V10 executed on a validated instance.

Each check asserts one statement of the underlying theory at the level of
submodules and exact element identities, and returns a verdict carrying
enough witness data to reproduce a failure.  Instances that do not pass
validation are gated: every check reports hypothesis-failed (the theory
only speaks about instances satisfying the structural hypotheses), unless
``force`` is set, which is how broken fixtures demonstrate real failure
witnesses.

V3, V6 and V8 read a shared relation certificate; its content hash is
embedded in their verdicts so reports are reproducible end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from . import extension, forge
from .instance import Instance, ValidationReport
from .lattice import preimage, quotient_order, vec_mat
from .resolvent import log_iso, omega_act, star_act, trace

# whether the identity lives in the torsion part (exact) or involves the
# truncated free coordinate (holds at the declared precision)
CHECK_ARITHMETIC = {
    "V1": "precision-n",
    "V2": "precision-n",
    "V3": "precision-n",
    "V4": "exact",
    "V5": "exact",
    "V6": "precision-n",
    "V7": "precision-n",
    "V8": "exact",
    "V9": "precision-n",
    "V10": "precision-n",
}


@dataclass(frozen=True)
class Verdict:
    check_id: str
    status: str  # pass | fail | hypothesis-failed | skipped
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "status": self.status,
            "arithmetic": CHECK_ARITHMETIC[self.check_id],
            "witness": self.witness,
        }


def _fmt_vec(v) -> list:
    return [int(x) for x in v]


# -- individual checks ---------------------------------------------------------


def _v1_diagram(inst: Instance, oracle_bound: int) -> Verdict:
    # Both sides are affine in a with the same linear part, the norm (the A
    # rows of Tr), so their difference does not depend on a: they agree on U
    # exactly when they agree at (0, tau) for every tau, and the first failing
    # tau is the first failure of the walk over U, A outer and G inner.
    a = inst.a_zero()
    for tau in inst.group.elements():
        via_transfer = extension.transfer(inst, a, tau)
        via_trace = trace(inst, log_iso(inst, a, tau).to_vec())
        if via_transfer != via_trace:
            return Verdict(
                "V1",
                "fail",
                {
                    "element": {"a": _fmt_vec(a), "tau": _fmt_vec(tau)},
                    "transfer": _fmt_vec(via_transfer),
                    "trace_of_log": _fmt_vec(via_trace),
                },
            )
    return Verdict("V1", "pass", {"elements_checked": inst.group.size()})


def _v2_denominator(inst: Instance, oracle_bound: int) -> Verdict:
    frame = inst.frame
    lhs = frame.ig_b
    atilde = [frame.unit(k) for k in range(inst.torsion_rank)]
    rhs = frame.span(atilde, frame.dim_b) + frame.ig_squared
    ok = lhs == rhs
    witness = {"order": frame.size(lhs)}
    if not ok:
        witness["lhs_basis"] = [list(r) for r in lhs.basis]
        witness["rhs_basis"] = [list(r) for r in rhs.basis]
    return Verdict("V2", "pass" if ok else "fail", witness)


def _v3_determinant(inst: Instance, oracle_bound: int) -> Verdict:
    # delta asserts det M = Tr, and is None where that fails; Lambda is M
    frame = inst.frame
    cert, delta_op, error = frame.relations
    if delta_op is None:
        return Verdict("V3", "fail", {"error": error})
    witness = {"certificate": cert.content_hash}
    outside = [_fmt_vec(tv) for tv in frame.bt_rows(frame.trace_matrix) if tv not in frame.ig_gamma]
    if outside:
        witness["trace_values_outside_ig_gamma"] = outside
    return Verdict("V3", "fail" if outside else "pass", witness)


def _v4_genus(inst: Instance, oracle_bound: int) -> Verdict:
    frame = inst.frame
    u_t_prime = frame.derived_degree_zero
    u_omega = frame.ig_gamma
    ok = u_t_prime + u_omega == frame.atilde
    witness = {
        "degree_zero_derived_order": frame.size(u_t_prime),
        "gamma_commutators_order": frame.size(u_omega),
    }
    return Verdict("V4", "pass" if ok else "fail", witness)


def _v5_omega(inst: Instance, oracle_bound: int) -> Verdict:
    frame = inst.frame
    # route 1: the ideal acting on gamma through the module action, which
    # is also the image of omega (its B-tilde rows on A are (1 - tau) * gamma)
    s_gamma = frame.ig_gamma
    # route 2: commutators of the gamma lift inside the extension group;
    # the lift lies over 1, so each commutator lies over 1, in A
    gamma_lift = extension.UElement(inst, inst.gamma(), inst.group.identity())
    comm_gens = []
    for tau in inst.group.elements():
        u_tau = extension.UElement(inst, inst.a_zero(), tau)
        comm_gens.append((gamma_lift * u_tau * gamma_lift.inverse() * u_tau.inverse()).a)
    s_comm = inst.span_a(comm_gens)
    ok = s_gamma == s_comm
    witness: dict = {"omega_image_order": frame.size(s_gamma)}
    if not ok:
        witness["routes_disagree"] = {
            "ideal_on_gamma": [list(r) for r in s_gamma.basis],
            "commutators": [list(r) for r in s_comm.basis],
        }
    # w^2 = 0 holds by construction: the rows of omega are zero on A and
    # lie in A elsewhere
    witness["generation"] = frame.generated
    return Verdict("V5", "pass" if ok and frame.generated else "fail", witness)


def _v6_delta(inst: Instance, oracle_bound: int) -> Verdict:
    frame = inst.frame
    cert, delta_op, error = frame.relations
    if delta_op is None:
        return Verdict("V6", "fail", {"error": error})
    d = inst.dim_a
    bad = []
    for k in frame.bt_index:
        e_k = frame.unit(k)
        lhs = frame.trace_matrix[k]
        # the rows of w lie in A, so only the A part of w * (delta * e_k) can differ
        rhs = omega_act(inst, star_act(inst, delta_op, e_k))
        if lhs != rhs[:d]:
            bad.append({"element": _fmt_vec(e_k), "trace": _fmt_vec(lhs), "omega_delta": _fmt_vec(rhs[:d])})
    trace_image = inst.span_a(frame.bt_rows(frame.trace_matrix))
    delta_image = inst.span_a([inst.act_ring(delta_op, r) for r in frame.ig_gamma.basis])
    images_equal = trace_image == delta_image
    ok = not bad and images_equal
    witness = {
        "delta": delta_op.to_dict(),
        "trace_image_order": frame.size(trace_image),
        "images_equal": images_equal,
        "certificate": cert.content_hash,
    }
    if bad:
        witness["mismatches"] = bad[:4]
    return Verdict("V6", "pass" if ok else "fail", witness)


def _v7_main_theorem(inst: Instance, oracle_bound: int) -> Verdict:
    frame = inst.frame
    amb = frame.ambiguous
    zero = frame.zero_a
    bt_trace = frame.bt_rows(frame.trace_matrix)
    bad = []
    for row in amb.basis:
        tv = vec_mat(row, bt_trace, frame.orders)
        if tv not in zero:
            bad.append({"element": list(row), "trace": _fmt_vec(tv)})
    # reported as data: the order of the full trace kernel in the quotient
    tr_kernel = preimage(bt_trace, zero, inst.ring)
    ig_bt = frame.ig_bt
    kernel_index = quotient_order(tr_kernel, ig_bt) if tr_kernel.contains_submodule(ig_bt) else None
    witness = {
        "ambiguous_order": frame.ambiguous_index,
        "trace_kernel_order": kernel_index,
    }
    if bad:
        witness["nonzero_traces"] = bad[:4]
    return Verdict("V7", "pass" if not bad else "fail", witness)


def _v8_delta_kills_boundary(inst: Instance, oracle_bound: int) -> Verdict:
    frame = inst.frame
    _, delta_op, error = frame.relations
    if delta_op is None:
        return Verdict("V8", "fail", {"error": error})
    bad = []
    for row in frame.boundary.basis:
        img = inst.act_ring(delta_op, row)
        if img not in frame.zero_a:
            bad.append({"generator": list(row), "delta_image": _fmt_vec(img)})
    witness = {
        "boundary_order": frame.size(frame.boundary),
        "delta": delta_op.to_dict(),
    }
    if bad:
        witness["violations"] = bad
    return Verdict("V8", "pass" if not bad else "fail", witness)


def _v9_index(inst: Instance, oracle_bound: int) -> Verdict:
    idx = inst.frame.ambiguous_index
    ok = idx == inst.group.size()
    return Verdict(
        "V9",
        "pass" if ok else "fail",
        {"index": idx, "group_order": inst.group.size()},
    )


def _v10_oracle(inst: Instance, oracle_bound: int) -> Verdict:
    n_u = extension.u_order(inst)
    if n_u > oracle_bound:
        return Verdict("V10", "skipped", {"reason": f"|U| = {n_u} exceeds bound {oracle_bound}"})
    facts = forge.oracle_group(inst, bound=oracle_bound)
    frame = inst.frame
    mismatches = {}

    # The oracle's sets hold reduced vectors of A.  Such a set is the
    # submodule exactly when it spans the submodule, which puts it inside,
    # and has the submodule's size, which rules out a proper subset.
    for key, sub in (
        ("derived", frame.derived),
        ("derived_degree_zero", frame.derived_degree_zero),
        ("gamma_commutators", frame.ig_gamma),
    ):
        oracle, order = getattr(facts, key), frame.size(sub)
        if len(oracle) != order or inst.span_a(oracle) != sub:
            mismatches[key] = {"formula_order": order, "oracle_order": len(oracle)}
    # The transfer N*a + c(tau) of Frame.transfer_map: N*a once per a, and
    # the row {tau: N*a + c(tau)} once per distinct N*a.
    rows, by_norm = {}, {}
    for a in {a for a, _ in facts.transfer}:
        norm = vec_mat(a, frame.trace_matrix, frame.orders)
        if norm not in by_norm:
            by_norm[norm] = {g: inst.a_add(norm, c) for g, c in frame.offsets.items()}
        rows[a] = by_norm[norm]
    ver_bad = sum([rows[a][g] != want for (a, g), want in facts.transfer.items()])
    if ver_bad:
        mismatches["transfer_disagreements"] = ver_bad
    if facts.degree_zero_index != inst.group.size():
        mismatches["degree_zero_index"] = facts.degree_zero_index
    witness = {"u_order": facts.u_order, "derived_order": len(facts.derived)}
    if mismatches:
        witness["mismatches"] = mismatches
    return Verdict("V10", "pass" if not mismatches else "fail", witness)


_CHECKS = {
    "V1": _v1_diagram,
    "V2": _v2_denominator,
    "V3": _v3_determinant,
    "V4": _v4_genus,
    "V5": _v5_omega,
    "V6": _v6_delta,
    "V7": _v7_main_theorem,
    "V8": _v8_delta_kills_boundary,
    "V9": _v9_index,
    "V10": _v10_oracle,
}
CHECK_IDS = tuple(_CHECKS)


def run_check(
    inst: Instance,
    check_id: str,
    oracle_bound: int = forge.DEFAULT_ORACLE_BOUND,
    force: bool = False,
) -> Verdict:
    """Run one catalogue check, gated on validation; a check crashing on
    forced bad data is a failure."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}")
    report = inst.frame.validation
    if not report.ok and not force:
        return Verdict(
            check_id, "hypothesis-failed", {"failed_validation": list(report.failed_names())}
        )
    try:
        return _CHECKS[check_id](inst, oracle_bound)
    except Exception as e:
        return Verdict(check_id, "fail", {"error": f"{type(e).__name__}: {e}"})


@dataclass(frozen=True)
class InstanceReport:
    validation: ValidationReport
    verdicts: Tuple[Verdict, ...]
    certificate_hash: Optional[str]
    delta: Optional[dict]

    def to_dict(self) -> dict:
        return {
            "validation": self.validation.to_dict(),
            "checks": [v.to_dict() for v in self.verdicts],
            "certificate": self.certificate_hash,
            "delta": self.delta,
        }


def run_all(
    inst: Instance, oracle_bound: int = forge.DEFAULT_ORACLE_BOUND, force: bool = False
) -> InstanceReport:
    """Validate, then run the whole catalogue with one shared certificate."""
    report = inst.frame.validation
    verdicts = tuple(run_check(inst, cid, oracle_bound, force) for cid in CHECK_IDS)
    if not report.ok and not force:
        return InstanceReport(report, verdicts, None, None)
    cert, delta_op, _ = inst.frame.relations
    return InstanceReport(
        report,
        verdicts,
        cert.content_hash if cert else None,
        delta_op.to_dict() if delta_op is not None else None,
    )
