"""The failure census: seeded corruption families of the shipped corpus and
the fixtures, run forced at oracle bound 256, and the condition that fired
in each failing verdict, read from its witness alone.

A helper for tests, not a test module.  ``inputs()`` builds every input
once, as ``(family, base, instance)``; ``run()`` runs the catalogue on each
and returns the forced reports.  ``conditions(verdict)`` names what a
failing verdict reports, each as ``(check, condition)``; a witness key or an
error it does not know raises ``UnknownCondition``, so a comparison added
to a check has to join the census before the census passes.

The families, each over every base (the corpus instances and the fixtures):

- ``base``: the base itself;
- ``v1``: one factor-set value (two copies, when A has torsion) or one
  action entry (two copies) set to a seeded random value;
- ``unnormalized``: a seeded nonzero value at ``f(s, 1)``, ``s != 1``;
- ``well-defined``: the ``(i, j)`` entry of a generator's torsion block, for
  torsion orders ``d_i < d_j``, set to a seeded value with
  ``d_i * m_ij != 0 mod d_j``, which breaks ``action-well-defined``;
- ``gamma-degree``: gamma's diagonal entry of a seeded generator set to a
  seeded value other than 1, which moves gamma off degree 1;
- ``precision``: the precision lowered by one, where the instance still loads;
- ``coboundary``: a seeded admissible coboundary shift, which must leave
  every status as it is on the base.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

from logcap.instance import SchemaError, coboundary_shift, instance_from_dict, instance_to_dict, load_instance
from logcap.verifier import run_all
from tests.conftest import FIXTURES, corpus_paths, random_admissible_shift

BOUND = 256
BASE_PATHS = corpus_paths() + sorted(FIXTURES.glob("*.json"))


class UnknownCondition(ValueError):
    """A failing verdict reports something the census has no name for."""


def v1_corruptions(inst, seed):
    """Copies of inst with one factor-set value (two copies, when A has
    torsion) or one action entry (two copies) set to a seeded random value."""
    rnd = random.Random(seed)
    elts, modulus = inst.group.elements(), inst.ring.modulus
    out = []
    for _ in range(2 if inst.atilde_orders else 0):
        data = instance_to_dict(inst)
        s, g = rnd.choice(elts), rnd.choice(elts)
        data["cocycle"][",".join(map(str, s + g))] = [rnd.randrange(o) for o in inst.atilde_orders]
        out.append(instance_from_dict(data))
    for _ in range(2):
        data = instance_to_dict(inst)
        matrix = rnd.choice(list(data["A"]["action"].values()))
        row = rnd.choice(matrix)
        row[rnd.randrange(len(row))] = rnd.randrange(modulus)
        out.append(instance_from_dict(data))
    return out


def _unnormalized(inst, seed):
    orders = inst.atilde_orders
    if not orders:
        return []
    rnd = random.Random(seed)
    data = instance_to_dict(inst)
    s = rnd.choice(inst.group.nonidentity())
    value = [0] * len(orders)
    k = rnd.randrange(len(orders))
    value[k] = rnd.randrange(1, orders[k])
    data["cocycle"][",".join(map(str, s + inst.group.identity()))] = value
    return [instance_from_dict(data)]


def _ill_defined(inst, seed):
    orders = inst.atilde_orders
    cells = [
        (key, i, j)
        for key in sorted(instance_to_dict(inst)["A"]["action"])
        for i in range(len(orders))
        for j in range(len(orders))
        if orders[i] < orders[j]
    ]
    if not cells:
        return []
    rnd = random.Random(seed)
    key, i, j = rnd.choice(cells)
    data = instance_to_dict(inst)
    bad = [v for v in range(orders[j]) if orders[i] * v % orders[j]]
    data["A"]["action"][key][i][j] = rnd.choice(bad)
    return [instance_from_dict(data)]


def _gamma_degree(inst, seed):
    rnd = random.Random(seed)
    t = inst.torsion_rank
    data = instance_to_dict(inst)
    matrix = rnd.choice(list(data["A"]["action"].values()))
    matrix[t][t] = rnd.choice([x for x in range(inst.ring.modulus) if x != 1])
    return [instance_from_dict(data)]


def _lower_precision(inst, seed):
    data = instance_to_dict(inst)
    data["precision"] -= 1
    try:
        return [instance_from_dict(data)]
    except SchemaError:  # a torsion order above the new modulus
        return []


def _coboundary(inst, seed):
    return [coboundary_shift(inst, random_admissible_shift(inst, random.Random(seed)))]


FAMILIES = {
    "v1": v1_corruptions,
    "unnormalized": _unnormalized,
    "well-defined": _ill_defined,
    "gamma-degree": _gamma_degree,
    "precision": _lower_precision,
    "coboundary": _coboundary,
}


def _label(path) -> str:
    return f"{path.parent.name}/{path.name}"


@lru_cache(maxsize=None)
def inputs() -> tuple:
    """Every census input once, as (family, base label, instance); each
    family's seed is the base's label."""
    out = []
    for path in BASE_PATHS:
        base = load_instance(path)
        out.append(("base", _label(path), base))
        for family, make in FAMILIES.items():
            out += [(family, _label(path), inst) for inst in make(base, _label(path))]
    return tuple(out)


@lru_cache(maxsize=None)
def run() -> tuple:
    """The forced report of every census input at BOUND, in input order."""
    return tuple(run_all(inst, oracle_bound=BOUND, force=True) for _, _, inst in inputs())


# -- reading a failing witness ---------------------------------------------------

# The keys each check writes whether it passes or fails.
DATA_KEYS = {
    "V1": set(),
    "V2": {"order"},
    "V3": {"certificate"},
    "V4": {"degree_zero_derived_order", "gamma_commutators_order"},
    "V5": {"omega_image_order", "generation"},
    "V6": {"delta", "trace_image_order", "images_equal", "certificate"},
    "V7": {"ambiguous_order", "trace_kernel_order"},
    "V8": {"boundary_order", "delta"},
    "V9": {"index", "group_order"},
    "V10": {"u_order", "derived_order"},
}

# The keys only a failure writes; the first names the comparison, except
# for V10, whose mismatches name one comparison per key of their own.
FAILURE_KEYS = {
    "V1": ("element", "transfer", "trace_of_log"),
    "V2": ("lhs_basis", "rhs_basis"),
    "V3": ("trace_values_outside_ig_gamma",),
    "V5": ("routes_disagree",),
    "V6": ("mismatches",),
    "V7": ("nonzero_traces",),
    "V8": ("violations",),
    "V10": ("mismatches",),
}

# The boolean data keys that a failure sets to false.
FALSE_KEYS = {
    "V5": ("generation",),
    "V6": ("images_equal",),
}

V10_MISMATCHES = (
    "derived",
    "derived_degree_zero",
    "gamma_commutators",
    "transfer_disagreements",
    "degree_zero_index",
)

# The exceptions a check may report as its error: the certificate's
# failures, which V3, V6 and V8 read from the frame, and the internal
# invariants that forced bad data trips.  Any other exception is unknown.
ERROR_TYPES = (
    "InfeasibleRelationError",
    "CertificateError",
    "PrecisionModelError",
    "InternalInvariantError",
)

# Every condition the census can name.
CONDITIONS = frozenset(
    {(c, keys[0]) for c, keys in FAILURE_KEYS.items() if c != "V10"}
    | {(c, key) for c, keys in FALSE_KEYS.items() for key in keys}
    | {("V4", "genus"), ("V9", "index")}
    | {("V10", key) for key in V10_MISMATCHES}
    | {(c, "error") for c in ("V3", "V5", "V6", "V7", "V8", "V9", "V10")}
)


def conditions(verdict) -> tuple:
    """The conditions a failing verdict reports, as sorted (check, condition)
    pairs, read from its witness alone.  A verdict that does not fail
    reports none."""
    if verdict.status != "fail":
        return ()
    check, witness = verdict.check_id, verdict.witness
    if "error" in witness:
        if set(witness) != {"error"} or witness["error"].split(":")[0] not in ERROR_TYPES:
            raise UnknownCondition(f"{check}: unknown error witness {witness}")
        names = {"error"}
    else:
        keys = FAILURE_KEYS.get(check, ())
        unknown = set(witness) - DATA_KEYS[check] - set(keys)
        if unknown:
            raise UnknownCondition(f"{check}: unknown witness keys {sorted(unknown)}")
        names = {k for k in FALSE_KEYS.get(check, ()) if witness[k] is False}
        if check == "V10":
            names |= set(witness.get("mismatches", {}))
            if names - set(V10_MISMATCHES):
                raise UnknownCondition(f"V10: unknown mismatches {sorted(names)}")
        elif keys and keys[0] in witness:
            names.add(keys[0])
        if check == "V9" and witness["index"] != witness["group_order"]:
            names.add("index")
        if check == "V4":
            names.add("genus")
    if not names:
        raise UnknownCondition(f"{check}: a failure that names no condition: {witness}")
    return tuple(sorted((check, name) for name in names))


def fired() -> Counter:
    """How many failing verdicts of the census report each condition."""
    return Counter(c for rep in run() for v in rep.verdicts for c in conditions(v))
