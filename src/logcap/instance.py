"""The finite instance data: (l, n, G, A, factor set).

A is a coordinatized module T x (Z/l^n), where T is the torsion part with
declared invariant factors and the last coordinate is the distinguished
generator gamma with deg(gamma) = 1.  G acts through one matrix per cyclic
generator; matrices act on row vectors from the right.  The factor set
takes values in the torsion part and is normalized, satisfies the standard
associativity identity, and vanishes on inverse pairs (the transversal
convention u_{t^-1} = u_t^-1).

An ``Instance`` holds that data and nothing derived from it.  Everything
derived, from the coefficient ring and the factor set embedded in A to
the submodules the checks read, belongs to its ``Frame`` (``inst.frame``,
see ``resolvent``), each value built once on first use.  The coordinate
helpers here read the frame.

Validation failures are data, not exceptions: ``validate`` returns a named
report and loaders accept arithmetically broken files as long as they are
structurally well formed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

from .groupring import AbelianLGroup, GElt, GroupRingElt, GroupSizeError, check_l_powers
from .lattice import ModulusSizeError, Submodule, ZModRing, carry_free_coder, mat_mul, vec_mat

if TYPE_CHECKING:
    from .resolvent import Frame

Vec = Tuple[int, ...]


class SchemaError(ValueError):
    """Structurally malformed instance data (bad JSON shape, keys, ranges)."""


class RejectedShiftError(ValueError):
    """A coboundary shift that would break the inverse convention."""


@dataclass(frozen=True)
class Instance:
    """The data of one instance; ``cocycle`` lists the nonzero factor-set
    values as a sorted tuple of (sigma, tau, value)."""

    prime: int
    precision: int
    group: AbelianLGroup
    atilde_orders: Tuple[int, ...]
    action: Tuple[Tuple[Tuple[int, ...], ...], ...]  # one (t+1)x(t+1) matrix per generator
    cocycle: Tuple[Tuple[GElt, GElt, Vec], ...]

    @cached_property
    def frame(self) -> "Frame":
        """The derived state of this instance: ring, actions, submodules,
        certificate."""
        from .resolvent import Frame

        return Frame(self)

    # -- basic coordinates ---------------------------------------------

    @property
    def ring(self) -> ZModRing:
        return self.frame.ring

    @property
    def dim_a(self) -> int:
        return len(self.atilde_orders) + 1

    @property
    def torsion_rank(self) -> int:
        return len(self.atilde_orders)

    def a_reduce(self, vec: Sequence[int]) -> Vec:
        return tuple(x % o for x, o in zip(vec, self.frame.orders))

    def a_add(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        return self.a_reduce([a + b for a, b in zip(x, y)])

    def a_sub(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        return self.a_reduce([a - b for a, b in zip(x, y)])

    def a_neg(self, x: Sequence[int]) -> Vec:
        return self.a_reduce([-a for a in x])

    def a_zero(self) -> Vec:
        return (0,) * self.dim_a

    def gamma(self) -> Vec:
        return (0,) * self.torsion_rank + (1,)

    def atilde_embed(self, t_vec: Sequence[int]) -> Vec:
        return self.a_reduce(tuple(t_vec) + (0,))

    def atilde_reduce(self, t_vec: Sequence[int]) -> Vec:
        return tuple(x % o for x, o in zip(t_vec, self.atilde_orders))

    # -- the G-action ----------------------------------------------------

    def act(self, g: GElt, vec: Sequence[int]) -> Vec:
        return vec_mat(vec, self.frame.action[g], self.frame.orders)

    def act_ring(self, x: GroupRingElt, vec: Sequence[int]) -> Vec:
        """sum_g x_g * (g * vec), reduced once."""
        moved = [self.act(g, vec) for g in x.coeffs]
        return vec_mat(list(x.coeffs.values()), moved, self.frame.orders)

    def a_tau(self, tau: GElt) -> Vec:
        """(1 - tau) * gamma, the basic commutator of the Gamma-lift: gamma
        minus the gamma row of tau's action matrix."""
        return self.a_sub(self.gamma(), self.frame.action[tau][-1])

    def atilde_act(self, g: GElt, t_vec: Sequence[int]) -> Vec:
        """The action restricted to the torsion part (block structure)."""
        full = self.act(g, self.atilde_embed(t_vec))
        return full[: self.torsion_rank]

    def cocycle_in_a(self, sigma: GElt, tau: GElt) -> Vec:
        return self.frame.factor_set.get((sigma, tau), self.a_zero())

    # -- submodules of A ---------------------------------------------------

    def span_a(self, gens: Sequence[Sequence[int]]) -> Submodule:
        return self.frame.span(gens, self.dim_a)

    def atilde_order(self) -> int:
        return math.prod(self.atilde_orders)


# -- construction -----------------------------------------------------------


def build_instance(
    prime: int,
    precision: int,
    g_orders: Sequence[int],
    atilde_orders: Sequence[int],
    action: Sequence[Sequence[Sequence[int]]],
    cocycle_table: Dict[Tuple[GElt, GElt], Sequence[int]],
) -> Instance:
    """Canonicalize raw data into an Instance, raising SchemaError on
    structural problems.  Arithmetic invariants are left to ``validate``."""
    try:
        group = AbelianLGroup(prime, g_orders)
        ring = ZModRing(prime, precision)
        check_l_powers(prime, atilde_orders, "torsion")
    except ValueError as e:
        raise SchemaError(str(e)) from None
    t = len(atilde_orders)
    for o in atilde_orders:
        if o > ring.modulus:
            raise SchemaError(f"torsion order {o} exceeds the coefficient modulus {ring.modulus}")
    d = t + 1
    if len(action) != group.rank:
        raise SchemaError(
            f"expected {group.rank} action matrices (one per generator), got {len(action)}"
        )
    mats = []
    for k, m in enumerate(action):
        if len(m) != d or any(len(r) != d for r in m):
            raise SchemaError(f"action matrix tau_{k + 1} is not {d}x{d}")
        mats.append(tuple(tuple(x % ring.modulus for x in r) for r in m))
    table = {}
    for (s, g), v in cocycle_table.items():
        s = tuple(s)
        g = tuple(g)
        if not group.contains(s) or not group.contains(g):
            raise SchemaError(f"cocycle key ({s}, {g}) is not a pair of group elements")
        if len(v) != t:
            raise SchemaError(f"cocycle value for ({s}, {g}) has length {len(v)}, expected {t}")
        table[(s, g)] = tuple(x % o for x, o in zip(v, atilde_orders))
    return Instance(
        prime=prime,
        precision=precision,
        group=group,
        atilde_orders=tuple(int(o) for o in atilde_orders),
        action=tuple(mats),
        cocycle=_cocycle_entries(table),
    )


def _cocycle_entries(table: Dict[Tuple[GElt, GElt], Sequence[int]]) -> Tuple:
    """The nonzero values of a factor-set table as a sorted tuple of
    (sigma, tau, value), the form an Instance holds."""
    return tuple(sorted((s, t, tuple(v)) for (s, t), v in table.items() if any(v)))


# -- validation ---------------------------------------------------------------


def log_ceil(e: int, prime: int) -> int:
    """The least m >= 0 with prime**m >= e."""
    m = 0
    while prime**m < e:
        m += 1
    return m


def precision_terms(
    prime: int, atilde_orders: Sequence[int], g_orders: Sequence[int]
) -> Tuple[int, int]:
    """(m_A, m_G), the least exponents with l^m_A >= exp(A~) and
    l^m_G >= exp(G); the precision rule asks for n >= m_A + m_G + 1."""
    return (
        log_ceil(max(atilde_orders, default=1), prime),
        log_ceil(max(g_orders, default=1), prime),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: Tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def validate(inst: Instance) -> ValidationReport:
    """Run every structural invariant plus the arithmetic hypothesis H1."""
    checks = []
    ring = inst.ring
    N = ring.modulus
    group = inst.group
    t = inst.torsion_rank
    d = inst.dim_a
    orders = inst.atilde_orders

    m_at, m_g = precision_terms(inst.prime, orders, group.orders)
    ok = inst.precision >= m_at + m_g + 1
    checks.append(
        CheckResult(
            "precision-rule",
            ok,
            "" if ok else f"n = {inst.precision} < {m_at} + {m_g} + 1",
        )
    )

    # block structure: torsion rows have zero gamma column, gamma row fixes
    # the gamma coordinate; equivalently the action preserves degrees and
    # (1 - tau) * gamma lies in the torsion part
    bad = []
    for k, m in enumerate(inst.action):
        for i in range(t):
            if m[i][t] % N:
                bad.append(f"tau_{k + 1} row {i} has gamma component {m[i][t]}")
        if m[t][t] % N != 1:
            bad.append(f"tau_{k + 1} moves deg: gamma coefficient {m[t][t]}")
    checks.append(CheckResult("action-block-structure", not bad, "; ".join(bad)))

    bad = []
    for k, m in enumerate(inst.action):
        for i in range(t):
            for j in range(t):
                if (orders[i] * m[i][j]) % orders[j]:
                    bad.append(f"tau_{k + 1}[{i}][{j}] breaks torsion")
    checks.append(CheckResult("action-well-defined", not bad, "; ".join(bad)))

    # each matrix reduced per coordinate, as inst.act reduces an image, so
    # row i of a product of them is the image of e_i
    a_orders = inst.frame.orders
    one = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    mats = [tuple(tuple(x % o for x, o in zip(row, a_orders)) for row in m) for m in inst.action]
    bad = []
    for a, b in itertools.combinations(range(len(mats)), 2):
        ab = mat_mul(mats[a], mats[b], a_orders)
        ba = mat_mul(mats[b], mats[a], a_orders)
        i = next((i for i in range(d) if ab[i] != ba[i]), None)
        if i is not None:
            bad.append(f"tau_{a + 1} and tau_{b + 1} disagree on e_{i}")
    checks.append(CheckResult("action-commutes", not bad, "; ".join(bad)))

    bad = []
    for k, o in enumerate(group.orders):
        power = one
        for _ in range(o):
            power = mat_mul(power, mats[k], a_orders)
        bad += [
            f"tau_{k + 1}^{o} is not the identity on e_{i}" for i in range(d) if power[i] != one[i]
        ]
    checks.append(CheckResult("action-order", not bad, "; ".join(bad)))

    # factor set checks, on tables of element indices and of value codes
    elts = group.elements()
    idx, prod = group.product_indices()
    code, red = carry_free_coder(orders)
    f = [[0] * len(elts) for _ in elts]
    values = {0: (0,) * t}
    for s, g, v in inst.cocycle:
        f[idx[s]][idx[g]] = code(v)
        values[code(v)] = v
    bad = [  # elements()[0] is the identity
        f"nonzero entry at identity pair with {g}" for g, x, fg in zip(elts, f[0], f) if x or fg[0]
    ]
    checks.append(CheckResult("cocycle-normalized", not bad, "; ".join(bad)))

    # s*f(g, r) + f(s, gr) = f(sg, r) + f(s, g), with s*v once per value v
    bad = []
    for s, fs, ps in zip(elts, f, prod):
        act = {c: code(inst.atilde_act(s, v)) for c, v in values.items()}
        for g, fg, pg, z, sg in zip(elts, f, prod, fs, ps):
            bad += [
                f"triple ({s}, {g}, {r})"
                for r, x, gr, y in zip(elts, fg, pg, f[sg])
                if red[act[x] + fs[gr]] != red[y + z]
            ]
        if len(bad) > 3:
            break
    checks.append(CheckResult("cocycle-identity", not bad, "; ".join(bad[:4])))

    inv = [group.inv(g) for g in elts]
    bad = [f"nonzero at ({g}, {h})" for g, h, fg in zip(elts, inv, f) if fg[idx[h]]]
    checks.append(CheckResult("cocycle-inverse-convention", not bad, "; ".join(bad)))

    # H1: the derived subgroup of the extension must be the whole torsion part
    frame = inst.frame
    u_prime_order = frame.size(frame.derived)
    ok = frame.derived == frame.atilde
    checks.append(
        CheckResult(
            "H1",
            ok,
            "" if ok else f"derived subgroup has order {u_prime_order}"
            f" inside torsion of order {inst.atilde_order()}",
        )
    )

    # consequence of H1, checked explicitly: the degree-zero quotient has order |G|
    u_t = inst.atilde_order() * group.size()
    ok = u_t // u_prime_order == group.size()  # a span has order at least 1
    checks.append(
        CheckResult(
            "degree-zero-index",
            ok,
            "" if ok else f"index {u_t // u_prime_order} != |G| = {group.size()}",
        )
    )

    return ValidationReport(tuple(checks))


# -- coboundary shifts -------------------------------------------------------


def coboundary_shift(inst: Instance, c: Dict[GElt, Sequence[int]]) -> Instance:
    """Re-choose the transversal by c: the factor set moves by the coboundary
    c_s + s*c_t - c_{st}.  The shift must keep the inverse convention."""
    group = inst.group
    one = group.identity()
    cmap = {}
    for g, v in c.items():
        g = tuple(g)
        if not group.contains(g):
            raise SchemaError(f"shift key {g} is not a group element")
        if len(v) != inst.torsion_rank:
            raise SchemaError(f"shift value for {g} has wrong length")
        cmap[g] = inst.atilde_reduce(v)
    if any(cmap.get(one, ())):
        raise SchemaError("shift must vanish at the identity")

    def cval(g: GElt) -> Vec:
        return cmap.get(g, (0,) * inst.torsion_rank)

    new_table = {}
    for s in group.elements():
        for g in group.elements():
            terms = zip(
                inst.cocycle_in_a(s, g),  # zip drops its gamma coordinate
                cval(s),
                inst.atilde_act(s, cval(g)),
                cval(group.mul(s, g)),
            )
            new_table[(s, g)] = inst.atilde_reduce([w + x + y - z for w, x, y, z in terms])
    for g in group.elements():
        if any(new_table[(g, group.inv(g))]):
            raise RejectedShiftError(
                f"shift breaks the inverse convention at ({g}, {group.inv(g)})"
            )
    return Instance(
        prime=inst.prime,
        precision=inst.precision,
        group=inst.group,
        atilde_orders=inst.atilde_orders,
        action=inst.action,
        cocycle=_cocycle_entries(new_table),
    )


# -- file format --------------------------------------------------------------

_TOP_KEYS = {"prime", "precision", "G", "A", "cocycle"}


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


def instance_to_dict(inst: Instance) -> dict:
    action = {}
    for k, m in enumerate(inst.action):
        action[f"tau_{k + 1}"] = [list(r) for r in m]
    cocycle = {}
    for s, g, v in inst.cocycle:
        key = ",".join(map(str, s + g))
        cocycle[key] = list(v)
    return {
        "prime": inst.prime,
        "precision": inst.precision,
        "G": {"orders": list(inst.group.orders)},
        "A": {"atilde_orders": list(inst.atilde_orders), "action": action},
        "cocycle": cocycle,
    }


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")
    missing = _TOP_KEYS - set(data)
    if missing:
        raise SchemaError(f"missing top-level keys: {sorted(missing)}")
    prime = data["prime"]
    precision = data["precision"]
    if not _is_int(prime) or not _is_int(precision):
        raise SchemaError("prime and precision must be integers")
    gsec = data["G"]
    if not isinstance(gsec, dict) or set(gsec) != {"orders"}:
        raise SchemaError("G must be an object with exactly the key 'orders'")
    g_orders = gsec["orders"]
    if not isinstance(g_orders, list) or not all(_is_int(x) for x in g_orders):
        raise SchemaError("G.orders must be a list of integers")
    asec = data["A"]
    if not isinstance(asec, dict) or set(asec) != {"atilde_orders", "action"}:
        raise SchemaError("A must be an object with keys 'atilde_orders' and 'action'")
    at_orders = asec["atilde_orders"]
    if not isinstance(at_orders, list) or not all(_is_int(x) for x in at_orders):
        raise SchemaError("A.atilde_orders must be a list of integers")
    action_sec = asec["action"]
    if not isinstance(action_sec, dict):
        raise SchemaError("A.action must be an object")
    expected = [f"tau_{i + 1}" for i in range(len(g_orders))]
    if set(action_sec) != set(expected):
        raise SchemaError(f"A.action keys must be exactly {expected}")
    action = []
    for k in expected:
        m = action_sec[k]
        if not isinstance(m, list) or not all(
            isinstance(r, list) and all(_is_int(x) for x in r) for r in m
        ):
            raise SchemaError(f"A.action.{k} must be a row-major integer matrix")
        action.append(m)
    csec = data["cocycle"]
    if not isinstance(csec, dict):
        raise SchemaError("cocycle must be an object")
    # group membership of the keys is left to build_instance
    rank = len(g_orders)
    table = {}
    for key, v in csec.items():
        if not isinstance(key, str):
            raise SchemaError("cocycle keys must be strings")
        what = f"cocycle key {key!r}"
        try:
            flat = tuple(int(x) for x in key.split(",")) if key else ()
        except ValueError:
            raise SchemaError(f"{what}: cannot parse group element {key!r}") from None
        # only the spelling instance_to_dict writes: two spellings of one
        # pair would otherwise overwrite each other in key order
        canonical = ",".join(map(str, flat))
        if canonical != key:
            raise SchemaError(f"{what}: not in canonical spelling, write {canonical!r}")
        if len(flat) != 2 * rank:
            raise SchemaError(f"{what}: expected {2 * rank} coordinates, got {len(flat)}")
        if not isinstance(v, list) or not all(_is_int(x) for x in v):
            raise SchemaError(f"cocycle value for {key!r} must be a list of integers")
        table[(flat[:rank], flat[rank:])] = v
    return build_instance(prime, precision, g_orders, at_orders, action, table)


def read_json(path):
    """The JSON value in the file at path; text that does not parse is a
    SchemaError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from None
        except UnicodeDecodeError as e:
            raise SchemaError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None
        except ValueError:  # the only other parse error: int()'s digit limit
            raise SchemaError(f"{path}: an integer literal has too many digits") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None


def load_instance(path) -> Instance:
    data = read_json(path)
    try:
        return instance_from_dict(data)
    except (SchemaError, GroupSizeError, ModulusSizeError) as e:
        raise type(e)(f"{path}: {e}") from None


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")
