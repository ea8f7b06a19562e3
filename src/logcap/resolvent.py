"""The resolvent module B = A + I_G with its twisted actions.

Coordinates of B are fixed once per instance, by its ``Frame``: the
torsion generators of A, then gamma, then the augmentation-ideal basis
(tau - 1) for tau != 1 in the canonical element order.  A vector of B is a
tuple in these coordinates, reduced by ``Frame.b_reduce``; ``ResolventElt``
is only the named view of one such tuple that ``log_iso``, the logarithm
of an element (a, tau) of U, returns.  The G-action is the linearized
twist

    sigma * a = a^sigma,     sigma * (tau - 1) = f(sigma, tau) + sigma(tau - 1),

and the Gamma-operator w = gamma - 1 kills A and sends (tau - 1) to
(1 - tau) * gamma.  The star action of each sigma, w and Tr are frame
matrices acting on row vectors.  Everything here is a module computation
over Z/l^n; the relation solver produces certificates (M, N) with
e_i b_i = sum mu_ij * b_j + w * sum nu_ij * b_j, normalized so that det M
is exactly the trace.  As w (tau - 1) = (1 - tau) * gamma, this form and
the gamma form e_i b_i = sum lam_ij * b_j + mu_i * gamma reduce the same
rows modulo w * B-tilde = I_G * gamma, so one solve gives Lambda = M.
The certificate is built from two systems per instance: one M system,
whose last row adds the det = Tr columns, and one N system.  Each system
is factored once and every row's target reduced against it
(``lattice.solve_many``); only the last row of M, whose system no other
row shares, is a one-target ``solve``.

The ``Frame`` is the one owner of everything derived from an instance:
besides the coordinates and matrices above, the validation report and
every submodule the checks read (the derived subgroups, the torsion part,
I_G * B, the boundary module and the rest) are its members, built once
per instance.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

from . import extension
from .groupring import GElt, GroupRingElt, cofactor_row, det_ring, trace_element
from .instance import Instance, ValidationReport, validate
from .lattice import (
    InternalInvariantError,
    Submodule,
    ZModRing,
    preimage,
    quotient_order,
    solve,
    solve_many,
    torsion_rows,
    torsion_size,
    vec_mat,
)

Vec = Tuple[int, ...]


class InfeasibleRelationError(RuntimeError):
    """The relation system has no solution (generation or H1 failure)."""


class CertificateError(RuntimeError):
    """A relation certificate violates a required determinant identity."""


class PrecisionModelError(CertificateError):
    """The degree of det M disagrees with |G|: the coefficient precision
    cannot represent the instance (or the certificate is foreign)."""


@dataclass(frozen=True)
class ResolventElt:
    """The element a + sum lam_tau (tau - 1) of B, coordinates canonical."""

    instance: "Instance"
    a: Vec
    lam: Vec

    def __post_init__(self):
        inst = self.instance
        if len(self.a) != inst.dim_a or len(self.lam) != inst.group.size() - 1:
            raise ValueError("coordinates do not fit the instance")
        vec = inst.frame.b_reduce(tuple(self.a) + tuple(self.lam))
        object.__setattr__(self, "a", vec[: inst.dim_a])
        object.__setattr__(self, "lam", vec[inst.dim_a :])

    def to_vec(self) -> Vec:
        return self.a + self.lam


def log_iso(inst: "Instance", a: Vec, tau: GElt) -> ResolventElt:
    """(a, tau) -> a + (tau - 1), a representative of the logarithm class.

    Descends to an isomorphism from U modulo its derived subgroup onto the
    resolvent module modulo its augmentation submodule.
    """
    return ResolventElt(inst, a, inst.frame.lam_vec([(tau, 1)]))


# -- the per-instance frame ----------------------------------------------------


class Frame:
    """The derived state of one instance, each member computed on first use.

    Holds the coefficient ring, the coordinate orders, the factor set
    embedded in A, its antisymmetrized values and the G-action of A, the star,
    omega and trace matrices of B, the transfer as an affine map of A, the
    validation report, the submodules the checks read, and the relation
    certificate with delta.  Every instance owns one, as ``inst.frame``;
    the data it is derived from is immutable, so nothing here is ever
    invalidated.  Coordinates of B: the torsion generators of A, then
    gamma, then the (tau - 1); B-tilde drops gamma.  Torsion comes first
    in all three, so ``span`` and ``size`` serve each of them.
    """

    def __init__(self, inst: "Instance"):
        self.inst = inst

    @cached_property
    def ring(self) -> ZModRing:
        return ZModRing(self.inst.prime, self.inst.precision)

    @cached_property
    def orders(self) -> Vec:
        """Coordinate orders of A: the torsion orders, then l^n for gamma."""
        return self.inst.atilde_orders + (self.ring.modulus,)

    @cached_property
    def action(self) -> Dict[GElt, tuple]:
        """Row-action matrix of every group element, tau_1^k_1 ... tau_s^k_s
        multiplied in generator order.  Reduced mod l^n, not per coordinate:
        the two agree only on instances that pass action-well-defined.  The
        oracle composes per coordinate, from ``inst.action`` directly."""
        inst = self.inst
        return inst.group.matrices(inst.action, (self.ring.modulus,) * inst.dim_a)

    @cached_property
    def factor_set(self) -> Dict[Tuple[GElt, GElt], Vec]:
        """The stored values f(sigma, tau), embedded in A once; a pair it
        does not hold has value zero (``inst.cocycle_in_a`` reads it)."""
        return {(s, t): self.inst.atilde_embed(v) for s, t, v in self.inst.cocycle}

    @cached_property
    def nonid_index(self) -> Dict[GElt, int]:
        return {g: i for i, g in enumerate(self.inst.group.nonidentity())}

    @property
    def dim_b(self) -> int:
        return self.inst.dim_a + len(self.nonid_index)

    @property
    def dim_bt(self) -> int:
        return self.inst.torsion_rank + len(self.nonid_index)

    # coordinates ---------------------------------------------------------

    @cached_property
    def b_orders(self) -> Vec:
        """Coordinate orders of B: those of A, then l^n for each (tau - 1)."""
        return self.orders + (self.ring.modulus,) * len(self.nonid_index)

    def b_reduce(self, vec: Sequence[int]) -> Vec:
        """The canonical coordinates of a vector of B."""
        return tuple(x % o for x, o in zip(vec, self.b_orders))

    def unit(self, k: int) -> Vec:
        """The k-th coordinate basis vector of B."""
        return tuple(int(i == k) for i in range(self.dim_b))

    def tau_coord(self, tau: GElt) -> int:
        """The B coordinate of tau - 1, for tau != 1."""
        return self.inst.dim_a + self.nonid_index[tau]

    @cached_property
    def bt_index(self) -> Tuple[int, ...]:
        """The B coordinates that B-tilde keeps: all but gamma."""
        t = self.inst.torsion_rank
        return tuple(k for k in range(self.dim_b) if k != t)

    def bt_rows(self, mat: Sequence[Sequence[int]]) -> list:
        """The rows of a matrix on B at the basis vectors of B-tilde."""
        return [mat[k] for k in self.bt_index]

    def bt_vec(self, vec: Sequence[int]) -> Vec:
        """A degree-zero vector of B in B-tilde coordinates."""
        t = self.inst.torsion_rank
        if vec[t] % self.ring.modulus:
            raise InternalInvariantError("element has nonzero degree")
        return tuple(vec[:t]) + tuple(vec[t + 1 :])

    def span(self, gens: Sequence[Sequence[int]], width: int) -> Submodule:
        """The span of gens and the torsion relations d_i * e_i, in the
        coordinates of A, B or B-tilde (told apart by the width)."""
        rows = list(gens) + torsion_rows(self.inst.atilde_orders, width)
        return Submodule.from_generators(self.ring, width, rows)

    def size(self, sub: Submodule) -> int:
        """The group order of a span of A, B or B-tilde."""
        return torsion_size(sub, self.inst.atilde_orders)

    def lam_vec(self, terms: Iterable[Tuple[GElt, int]]) -> Vec:
        """The (tau - 1) coordinates of sum c * (g - 1) over the terms (g, c);
        a g that occurs twice adds up, and g = 1 adds nothing."""
        out = [0] * len(self.nonid_index)
        for g, c in terms:
            if g in self.nonid_index:
                out[self.nonid_index[g]] += c
        return tuple(out)

    # the operators on B ----------------------------------------------------

    @cached_property
    def star(self) -> Dict[GElt, tuple]:
        """The matrix of the twisted action of every sigma on B, rows canonical."""
        inst, group = self.inst, self.inst.group
        zeros = (0,) * len(self.nonid_index)
        out = {}
        for sigma, mat in self.action.items():
            rows = [self.b_reduce(r + zeros) for r in mat]
            for tau in group.nonidentity():
                lam = self.lam_vec(((group.mul(sigma, tau), 1), (sigma, -1)))
                rows.append(self.b_reduce(inst.cocycle_in_a(sigma, tau) + lam))
            out[sigma] = tuple(rows)
        return out

    def ig_unit(self, tau: GElt, k: int) -> Vec:
        """(tau - 1) * e_k: the k-th row of the star matrix of tau, minus e_k."""
        row = list(self.star[tau][k])
        row[k] -= 1
        return self.b_reduce(row)

    @cached_property
    def omega(self) -> tuple:
        """The matrix of w: zero on A, (tau - 1) -> (1 - tau) * gamma."""
        inst = self.inst
        rows = [(0,) * self.dim_b] * inst.dim_a
        for tau in inst.group.nonidentity():
            a_tau = inst.a_tau(tau)
            if a_tau[-1] % self.ring.modulus:
                raise InternalInvariantError("(1 - tau) * gamma has nonzero degree")
            rows.append(a_tau + (0,) * len(self.nonid_index))
        return tuple(rows)

    @cached_property
    def trace_matrix(self) -> tuple:
        """The matrix of Tr, the sum of the star matrices, as a map B -> A:
        only its A columns are summed.  The (tau - 1) columns cancel on
        every input: row (tau - 1) of star[sigma] holds (sigma tau - 1) -
        (sigma - 1) there, and sigma -> sigma tau permutes G."""
        inst = self.inst
        d = inst.dim_a
        mats = self.star.values()
        return tuple(
            inst.a_reduce([sum(m[k][j] for m in mats) for j in range(d)]) for k in range(self.dim_b)
        )

    # the transfer into A -------------------------------------------------------

    @cached_property
    def offsets(self) -> Dict[GElt, Vec]:
        """c(tau) = sum_g (tau g)^-1 * f(tau, g) for every tau, over f's entries."""
        inst, group = self.inst, self.inst.group
        out = {tau: inst.a_zero() for tau in group.elements()}
        for (tau, g), v in self.factor_set.items():
            out[tau] = inst.a_add(out[tau], inst.act(group.inv(group.mul(tau, g)), v))
        return out

    def transfer_map(self, a: Sequence[int], tau: GElt) -> Vec:
        """The transfer of (a, tau) into A: N * a + c(tau).  The norm N, the
        sum of the action matrices, is read off the A rows of the trace matrix."""
        return self.inst.a_add(vec_mat(a, self.trace_matrix, self.orders), self.offsets[tau])

    # shared submodules -------------------------------------------------------

    @cached_property
    def ig_bt(self) -> Submodule:
        """I_G * B-tilde in B-tilde coordinates."""
        gens = [
            self.bt_vec(self.ig_unit(tau, k))
            for tau in self.inst.group.generators()
            for k in self.bt_index
        ]
        return self.span(gens, self.dim_bt)

    @cached_property
    def ambiguous(self) -> Submodule:
        """The classes of B-tilde that w sends into I_G * B-tilde."""
        rows = [self.bt_vec(r) for r in self.bt_rows(self.omega)]
        return preimage(rows, self.ig_bt, self.ring)

    @cached_property
    def ambiguous_index(self) -> int:
        """The index of I_G * B-tilde in the ambiguous classes."""
        return quotient_order(self.ambiguous, self.ig_bt)

    @cached_property
    def ig_gamma(self) -> Submodule:
        """I_G * gamma = the span of all (1 - tau) * gamma inside A."""
        inst = self.inst
        return inst.span_a([inst.a_tau(tau) for tau in inst.group.elements()])

    @cached_property
    def zero_a(self) -> Submodule:
        """The zero submodule of A: the span of the torsion relations."""
        return self.inst.span_a([])

    @cached_property
    def atilde(self) -> Submodule:
        """The torsion part A~ inside A."""
        d = self.inst.dim_a
        return self.inst.span_a([self.unit(i)[:d] for i in range(self.inst.torsion_rank)])

    @cached_property
    def factor_set_commutators(self) -> Tuple[Vec, ...]:
        """f(s, g) - f(g, s) over the unordered pairs {s, g} of the factor
        set's entries, the factor-set part of both derived subgroups.  A
        pair with no entry has both values zero; (g, s) gives the negative
        of (s, g)."""
        inst = self.inst
        pairs = sorted({tuple(sorted((s, g))) for s, g, _ in inst.cocycle})
        return tuple(inst.a_sub(inst.cocycle_in_a(s, g), inst.cocycle_in_a(g, s)) for s, g in pairs)

    @cached_property
    def derived(self) -> Submodule:
        """U', the derived subgroup of the extension group, inside A."""
        return extension.derived_subgroup(self.inst)

    @cached_property
    def derived_degree_zero(self) -> Submodule:
        """The derived subgroup of the degree-zero subgroup, inside A."""
        return extension.derived_subgroup(self.inst, degree_zero=True)

    @cached_property
    def validation(self) -> "ValidationReport":
        """The validation report of the instance, shared by every check."""
        return validate(self.inst)

    @cached_property
    def ig_b(self) -> Submodule:
        """I_G * B in B coordinates."""
        gens = [
            self.ig_unit(tau, k) for tau in self.inst.group.generators() for k in range(self.dim_b)
        ]
        return self.span(gens, self.dim_b)

    @cached_property
    def ig_squared(self) -> Submodule:
        """Products (g - 1)(h - 1) of the plain group ring, embedded in B."""
        inst = self.inst
        group = inst.group
        gens = []
        for g in group.nonidentity():
            for h in group.nonidentity():
                lam = self.lam_vec(((group.mul(g, h), 1), (g, -1), (h, -1)))
                gens.append((0,) * inst.dim_a + lam)
        return self.span(gens, self.dim_b)

    @cached_property
    def boundary(self) -> Submodule:
        """The span of f(s, g) - f(g, s) over pairs of the chosen generators
        of G only, so it depends on the presentation: on 3 of the 55 corpus
        instances the span over all pairs of G is larger."""
        inst = self.inst
        pairs = itertools.combinations(inst.group.generators(), 2)
        f = inst.cocycle_in_a
        return inst.span_a([inst.a_sub(f(s, g), f(g, s)) for s, g in pairs])

    @cached_property
    def omega_b_rows(self) -> Tuple[Vec, ...]:
        """w * (g * b_j) in B-tilde coordinates, for each b_j and then each g
        in G: the N system's rows, and half of what ``generated`` spans."""
        inst, elts = self.inst, self.inst.group.elements()
        rows = [self.star[g][self.tau_coord(t)] for t in inst.group.generators() for g in elts]
        return tuple(self.bt_vec(omega_act(inst, r)) for r in rows)

    @cached_property
    def generated(self) -> bool:
        """Whether the b_i = tau_i - 1 generate the degree-zero part over the
        omega-extended group ring.  The span lies in B-tilde, so it is all
        of B-tilde exactly when its order is l^(n * dim_bt); no Howell form
        of B-tilde itself is needed."""
        group = self.inst.group
        b = [self.tau_coord(tau) for tau in group.generators()]
        gens = [self.bt_vec(self.star[g][k]) for k in b for g in group.elements()]
        gens += self.omega_b_rows
        return self.span(gens, self.dim_bt).order() == self.ring.modulus**self.dim_bt

    @cached_property
    def relations(self) -> tuple:
        """(certificate, delta, error): the relation certificate and the
        operator delta, or None for each that could not be found, with the
        error that stopped it as text: an infeasible system, a broken
        certificate, or an identity that fails on an instance that does not
        validate.  Other errors propagate."""
        cert = None
        try:
            cert = relation_matrices(self.inst)
            return cert, delta(self.inst, cert), None
        except (InfeasibleRelationError, CertificateError, InternalInvariantError) as e:
            return cert, None, f"{type(e).__name__}: {e}"


# -- public operations ---------------------------------------------------------


def star_act(inst: "Instance", x: GroupRingElt, v: Sequence[int]) -> Vec:
    """The linearized twisted action of a group-ring element on B."""
    frame = inst.frame
    moved = [vec_mat(v, frame.star[g], frame.b_orders) for g in x.coeffs]
    return vec_mat(list(x.coeffs.values()), moved, frame.b_orders)


def omega_act(inst: "Instance", v: Sequence[int]) -> Vec:
    """w * v for w = gamma - 1: zero on A, (tau - 1) -> (1 - tau) * gamma."""
    frame = inst.frame
    return vec_mat(v, frame.omega, frame.b_orders)


def trace(inst: "Instance", v: Sequence[int]) -> Vec:
    """Tr * v, an element of A."""
    frame = inst.frame
    return vec_mat(v, frame.trace_matrix, frame.orders)


# -- relation certificates ------------------------------------------------------


@dataclass(frozen=True)
class RelationCertificate:
    """Verified relations e_i b_i = sum mu_ij * b_j + w * sum nu_ij * b_j,
    together with the gamma-form e_i b_i = sum lam_ij * b_j + mu_i * gamma.

    M has entries e_i delta_ij - mu_ij and satisfies det M = Tr exactly,
    which ``delta`` asserts.  The solver's Lambda is M (one solve finds
    both).  Certificates are not unique; every downstream identity is
    asserted for the one produced.
    """

    m_matrix: tuple
    n_matrix: tuple
    lam_matrix: tuple
    mu_vector: tuple

    def size(self) -> int:
        return len(self.m_matrix)

    def to_dict(self) -> dict:
        return {
            "M": [[x.to_dict() for x in row] for row in self.m_matrix],
            "N": [[x.to_dict() for x in row] for row in self.n_matrix],
            "lambda": [[x.to_dict() for x in row] for row in self.lam_matrix],
            "mu": [x.to_dict() for x in self.mu_vector],
        }

    @cached_property
    def content_hash(self) -> str:
        """sha256 of the canonical JSON, once per certificate (V3, V6, report)."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _ig_combination(inst: "Instance", coeffs: Sequence[int]) -> GroupRingElt:
    """sum c_tau (tau - 1) over the tau != 1, in the canonical order."""
    group = inst.group
    out = dict(zip(group.nonidentity(), coeffs))
    out[group.identity()] = -sum(coeffs)
    return GroupRingElt._of(group, inst.ring, out)


def _row_act(inst: "Instance", row: Sequence[GroupRingElt], b: Sequence[int]) -> Vec:
    """sum_j row[j] * e_{b_j}, a vector of B: the rows star[g][b_j], weighted
    by the coefficients of row[j]."""
    frame = inst.frame
    coeffs = [c for x in row for c in x.coeffs.values()]
    rows = [frame.star[g][k] for x, k in zip(row, b) for g in x.coeffs]
    return vec_mat(coeffs, rows, frame.b_orders)


def _solve_form(inst: "Instance", b: List[int], complement: List[Vec]) -> list:
    """The rows of M (= Lambda), each with its coefficients on the
    complement rows; b holds the B coordinates of the b_j.

    One M system serves every row: the (tau - 1) * b_j in B-tilde
    coordinates, then the complement rows, then the torsion relations.
    Row i solves o_i * e_{b_i} against it for the I_G entries mu_ij and
    becomes o_i * delta_ij - mu_ij; the system is factored once for rows
    0..s-2.  The last row appends the det = Tr columns, the group-ring
    coordinates of (tau - 1) * C_j with C the cofactors of the rows above,
    and its target gains those of o_i * C_ii - Tr, so the certificate's
    matrix has determinant exactly the trace.
    """
    frame, group, ring = inst.frame, inst.group, inst.ring
    nonid, elts = group.nonidentity(), group.elements()
    s, m, N = group.rank, len(nonid), ring.modulus
    mu_rows = [frame.bt_vec(frame.ig_unit(tau, k)) for k in b for tau in nonid]
    rest = complement + torsion_rows(inst.atilde_orders, frame.dim_bt)
    targets = [[o * x for x in frame.bt_vec(frame.unit(k))] for k, o in zip(b, group.orders)]

    def form_row(i: int, sol) -> tuple:
        if sol is None:
            where = " with det = Tr" if i == s - 1 else ""
            raise InfeasibleRelationError(f"relation row {i} has no solution{where}")
        row = [
            GroupRingElt.scalar(group, ring, group.orders[i] if i == j else 0)
            - _ig_combination(inst, sol[j * m : (j + 1) * m])
            for j in range(s)
        ]
        return row, sol[len(mu_rows) : len(mu_rows) + len(complement)]

    form = [form_row(i, sol) for i, sol in enumerate(solve_many(mu_rows + rest, targets[:-1], ring))]
    if s:
        i = s - 1
        cof = cofactor_row([row for row, _ in form]) if form else [GroupRingElt.one(group, ring)]
        # coefficient g of (tau - 1) * C_j is C_j(tau^-1 g) - C_j(g)
        det_cols = [
            tuple((c.coefficient(group.mul(t, g)) - c.coefficient(g)) % N for g in elts)
            for c in cof
            for t in map(group.inv, nonid)
        ]
        system = [r + d for r, d in zip(mu_rows, det_cols)]
        system += [tuple(r) + (0,) * len(elts) for r in rest]
        rhs = cof[i].scale(group.orders[i]) - trace_element(group, ring)
        target = targets[i] + [rhs.coefficient(g) for g in elts]
        form.append(form_row(i, solve(system, target, ring)))
    return form


def relation_matrices(inst: "Instance") -> RelationCertificate:
    """Solve the defining relations of the b_i = tau_i - 1 and return the
    verified certificate: row i of the M system, solved modulo the
    (tau - 1) * gamma, which span w * B-tilde, gives row i of M = Lambda and,
    as its coefficients on them, mu_i; the N system, factored once, then
    gives every row of N."""
    frame, group = inst.frame, inst.group
    s = group.rank
    if s > 0 and not frame.generated:
        raise InfeasibleRelationError(
            "the b_i do not generate the degree-zero part; relations cannot close"
        )
    b = [frame.tau_coord(tau) for tau in group.generators()]
    t = inst.torsion_rank
    elts = group.elements()
    complement = [frame.bt_vec(frame.ig_unit(tau, t)) for tau in group.nonidentity()]
    form = _solve_form(inst, b, complement)
    m_rows = tuple(tuple(row) for row, _ in form)
    nu_system = list(frame.omega_b_rows) + torsion_rows(inst.atilde_orders, frame.dim_bt)
    targets = [frame.bt_vec(_row_act(inst, m_row, b)) for m_row in m_rows]
    n = len(elts)
    n_rows = []
    for i, sol in enumerate(solve_many(nu_system, targets, inst.ring)):
        if sol is None:
            raise InfeasibleRelationError(f"omega complement of row {i} is infeasible")
        chunks = (sol[j * n : (j + 1) * n] for j in range(s))
        n_rows.append(tuple(GroupRingElt._of(group, inst.ring, dict(zip(elts, c))) for c in chunks))
    cert = RelationCertificate(
        m_matrix=m_rows,
        n_matrix=tuple(n_rows),
        lam_matrix=m_rows,
        mu_vector=tuple(_ig_combination(inst, coeffs) for _, coeffs in form),
    )
    _verify_certificate(inst, cert, b)
    return cert


def _verify_certificate(inst: "Instance", cert: RelationCertificate, b: Sequence[int]) -> None:
    """Check both forms by substitution, reading only the instance and the
    certificate: sum_j M_ij * b_j = w * sum_j N_ij * b_j and
    sum_j Lambda_ij * b_j = mu_i * gamma for every row i, where b holds the
    B coordinates of the b_j.  A row of Lambda equal to the row of M
    shares its product."""
    gamma = inst.frame.unit(inst.torsion_rank)
    for i in range(cert.size()):
        m_side = _row_act(inst, cert.m_matrix[i], b)
        if m_side != omega_act(inst, _row_act(inst, cert.n_matrix[i], b)):
            raise CertificateError(f"nonzero residual in omega-form row {i}")
        lam_row = cert.lam_matrix[i]
        lam_side = m_side if lam_row == cert.m_matrix[i] else _row_act(inst, lam_row, b)
        if lam_side != star_act(inst, cert.mu_vector[i], gamma):
            raise CertificateError(f"nonzero residual in gamma-form row {i}")


def delta(inst: "Instance", cert: RelationCertificate) -> GroupRingElt:
    """Extract the operator d with Tr = w d on the degree-zero part.

    A determinant is linear in each row and w^2 = 0, so

        det(M - wN) = det M - w * sum_i det(M with row i replaced by N_i).

    Asserts that det M is exactly the trace (any scalar multiple or a wrong
    augmentation means the certificate or the precision model is broken)
    and returns that sum, minus the w-part of det(M - wN).
    """
    group, ring = inst.group, inst.ring
    m, n = cert.m_matrix, cert.n_matrix
    d0 = det_ring(m) if m else GroupRingElt.one(group, ring)  # a trivial G: det of () is 1
    kappa = d0.trace_multiple()
    if kappa is None:
        raise CertificateError("det M does not annihilate the augmentation ideal")
    if d0.augmentation() != group.size() % ring.modulus:
        raise PrecisionModelError(
            f"deg det M = {d0.augmentation()} differs from |G| = {group.size()}"
        )
    if d0 != trace_element(group, ring):
        raise CertificateError(f"det M = {kappa} * Tr with kappa != 1")
    replaced = (det_ring(m[:i] + (n[i],) + m[i + 1 :]) for i in range(cert.size()))
    return sum(replaced, GroupRingElt.zero(group, ring))
