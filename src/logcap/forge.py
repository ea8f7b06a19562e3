"""Construction of valid instances, and the enumeration oracle.

A search covers the (G, A~) shapes at or above the precision floor.  For a
fixed action configuration the admissible factor sets form a finite module
(the associativity identity, normalization and the inverse convention are
all linear), so enumeration solves for that module once and reduces each
of its elements against the Howell form of the coboundaries.  Reduction
takes each coordinate in turn to its least value in the class, so the
reduced tables are the lexicographically least representatives, one per
coboundary class.  ``estimate_space`` counts the module's elements,
``enumerate_instances`` refuses through that count, and ``random_instance``
samples the same module.  Actions come directly from the torsion
structure: entry steps forced by well-definedness, then powers, norms and
commutators checked with one matrix product that reduces each column by
its own order.

The module is solved from the identity at the triples (s, g_k, r) whose
middle is a generator of G, not at every triple.  By Light's associativity
test (Clifford and Preston, The Algebraic Theory of Semigroups I, 1.2) the
middles at which a product is associative are closed under it, and the
product (a, s)(b, g) = (a + s b + f(s, g), sg) on T x G is generated by
(e_i, 1), always such a middle, and (0, g_k).  That needs the table
normalized, which its layout makes it, and the action a G-action, which
``action_configurations`` checks by orders and commuting.  ``validate``
still checks every triple of each candidate, so the search's output is
checked independently of the reduction.

A factor set takes its values in the torsion part T, so its module, and
its coboundaries, depend only on T as a G-module: on the torsion blocks of
the generator matrices, never on how gamma moves.  Every torsion row of an
action matrix is zero in the gamma column, so the torsion block of a
product is the product of the torsion blocks.  Configurations that differ
only in gamma's row therefore share one module.

A search context, a dict from each (G, A~) shape to its ``_Shape``, holds
the shape's configuration list, table layout and modules keyed by torsion
action, each once; an Instance is built only for a candidate to validate.
``build_corpus`` makes one per component and passes it through the count
and then ``enumerate_instances`` or every sample of that component;
``enumerate_instances`` shares one, its own or the component's, between
its count and its walk; each other public call makes its own, so nothing
outlives one component or one call.  Sharing changes no output: a module
depends only on its torsion key and its basis is a canonical Howell form,
and no rng draw reads the context.  Configurations are extended
depth-first, generator by generator, through a table of which candidate
pairs commute, which yields them in ``itertools.product`` order.

The oracle at the bottom knows nothing about any of that: it materializes
the extension group, finds its own generating set by greedy closure, takes
the commutators of every element with those generators, computes transfers
by the coset-product definition, and counts.  It reads only the stored data
of the instance and shares nothing but the group law itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .groupring import AbelianLGroup, GElt, check_l_powers
from .instance import (
    Instance,
    build_instance,
    instance_to_dict,
    log_ceil,
    precision_terms,
    validate,
)
from .lattice import (
    InternalInvariantError,
    Submodule,
    ZModRing,
    carry_free_coder,
    mat_mul,
    preimage,
    torsion_rows,
    torsion_size,
    vec_mat,
)

Vec = Tuple[int, ...]

# |U| above which the oracle refuses, and V10 is skipped
DEFAULT_ORACLE_BOUND = 2**12


class CeilingExceededError(RuntimeError):
    def __init__(self, estimate: int, ceiling: int):
        super().__init__(
            f"estimated search space of at least {estimate} factor sets exceeds ceiling {ceiling}"
        )
        self.estimate = estimate
        self.ceiling = ceiling


class OracleBoundError(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchParams:
    prime: int
    precision: int
    g_orders_list: Tuple[Tuple[int, ...], ...]
    atilde_orders_list: Tuple[Tuple[int, ...], ...]
    oracle_bound: int = DEFAULT_ORACLE_BOUND
    seed: int = 0
    ceiling: int = 50_000
    samples: int = 3
    attempt_budget: int = 400


# -- action configurations ------------------------------------------------------


def _torsion_endomorphisms(d: Tuple[int, ...]):
    """All well-defined matrices on the torsion module, entry (i, j) running
    over the multiples of d_j / gcd(d_i, d_j) below d_j."""
    t = len(d)
    ranges = []
    for i in range(t):
        for j in range(t):
            step = d[j] // math.gcd(d[i], d[j])
            ranges.append([step * k for k in range(math.gcd(d[i], d[j]))])
    for flat in itertools.product(*ranges):
        yield tuple(tuple(flat[i * t + j] for j in range(t)) for i in range(t))


def _generator_candidates(d: Tuple[int, ...], order: int):
    """(P, q) with P^order = 1 on the torsion and q * (1 + P + ... + P^(o-1)) = 0."""
    t = len(d)
    one = tuple(tuple(int(i == j) for j in range(t)) for i in range(t))
    out = []
    for p in _torsion_endomorphisms(d):
        # the norm 1 + P + ... + P^(order-1); the loop ends on P^order
        norm = [[0] * t for _ in range(t)]
        power = one
        for _ in range(order):
            for i in range(t):
                for j in range(t):
                    norm[i][j] += power[i][j]
            power = mat_mul(power, p, d)
        if power != one:
            continue
        for q in itertools.product(*(range(o) for o in d)):
            if not any(vec_mat(q, norm, d)):
                out.append((p, q))
    return out


def _full_matrix(p, q, modulus: int):
    """The action on A = T + Z/l^n * gamma: P on the torsion, gamma -> gamma + q."""
    rows = tuple(tuple(x % modulus for x in row) + (0,) for row in p)
    return rows + (tuple(x % modulus for x in q) + (1,),)


def action_configurations(prime: int, precision: int, g_orders, atilde_orders):
    """All commuting tuples of admissible generator actions, in
    ``itertools.product`` order over the per-generator candidates.

    Candidates are found once per distinct generator order and each pair
    is tested for commuting once.  Tuples then grow depth-first, generator
    by generator, through the candidates that commute with every one
    already chosen.  Depth-first order is product order, and the pruning
    drops exactly the tuples with a non-commuting pair, so the result is
    the filtered product in the same order.
    """
    d = tuple(atilde_orders)
    modulus = prime**precision
    orders = d + (modulus,)
    index: Dict[tuple, int] = {}  # each distinct candidate matrix -> its position in mats
    by_order = {}
    for o in dict.fromkeys(g_orders):
        cands = _generator_candidates(d, o)
        by_order[o] = [index.setdefault(_full_matrix(p, q, modulus), len(index)) for p, q in cands]
    per_gen = [by_order[o] for o in g_orders]
    mats = list(index)
    # commute[i]: the candidates that commute with candidate i; rank 1 needs none
    commute: List[set] = [set() for _ in mats]
    if len(g_orders) > 1:
        for i, j in itertools.combinations_with_replacement(range(len(mats)), 2):
            if mat_mul(mats[i], mats[j], orders) == mat_mul(mats[j], mats[i], orders):
                commute[i].add(j)
                commute[j].add(i)
    configs = []

    def extend(chosen: tuple, allowed: set) -> None:
        if len(chosen) == len(per_gen):
            configs.append(tuple(mats[i] for i in chosen))
            return
        for i in per_gen[len(chosen)]:
            if i in allowed:
                extend(chosen + (i,), allowed & commute[i])

    extend((), set(range(len(mats))))
    return configs


# -- factor set solution spaces ---------------------------------------------------


class _Shape:
    """The search state of one (G, A~) shape: its action configurations,
    the factor-set table layout and the module of each torsion action.  A
    table holds the values on the nonidentity ``pairs``, pair-major and
    torsion-minor, over Z/exp(T); coordinate k has order ``orders[k]``.
    ``inverse_coords`` are the coordinates of the inverse pairs (g, g^-1),
    where the inverse convention makes a factor set vanish; ``mul`` is the
    group's product table by element position, shared by every module, and
    ``middles`` the positions of the generators, the middle arguments of
    the d^2 conditions."""

    def __init__(self, params: SearchParams, g_orders, atilde_orders):
        prime = params.prime
        self.params = params
        self.group = AbelianLGroup(prime, g_orders)
        self.d = tuple(atilde_orders)
        self.t = len(self.d)
        self.ring = ZModRing(prime, log_ceil(max(self.d, default=prime), prime))
        self.nonid = self.group.nonidentity()
        position, self.mul = self.group.product_indices()
        self.middles = [position[g] for g in self.group.generators()]
        self.pairs = [(s, g) for s in self.nonid for g in self.nonid]
        self.orders = self.d * len(self.pairs)
        inverse = [k for k, (s, g) in enumerate(self.pairs) if g == self.group.inv(s)]
        self.inverse_coords = [k * self.t + j for k in inverse for j in range(self.t)]
        self.configs = action_configurations(prime, params.precision, g_orders, atilde_orders)
        self.spaces: Dict[tuple, _CocycleSpace] = {}

    def space(self, action) -> "_CocycleSpace":
        """The factor-set module of an action configuration, shared by the
        configurations with the same torsion blocks."""
        key = tuple(tuple(row[: self.t] for row in m[: self.t]) for m in action)
        if key not in self.spaces:
            modulus = self.params.prime**self.params.precision
            self.spaces[key] = _CocycleSpace(self, self.group.matrices(key, (modulus,) * self.t))
        return self.spaces[key]

    def instance(self, action, vec: Vec) -> Instance:
        """The instance of an action configuration and a factor-set table."""
        table = {pair: vec[k * self.t : (k + 1) * self.t] for k, pair in enumerate(self.pairs)}
        p = self.params
        return build_instance(p.prime, p.precision, self.group.orders, self.d, action, table)


class _CocycleSpace:
    """The module of convention-compliant factor sets for one torsion action.

    Both maps of the search come from one formula, the coboundary of
    normalized k-cochains with values in T, a term with an identity
    argument being zero:

        (dc)(g_0..g_k) = g_0 * c(g_1..g_k) + sum_q (-1)^q c(.., g_(q-1) g_q, ..)
                         + (-1)^(k+1) c(g_0..g_(k-1)).

    The factor sets are the tables (2-cochains) that d^2 kills at the
    generator-middle triples and that vanish at the inverse-pair
    coordinates, a submodule over Z/exp(T), enumerated by closing the
    reduced generators under addition.  The coboundaries, d^1 of the
    shifts that keep those coordinates zero, are one Howell form, torsion
    relations included, that every table reduces against to its class
    representative.  Every matrix here is a list of rows, as ``lattice``
    reads a map: a row per variable, a column per condition or image
    coordinate, and a solution is a left kernel.  A space sees the action
    only through ``_p_mats``, the torsion blocks of the element matrices,
    so it serves every configuration with that torsion action.
    """

    def __init__(self, shape: _Shape, p_mats: Dict[GElt, tuple]):
        self.shape = shape
        self._p_mats = p_mats
        self._sub = self._solve()

    def _coboundary_rows(self, k: int) -> List[List[int]]:
        """d^k, for k = 1 or 2, as the matrix that acts on row vectors, as
        ``lattice`` reads a map: one row per k-cochain coordinate, one
        column per coordinate (g_0..g_k; j) of a (k+1)-cochain whose inner
        arguments g_1..g_(k-1) are generators of G.  For d^1 that is every
        pair; for d^2 it is the generator-middle triples, which by Light's
        test (see ``_solve``) have the same kernel as all triples, so only
        those columns are built.  Both sides are laid out like a table:
        tuples in product order over their ranges, torsion minor.  Elements
        are read by position, the identity at 0, so a face with an identity
        argument is no coordinate.  Coordinate i of c(g_1..g_k) feeds j
        through P_(g_0)[i][j]."""
        elements, t, mul = self.shape.group.elements(), self.shape.t, self.shape.mul
        if not t:  # no torsion, no coordinates: skip the walk over the tuples
            return []
        nonid = range(1, len(elements))
        first = {args: n * t for n, args in enumerate(itertools.product(nonid, repeat=k))}
        ranges = [nonid, *[self.shape.middles] * (k - 1), nonid]
        rows = [[0] * (math.prod(map(len, ranges)) * t) for _ in range(len(first) * t)]
        for n, gs in enumerate(itertools.product(*ranges)):
            faces = [gs[:q] + (mul[gs[q]][gs[q + 1]],) + gs[q + 2 :] for q in range(k)]
            signed = [((-1) ** q, first[f]) for q, f in enumerate(faces, 1) if f in first]
            signed.append(((-1) ** (k + 1), first[gs[:-1]]))
            p, inner = self._p_mats[elements[gs[0]]], first[gs[1:]]
            for j, col in enumerate(range(n * t, (n + 1) * t)):
                for i in range(t):
                    rows[inner + i][col] += p[i][j]
                for sign, row in signed:
                    rows[row + j][col] += sign
        return rows

    def _solve(self) -> Submodule:
        """The tables x with x * d^2 = 0 at the generator-middle triples,
        each (s, g_k, r; j) column taken mod d_j, and x = 0 at the
        inverse-pair coordinates, one unit column each.

        That is every factor set, by Light's associativity test: in any
        magma the middles m with (x m) y = x (m y) for all x, y are closed
        under the product.  Take (a, s)(b, g) = (a + s b + f(s, g), sg) on
        T x G.  A table is normalized by its layout, so each (e_i, 1) is
        such a middle, and the (e_i, 1) and (0, g_k) generate T x G.  Each
        configuration is a G-action, as ``action_configurations`` checks
        orders and commuting, so (0, g) is such a middle exactly when the
        identity holds at every (s, g, r).  ``validate`` still checks every
        triple of each candidate."""
        shape, inverse, rank = self.shape, self.shape.inverse_coords, len(self.shape.middles)
        rows = self._coboundary_rows(2)
        for v, row in enumerate(rows):
            row += [int(v == k) for k in inverse]
        orders = list(shape.d) * (len(shape.nonid) ** 2 * rank) + [shape.orders[k] for k in inverse]
        return self._kernel_mod_orders(rows, orders)

    def _kernel_mod_orders(self, rows, orders) -> Submodule:
        """The x in (Z/exp T)^len(rows) with (x * rows)[c] = 0 mod orders[c]
        for every condition column c.  The rows are the variables and the
        columns the conditions, as ``lattice`` reads a map.  A column of
        order N = exp(T) needs no relation row, since x * rows is taken mod
        N; each other column c gets the relation orders[c] * e_c."""
        ring = self.shape.ring
        width = len(orders)
        relations = [
            [0] * c + [o] + [0] * (width - c - 1) for c, o in enumerate(orders) if o < ring.modulus
        ]
        return preimage(rows, Submodule.from_generators(ring, width, relations), ring)

    def count(self) -> int:
        # the solution module holds every torsion multiple o_k e_k, which
        # reduces to the zero table
        return torsion_size(self._sub, self.shape.orders)

    def sample(self, rng: random.Random) -> Vec:
        """A random factor-set vector: one coefficient mod exp(T) drawn per
        basis row of the solution module, in basis order."""
        coeffs = [rng.randrange(self.shape.ring.modulus) for _ in self._sub.basis]
        return vec_mat(coeffs, self._sub.basis, self.shape.orders)

    def coboundaries(self) -> Submodule:
        """The images x * D of the admissible shifts x, with the torsion
        relations o_k * e_k, in Howell form.  D, the d^1 rows, maps a shift
        c (c_tau at each nonidentity tau, c_1 = 0) to the table c_s + s *
        c_g - c_sg, one row per shift coordinate (tau, i) and one column
        per table coordinate; x is admissible when x * D is zero at the
        inverse-pair coordinates."""
        shape, inverse = self.shape, self.shape.inverse_coords
        width = len(shape.orders)
        D = self._coboundary_rows(1)
        admissible = self._kernel_mod_orders(
            [[r[c] for c in inverse] for r in D], [shape.orders[c] for c in inverse]
        )
        gens = [vec_mat(x, D, shape.orders) for x in admissible.basis]
        return Submodule.from_generators(
            shape.ring, width, gens + torsion_rows(shape.orders, width)
        )

    @cached_property
    def canonical_tables(self) -> List[Vec]:
        """One lexicographically least representative per coboundary class,
        sorted, computed once for all the configurations that share this
        space.  Reduction against the Howell form of the coboundaries takes
        each coordinate in turn to its least value in the class."""
        shifts = self.coboundaries()
        return sorted({shifts.reduce(z) for z in _closure(self._sub.basis, self.shape.orders)})


def _closure(gens: Iterable[Vec], orders: Sequence[int]) -> set:
    """The subgroup of the product of the Z/orders[k] that gens generate."""
    zero = (0,) * len(orders)
    out = {zero}
    frontier = [zero]
    gens = list(dict.fromkeys(gens))
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % o for a, b, o in zip(x, g, orders))
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return out


# -- enumeration and sampling ------------------------------------------------------


def _precision_floor(prime, atilde_orders, g_orders) -> int:
    return sum(precision_terms(prime, atilde_orders, g_orders)) + 1


def _shapes(params: SearchParams, g_orders=None, atilde_orders=None):
    """The (G, A~) shapes a search covers, the given one or every pair of
    the params' lists, less those below the precision floor."""
    shapes = (
        [(tuple(g_orders), tuple(atilde_orders))]
        if g_orders is not None
        else [(g, a) for g in params.g_orders_list for a in params.atilde_orders_list]
    )
    return [
        (g, a) for g, a in shapes if params.precision >= _precision_floor(params.prime, a, g)
    ]


def _shape(context: dict, params: SearchParams, g_orders, atilde_orders) -> _Shape:
    """The search state of a shape, from a search context, built on first use."""
    key = (g_orders, atilde_orders)
    if key not in context:
        context[key] = _Shape(params, g_orders, atilde_orders)
    return context[key]


def estimate_space(params: SearchParams, g_orders, atilde_orders, *, _context=None) -> int:
    """The number of factor sets the enumeration must walk, 0 below the
    precision floor.

    Counting stops once the running total passes ``params.ceiling``, so a
    result above the ceiling is a lower bound and one at or below it is
    exact.  The spaces counted are left in the search context that
    ``build_corpus`` or ``enumerate_instances`` passes, for its walk or
    samples to reuse.
    """
    context = {} if _context is None else _context
    total = 0
    for g, a in _shapes(params, g_orders, atilde_orders):
        shape = _shape(context, params, g, a)
        for action in shape.configs:
            total += shape.space(action).count()
            if total > params.ceiling:
                return total
    return total


def enumerate_instances(params: SearchParams, g_orders=None, atilde_orders=None, *, _context=None):
    """All validate-passing instances, one per coboundary class, in a
    deterministic order.  Refuses up front when the space is too large;
    the walk reuses the spaces that the count built.  With the search
    context that ``build_corpus`` passes, the count reads the spaces that
    the component's own count already built."""
    context = {} if _context is None else _context
    total = estimate_space(params, g_orders, atilde_orders, _context=context)
    if total > params.ceiling:
        raise CeilingExceededError(total, params.ceiling)
    for g, a in _shapes(params, g_orders, atilde_orders):
        shape = _shape(context, params, g, a)
        for action in shape.configs:
            for table_vec in shape.space(action).canonical_tables:
                inst = shape.instance(action, table_vec)
                if validate(inst).ok:
                    yield inst


def random_instance(
    params: SearchParams, g_orders=None, atilde_orders=None, *, _context=None
) -> Optional[Instance]:
    """Seed-reproducible rejection sampling over action configurations and
    factor-set modules; returns the first validate-passing instance.

    Configurations and spaces come from the search context, a new one
    unless ``build_corpus`` passes its component's, so that the samples of
    a component share them.  Every draw comes from ``params.seed`` alone,
    and each instance is built from its own full configuration."""
    rng = random.Random(params.seed)
    shapes = _shapes(params, g_orders, atilde_orders)
    if not shapes:
        return None
    context = {} if _context is None else _context
    for _ in range(params.attempt_budget):
        shape = _shape(context, params, *shapes[rng.randrange(len(shapes))])
        if not shape.configs:
            continue
        action = shape.configs[rng.randrange(len(shape.configs))]
        inst = shape.instance(action, shape.space(action).sample(rng))
        if validate(inst).ok:
            return inst
    return None


# -- the enumeration oracle ---------------------------------------------------------


@dataclass(frozen=True)
class OracleFacts:
    u_order: int
    u_tilde_order: int
    derived: frozenset
    derived_degree_zero: frozenset
    transfer: dict = field(hash=False)
    degree_zero_index: int = 0
    gamma_commutators: frozenset = frozenset()


def oracle_group(inst: Instance, bound: int = DEFAULT_ORACLE_BOUND) -> OracleFacts:
    """Materialize the extension group and compute everything by counting.

    Each element (a, g) of U is one integer, code(a)*|G| + index(g), with
    the carry-free code of A from ``lattice.carry_free_coder``: its table
    ``red`` maps a sum of two codes to the code of the sum.  The action
    tables are built from the stored generator matrices, b*M = (b - e_i)*M
    + row i of M, and composed in generator order, so they reduce per
    coordinate after each generator; negation is built the same way from
    -I.  With f the stored factor set, the row for (s, t) maps b to
    red[code(s*b) + code(f(s, t))], so a product (a, s)(b, t) = (a + s*b +
    f(s, t), st) is red[a + row(s, t)[b]]*|G| + gmul[s][t].  A row is built
    the first time a loop asks for it, and each loop reads its rows before
    its inner loop over A.  Codes become coordinate tuples only in the
    facts returned.

    A commutator subgroup is the additive span of the commutators [x, s],
    x over the whole pool and s over a generating set that the oracle finds
    itself, by greedy closure under its own multiplication.  The span is
    normal (x[y,s]x^-1 = [xy,s][x,s]^-1) and makes every s central, so the
    quotient is abelian and the span is the whole derived subgroup.
    Transfers use the coset-product definition against the standard
    transversal.  No resolvent machinery is involved.
    """
    orders = inst.atilde_orders + (inst.prime**inst.precision,)
    group = inst.group
    gelts = group.elements()
    n_g = len(gelts)
    n_u = n_g * math.prod(orders)
    if n_u > bound:
        raise OracleBoundError(f"|U| = {n_u} exceeds the oracle bound {bound}")
    gidx, gmul = group.product_indices()
    ginv = [gidx[group.inv(x)] for x in gelts]

    code, red = carry_free_coder(orders)
    units = [code([int(j == i) for j in range(len(orders))]) for i in range(len(orders))]
    steps, a_codes = [], [0]  # steps fill b - e_i before b; a_codes ends in product order
    for i in reversed(range(len(orders))):
        w = units[i]
        steps += [(c + k * w, c + k * w - w, i) for k in range(1, orders[i]) for c in a_codes]
        a_codes = [c + k * w for k in range(orders[i]) for c in a_codes]
    decode = dict(zip(a_codes, itertools.product(*(range(o) for o in orders))))
    size = a_codes[-1] + 1  # the codes grow with the product order

    def table(rows):
        """The code table of b -> b*M, from the codes of the rows of M."""
        tab = [0] * size
        for c, p, i in steps:
            tab[c] = red[tab[p] + rows[i]]
        return tab

    neg = table([(o - 1) * w for o, w in zip(orders, units)])
    acts = [table(units)]  # acts[0], of the identity gelts[0], keeps each code
    gen_acts = [table([code(r) for r in m]) for m in inst.action]
    for g in gelts[1:]:  # g = (g - e_k) * e_k, as AbelianLGroup.matrices multiplies
        k = max(i for i, x in enumerate(g) if x)
        acts.append([gen_acts[k][x] for x in acts[gidx[g[:k] + (g[k] - 1,) + g[k + 1 :]]]])
    fcodes = {(s, t): code(v) for s, t, v in inst.cocycle}  # v has no gamma coordinate
    coc = [[fcodes.get((s, t), 0) for t in gelts] for s in gelts]
    actf = [None] * (n_g * n_g)  # the rows, by s*|G| + t

    def row(s, t):
        r = actf[s * n_g + t]
        if r is None:
            f = coc[s][t]
            r = actf[s * n_g + t] = [red[x + f] for x in acts[s]]
        return r

    one = gidx[group.identity()]  # (0, 1) is the integer one, with code(0) = 0
    inva = []  # (c, s)^-1 = (inva[s][c], ginv[s])
    for s, si in enumerate(ginv):
        act, prod = acts[si], row(s, si)
        fi = neg[act[coc[s][si]]]
        tab = [red[neg[x] + fi] for x in act]
        if gmul[s][si] != one or any(red[a + prod[tab[a]]] for a in a_codes):
            raise InternalInvariantError("oracle inverse failed verification")
        inva.append(tab)

    def generating_set(pool):
        """Walk the pool in order, keeping each element that the ones kept
        so far do not generate; the closure grows incrementally (old
        elements times the new generator, new elements times every one).
        Right multiplication by a generator (b, t) reads, per s, the code
        of s*b + f(s, t) and the index of st."""
        gens, muls, span = [], [], {one}
        for u in pool:
            if u in span:
                continue
            b, t = divmod(u, n_g)
            gens.append((b, t))
            muls.append(([row(s, t)[b] for s in range(n_g)], [gmul[s][t] for s in range(n_g)]))
            frontier, by = span, muls[-1:]
            while frontier:
                pairs = [divmod(y, n_g) for y in frontier]
                frontier = {red[a + cs[s]] * n_g + gs[s] for cs, gs in by for a, s in pairs} - span
                span |= frontier
                by = muls
        if len(span) != len(pool):
            raise InternalInvariantError("oracle pool is not a subgroup")
        return gens

    def commutator_span(codes):
        """The span of [x, s] = xs(sx)^-1, x = (a, r) over the pool of the
        elements with A-code in ``codes``, s = (b, t) a generator."""
        vals = set()
        for b, t in generating_set([c * n_g + g for c in codes for g in range(n_g)]):
            for r in range(n_g):
                tr = gmul[t][r]
                sx, xs, last, ia = row(t, r), row(r, t)[b], row(gmul[r][t], ginv[tr]), inva[tr]
                vals.update([red[red[a + xs] + last[ia[red[b + sx[a]]]]] for a in codes])
        return _closure([decode[c] for c in vals], orders)

    derived = commutator_span(a_codes)
    dz_codes = [c for c in a_codes if decode[c][-1] == 0]
    derived_dz = commutator_span(dz_codes)

    # The transversal element (0, w) is the integer index(w), and (a, s)(0, g)
    # is (a + f(s, g), sg).  back[w] maps the code x of (x, w) to that of
    # (0, w)^-1 (x, w) in A, plus f(1, 1): the factor of multiplying it
    # onto the product so far, which stays in A.
    ident = row(one, one)
    back = []
    for w, iw in enumerate(ginv):
        ia, prod = inva[w][0], row(iw, w)
        back.append([ident[red[ia + x]] for x in prod])
    walks = [list(zip([back[w] for w in gmul[s]], coc[s])) for s in range(n_g)]
    transfer = {}
    for a in a_codes:
        for s, walk in enumerate(walks):
            ca = 0
            for bw, f in walk:
                ca = red[ca + bw[red[a + f]]]
            transfer[decode[a], gelts[s]] = decode[ca]

    ga = code(inst.gamma())  # the lift (gamma, 1)
    gamma_comms = set()
    for g in range(n_g):
        gg = gmul[g][one]
        ia, ig = inva[gg][row(g, one)[ga]], ginv[gg]
        xa, xg = red[ga + coc[one][g]], gmul[one][g]
        gamma_comms.add(decode[red[xa + row(xg, ig)[ia]]])

    return OracleFacts(
        u_order=n_u,
        u_tilde_order=len(dz_codes) * n_g,
        derived=frozenset(derived),
        derived_degree_zero=frozenset(derived_dz),
        transfer=transfer,
        degree_zero_index=len(dz_codes) * n_g // len(derived),
        gamma_commutators=frozenset(_closure(gamma_comms, orders)),
    )


# -- corpus building ------------------------------------------------------------


@dataclass
class ComponentSpec:
    g_orders: Tuple[int, ...]
    atilde_orders: Tuple[int, ...]
    mode: str = "auto"  # auto | exhaustive | sample
    samples: Optional[int] = None  # overrides SearchParams.samples


def _instance_name(inst: Instance, index: int) -> str:
    g = "x".join(map(str, inst.group.orders)) or "1"
    a = "x".join(map(str, inst.atilde_orders)) or "0"
    return f"p{inst.prime}_n{inst.precision}_G{g}_A{a}_{index:03d}.json"


def build_corpus(params: SearchParams, components: Sequence[ComponentSpec], out_dir) -> dict:
    """Write instance files plus a manifest recording how each component of
    the search space was covered (exhausted, sampled, or excluded).

    Malformed parameters raise before anything is written: a composite
    prime, precision 0, an order that is not a power of the prime or a
    (G, A~) pair named twice is an error, while a valid shape below the
    precision floor is recorded as excluded."""
    ZModRing(params.prime, params.precision)
    seen = set()
    for comp in components:
        AbelianLGroup(params.prime, comp.g_orders)
        check_l_powers(params.prime, comp.atilde_orders, "torsion")
        key = (tuple(comp.g_orders), tuple(comp.atilde_orders))
        if key in seen:
            raise ValueError(f"component (G, A~) = {key} is repeated")
        seen.add(key)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "prime": params.prime,
        "precision": params.precision,
        "oracle_bound": params.oracle_bound,
        "seed": params.seed,
        "ceiling": params.ceiling,
        "components": [],
    }
    for comp in components:
        entry = {
            "G": list(comp.g_orders),
            "Atilde": list(comp.atilde_orders),
            "mode": comp.mode,
            "files": [],
            "count": 0,
            "nonzero_boundary": 0,
        }
        if not _shapes(params, comp.g_orders, comp.atilde_orders):
            floor = _precision_floor(params.prime, comp.atilde_orders, comp.g_orders)
            entry["mode"] = "excluded"
            entry["exhausted"] = False
            entry["skip_reason"] = (
                f"precision {params.precision} below the floor {floor} for this shape"
            )
            manifest["components"].append(entry)
            continue
        # one context for the component's count, walk and samples
        context: dict = {}
        estimate = estimate_space(params, comp.g_orders, comp.atilde_orders, _context=context)
        entry["estimate"] = estimate
        entry["estimate_exact"] = estimate <= params.ceiling
        mode = comp.mode
        if mode == "auto":
            mode = "exhaustive" if estimate <= params.ceiling else "sample"
        entry["mode"] = mode
        entry["exhausted"] = mode == "exhaustive"
        instances: List[Instance] = []
        if mode == "exhaustive":
            instances = list(
                enumerate_instances(params, comp.g_orders, comp.atilde_orders, _context=context)
            )
        else:
            sampled = set()
            n_samples = comp.samples if comp.samples is not None else params.samples
            for k in range(n_samples):
                inst = random_instance(
                    replace(params, seed=params.seed + 7919 * k),
                    comp.g_orders,
                    comp.atilde_orders,
                    _context=context,
                )
                # an Instance is a frozen dataclass of canonical fields, so it
                # is equal to another exactly when their files would be
                if inst is not None and inst not in sampled:
                    sampled.add(inst)
                    instances.append(inst)
        for idx, inst in enumerate(instances):
            name = _instance_name(inst, idx)
            payload = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"
            (out / name).write_text(payload, encoding="utf-8")
            entry["files"].append(
                {"name": name, "sha256": hashlib.sha256(payload.encode()).hexdigest()}
            )
            entry["count"] += 1
            if inst.group.rank >= 2:
                if inst.frame.size(inst.frame.boundary) > 1:
                    entry["nonzero_boundary"] += 1
        manifest["components"].append(entry)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest
