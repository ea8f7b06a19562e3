"""The extension group U realized on A x G through the factor set.

Multiplication is (a, s) * (b, t) = (a + s*b + f(s, t), st); associativity
is exactly the factor-set identity, so these functions are meaningful on
validated instances only (the verifier exercises them on broken data too,
where failures are the point).

The transfer takes an element of U as its coordinates (a, tau), as does
the logarithm ``resolvent.log_iso``, which lives next to the
``ResolventElt`` it returns; only the group law wraps them in a
``UElement``.  The transfer is computed against the fixed transversal
u_t = (0, t); other transversals are reachable through coboundary shifts
of the instance.  Into the abelian normal subgroup A it is an affine map,
a norm plus a factor-set correction (Neukirch, Schmidt & Wingberg,
*Cohomology of Number Fields*):

    transfer(a, tau) = N * a + c(tau),   N = sum_h h,
    c(tau) = sum_g (tau g)^-1 * f(tau, g).

The instance's frame holds N and the offsets c(tau).  The map equals the
coset sum sum_g (tau g)^-1 * (a + f(tau, g)) taken on reduced coordinates
exactly when the action respects the torsion orders (validation's
``action-well-defined``); only then is either side a function on A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, TYPE_CHECKING

from .groupring import GElt
from .lattice import Submodule

if TYPE_CHECKING:
    from .instance import Instance

Vec = Tuple[int, ...]


class InstanceMismatchError(ValueError):
    """Raised when group elements from different instances are combined."""


@dataclass(frozen=True)
class UElement:
    """An element (a, tau) of the extension group of one instance."""

    instance: "Instance"
    a: Vec
    tau: GElt

    def __post_init__(self):
        if len(self.a) != self.instance.dim_a or not self.instance.group.contains(self.tau):
            raise ValueError("components do not fit the instance")
        object.__setattr__(self, "a", self.instance.a_reduce(self.a))

    @classmethod
    def _of(cls, instance: "Instance", a: Vec, tau: GElt) -> "UElement":
        """(a, tau) without the constructor's check: products and inverses
        take a from the reducing a_add and a_neg, tau from group.mul and
        group.inv, so both fit the instance by construction."""
        out = object.__new__(cls)
        for name, value in (("instance", instance), ("a", a), ("tau", tau)):
            object.__setattr__(out, name, value)
        return out

    def _check(self, other: "UElement") -> None:
        if self.instance != other.instance:
            raise InstanceMismatchError("elements of different extension groups")

    def __mul__(self, other: "UElement") -> "UElement":
        self._check(other)
        inst = self.instance
        a = inst.a_add(self.a, inst.act(self.tau, other.a))
        a = inst.a_add(a, inst.cocycle_in_a(self.tau, other.tau))
        return UElement._of(inst, a, inst.group.mul(self.tau, other.tau))

    def inverse(self) -> "UElement":
        inst = self.instance
        ti = inst.group.inv(self.tau)
        b = inst.a_neg(
            inst.a_add(
                inst.act(ti, self.a),
                inst.act(ti, inst.cocycle_in_a(self.tau, ti)),
            )
        )
        return UElement._of(inst, b, ti)


def u_order(inst: "Instance") -> int:
    return inst.group.size() * inst.ring.modulus * inst.atilde_order()


def derived_subgroup(inst: "Instance", degree_zero: bool = False) -> Submodule:
    """The commutator subgroup as a submodule of A.

    Generated by (1 - tau) * a over the group generators and module
    generators, together with the antisymmetrized factor set values
    f(s, g) - f(g, s) over unordered pairs {s, g}, which the frame builds
    once for both calls; with ``degree_zero`` the module generators are
    restricted to the torsion part (commutators taken inside the
    degree-zero subgroup).  tau * e_i is row i of tau's action matrix, so
    (1 - tau) * e_i is read off the frame's action rows.
    """
    gens = []
    coords = range(inst.torsion_rank if degree_zero else inst.dim_a)
    for tau in inst.group.generators():
        rows = inst.frame.action[tau]
        for i in coords:
            gens.append(inst.a_reduce([int(j == i) - x for j, x in enumerate(rows[i])]))
    return inst.span_a(gens + list(inst.frame.factor_set_commutators))


def transfer(inst: "Instance", a: Vec, tau: GElt) -> Vec:
    """The transfer of u = (a, tau) into A against the transversal u_t = (0, t).

    u * u_t = u_{tau t} * (x_t, 1) forces x_t = (tau t)^-1 * (a + f(tau, t));
    the sum of the x_t is N * a + c(tau), read off the frame's affine map.
    It is constant on cosets of the derived subgroup and a homomorphism
    there, on instances whose action is well defined on A.
    """
    return inst.frame.transfer_map(a, tau)
