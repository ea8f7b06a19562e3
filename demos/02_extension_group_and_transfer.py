"""An instance and its extension group.

An instance packages (l, n, G, A, factor set): the module A = T + (Z/l^n)
gamma with a G-action and a normalized factor set with values in the
torsion part T.  The factor set turns A x G into a group U, and the whole
point of the machinery is the transfer map U -> A and where its degree-zero
part lands.

The instance here is the smallest interesting one: l = 2, G = Z/2,
T = Z/2 = <alpha>, tau fixing alpha and moving gamma to gamma + alpha.
"""

from itertools import product
from pathlib import Path

from logcap.extension import UElement, transfer
from logcap.instance import load_instance, validate
from logcap.resolvent import log_iso, trace

inst = load_instance(Path(__file__).resolve().parent.parent / "fixtures" / "e1.json")

report = validate(inst)
print("validation:", "all pass" if report.ok else report.failed_names())

tau = (1,)
gamma = inst.gamma()
alpha = inst.atilde_embed((1,))

# group law: (a, s)(b, t) = (a + s.b + f(s, t), st)
u = UElement(inst, gamma, inst.group.identity())
v = UElement(inst, inst.a_zero(), tau)
print("gamma-lift times u_tau:", (u * v).a, (u * v).tau)
print("u_tau times gamma-lift:", (v * u).a, (v * u).tau, " (they do not commute)")

# the derived subgroup, computed from the formula I_G A + antisymmetrized
# factor set; hypothesis H1 demands it be the whole torsion part.  Both are
# submodules of A held by the instance's frame, built once on first use.
d = inst.frame.derived
print("derived subgroup basis:", d.basis, "= torsion part:", d == inst.frame.atilde)

# transfer: sum of the transversal corrections; on the gamma lift it
# multiplies the degree by |G| and picks up the commutator alpha
print("Ver(gamma-lift) =", transfer(inst, u.a, u.tau), " (2 gamma + alpha)")
print("Ver(u_tau)      =", transfer(inst, v.a, v.tau))

# the logarithm sends (a, tau) to a + (tau - 1) in the resolvent module;
# the trace of the logarithm recovers the transfer, element by element;
# both take an element of U as its coordinates (a, tau)
all_of_u = product(product(*(range(o) for o in inst.frame.orders)), inst.group.elements())
mismatches = sum(
    1 for a, g in all_of_u if transfer(inst, a, g) != trace(inst, log_iso(inst, a, g).to_vec())
)
print("transfer vs trace-of-logarithm mismatches over all of U:", mismatches)
