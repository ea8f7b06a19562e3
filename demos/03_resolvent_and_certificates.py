"""The resolvent module, relation certificates, and the operator delta.

The resolvent module B = A + I_G carries the twisted action

    sigma * a = a^sigma,   sigma * (tau - 1) = f(sigma, tau) + sigma(tau - 1)

and the operator w = gamma - 1 with w^2 = 0.  For generators b_i = tau_i - 1
the relations e_i b_i = sum mu_ij * b_j + w * sum nu_ij * b_j produce a
matrix M with det M = Tr exactly.  Since w^2 = 0 and a determinant is
linear in each row, det(M - wN) = Tr - w * delta, where delta, the sum over i
of det M with row i replaced by row i of N, is the operator with
Tr = w delta on the degree-zero part.

Here we enumerate every instance with l = 3, G = Z/3, torsion Z/3 and watch
delta change with the arithmetic of the instance.
"""

from logcap.forge import SearchParams, enumerate_instances
from logcap.groupring import det_ring, trace_element
from logcap.resolvent import (
    delta,
    omega_act,
    relation_matrices,
    star_act,
    trace,
)

params = SearchParams(3, 3, ((3,),), ((3,),))
instances = list(enumerate_instances(params))
print(f"{len(instances)} instances with l=3, G=Z/3, torsion Z/3 (one per coboundary class)\n")

for k, inst in enumerate(instances):
    cert = relation_matrices(inst)
    det_m = det_ring(cert.m_matrix)
    tr = trace_element(inst.group, inst.ring)
    d = delta(inst, cert)
    image = inst.span_a([trace(inst, inst.frame.unit(k)) for k in inst.frame.bt_index])
    order = inst.frame.size(image)
    print(f"instance {k}: det M = Tr: {det_m == tr},  delta = {d},  capitulation image order = {order}")

# On the last instance, check the operator identity Tr = w delta on the
# degree-zero generators, coordinate by coordinate.  Vectors of B are
# tuples in the coordinates of the instance's frame, which also holds the
# certificate and delta, computed once on first use.
inst = instances[-1]
frame = inst.frame
_, d, _ = frame.relations
print("\noperator identity on the degree-zero part of the last instance:")
for k in frame.bt_index:
    b = frame.unit(k)
    lhs = trace(inst, b)
    rhs = omega_act(inst, star_act(inst, d, b))[: inst.dim_a]
    print(f"  Tr({b}) = {lhs} = w(delta * .) -> {rhs}: {lhs == rhs}")
