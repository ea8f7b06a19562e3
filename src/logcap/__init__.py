"""logcap: exact verification of capitulation identities for degree-zero
logarithmic class groups, on finitely presented instances.

The library side is organized bottom-up:

* ``lattice``   exact linear algebra over Z/l^n (Howell forms, solve, kernels)
* ``groupring`` abelian l-groups, group rings, their determinants
* ``instance``  the instance data model, validation, coboundary shifts, JSON
* ``extension`` the extension group U on A x G: transfer, derived subgroups
* ``resolvent`` the resolvent module B, relation certificates, delta
* ``verifier``  the check catalogue V1..V10 with verdicts and reports
* ``forge``     instance enumeration/sampling and the brute-force oracle
"""

from .groupring import AbelianLGroup, GroupRingElt, trace_element
from .instance import (
    Instance,
    build_instance,
    coboundary_shift,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    validate,
)
from .lattice import Submodule, ZModRing, kernel, preimage, quotient_order, solve
from .resolvent import (
    RelationCertificate,
    ResolventElt,
    delta,
    omega_act,
    relation_matrices,
    star_act,
    trace,
)
from .verifier import run_all, run_check

__version__ = "0.1.0"

__all__ = [
    "AbelianLGroup",
    "GroupRingElt",
    "Instance",
    "RelationCertificate",
    "ResolventElt",
    "Submodule",
    "ZModRing",
    "build_instance",
    "coboundary_shift",
    "delta",
    "instance_from_dict",
    "instance_to_dict",
    "kernel",
    "load_instance",
    "preimage",
    "omega_act",
    "quotient_order",
    "relation_matrices",
    "run_all",
    "run_check",
    "save_instance",
    "solve",
    "star_act",
    "trace",
    "trace_element",
    "validate",
]
