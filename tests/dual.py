"""Dual numbers over the group ring: (Z/l^n)[G][w]/(w^2).

The library computes delta without this ring; the tests keep it as an
independent reference for the w-part of det(M - wN) and for the ring laws
of w.
"""

from __future__ import annotations

from logcap.groupring import GroupRingElt


class OmegaRingElt:
    """r0 + w*r1 in (Z/l^n)[G][w]/(w^2)."""

    __slots__ = ("r0", "r1")

    def __init__(self, r0: GroupRingElt, r1: GroupRingElt):
        r0._check(r1)
        self.r0 = r0
        self.r1 = r1

    def __add__(self, other: "OmegaRingElt") -> "OmegaRingElt":
        return OmegaRingElt(self.r0 + other.r0, self.r1 + other.r1)

    def __neg__(self) -> "OmegaRingElt":
        return OmegaRingElt(-self.r0, -self.r1)

    def __mul__(self, other: "OmegaRingElt") -> "OmegaRingElt":
        # (a + wb)(c + wd) = ac + w(ad + bc); the w^2 term is discarded
        return OmegaRingElt(self.r0 * other.r0, self.r0 * other.r1 + self.r1 * other.r0)

    def __eq__(self, other) -> bool:
        return isinstance(other, OmegaRingElt) and self.r0 == other.r0 and self.r1 == other.r1

    def __hash__(self) -> int:
        return hash((self.r0, self.r1))

    def __repr__(self) -> str:
        return f"({self.r0}) + w*({self.r1})"


def dual_matrix(m_matrix, n_matrix) -> list:
    """The matrix M - wN with entries in the dual-number ring."""
    return [
        [OmegaRingElt(m, -n) for m, n in zip(m_row, n_row)]
        for m_row, n_row in zip(m_matrix, n_matrix)
    ]
