"""Business relationships between Autonomous Systems.

The paper (§2.2.1) models the prevalent interdomain relationships:
customer–provider, peer–peer, and sibling–sibling.  A link is stored once and
viewed from either endpoint; :class:`Relationship` is the *directed* view
("what is the neighbour to me?").
"""

from __future__ import annotations

import enum


class Relationship(enum.Enum):
    """Directed view of a business relationship: what the *neighbour* is.

    ``Relationship.CUSTOMER`` means "the neighbour is my customer", i.e. the
    route learned over that link is a *customer route*.
    """

    CUSTOMER = "customer"
    PROVIDER = "provider"
    PEER = "peer"
    SIBLING = "sibling"

    @property
    def inverse(self) -> "Relationship":
        """The same link viewed from the other endpoint."""
        return _INVERSE[self]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relationship.{self.name}"


_INVERSE = {
    Relationship.CUSTOMER: Relationship.PROVIDER,
    Relationship.PROVIDER: Relationship.CUSTOMER,
    Relationship.PEER: Relationship.PEER,
    Relationship.SIBLING: Relationship.SIBLING,
}


class LinkType(enum.Enum):
    """Undirected classification of a link, as counted in Table 5.1."""

    CUSTOMER_PROVIDER = "p2c"
    PEER_PEER = "p2p"
    SIBLING_SIBLING = "s2s"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinkType.{self.name}"


def link_type_for(relationship: Relationship) -> LinkType:
    """Map a directed relationship view onto its undirected link class."""
    if relationship in (Relationship.CUSTOMER, Relationship.PROVIDER):
        return LinkType.CUSTOMER_PROVIDER
    if relationship is Relationship.PEER:
        return LinkType.PEER_PEER
    return LinkType.SIBLING_SIBLING

