"""Network node: endpoint registry plus static next-hop forwarding."""

from __future__ import annotations

from typing import Dict, Protocol

from .engine import Simulator
from .link import Link
from .packet import Packet

__all__ = ["Node", "Endpoint"]


class Endpoint(Protocol):
    """Anything that can consume packets addressed to a node (TCP agents)."""

    def receive(self, pkt: Packet) -> None:  # pragma: no cover - protocol
        ...


class Node:
    """A host or router.

    Routing is static: the topology builder fills ``routes`` with a
    next-hop link per destination node id.  Packets addressed to this node
    are dispatched to the endpoint registered for their ``flow_id`` (a
    flow registers its sender on one node and its receiver on another;
    both use the same flow id, so data and ACKs find their way).
    """

    __slots__ = (
        "sim",
        "node_id",
        "name",
        "routes",
        "endpoints",
        "packets_unroutable",
    )

    def __init__(self, sim: Simulator, node_id: int, name: str = ""):
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"n{node_id}"
        self.routes: Dict[int, Link] = {}
        self.endpoints: Dict[int, Endpoint] = {}
        self.packets_unroutable = 0

    def add_route(self, dst_node_id: int, link: Link) -> None:
        """Install the next-hop *link* for traffic toward *dst_node_id*."""
        self.routes[dst_node_id] = link

    def register_endpoint(self, flow_id: int, endpoint: Endpoint) -> None:
        """Attach a transport agent for packets of *flow_id* ending here."""
        if flow_id in self.endpoints:
            raise ValueError(f"flow {flow_id} already registered on {self.name}")
        self.endpoints[flow_id] = endpoint

    def unregister_endpoint(self, flow_id: int) -> None:
        self.endpoints.pop(flow_id, None)

    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """Entry point for packets arriving over a link (or locally sent)."""
        dst = pkt.dst
        if dst == self.node_id:
            endpoint = self.endpoints.get(pkt.flow_id)
            if endpoint is not None:
                endpoint.receive(pkt)
            else:
                # Flow already torn down (e.g. a late ACK) — drop silently.
                self.packets_unroutable += 1
            return
        link = self.routes.get(dst)
        if link is None:
            self.packets_unroutable += 1
            return
        link.send(pkt)

    #: Inject a locally generated packet into the network.  Injection *is*
    #: the first hop, so this is ``receive`` under its sending-side name
    #: (one frame per packet less than a method that forwards to it); the
    #: two names stay separate class attributes that can be wrapped apart.
    send = receive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} flows={len(self.endpoints)}>"
