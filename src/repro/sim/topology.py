"""Topology construction: duplex links, static routing, paper topologies.

Two canonical topologies from the paper are provided:

* ``"dumbbell"`` — the single-bottleneck topology used throughout
  Section 4 (hosts on each side, two routers, one bottleneck link);
* ``"parking_lot"`` — the six-router chain with per-router host
  clouds of Section 4.6 / Figure 10 (multiple bottlenecks).

The canonical way to build either is the :func:`make_topology` registry
(mirroring :func:`repro.sim.queues.make_queue`), so scenario specs can
name topologies declaratively:

>>> db = make_topology("dumbbell", sim, n_left=4, n_right=4,
...                    bottleneck_bw=8e6, bottleneck_delay=0.01,
...                    qdisc_fwd=qdisc)

Every topology owns a :class:`Network`, which keeps the simulator's node
table and computes static shortest-path (hop-count) routes.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple, Type

from .engine import Simulator
from .link import Link
from .node import Node
from .queues.base import QueueDiscipline
from .queues.config import QueueConfig, make_queue

__all__ = [
    "Network",
    "Dumbbell",
    "ParkingLot",
    "TOPOLOGIES",
    "make_topology",
]

QdiscFactory = Callable[[], QueueDiscipline]

_DEFAULT_QUEUE = QueueConfig("droptail", capacity_pkts=1000)


def _default_qdisc() -> QueueDiscipline:
    return make_queue(_DEFAULT_QUEUE)


class Network:
    """A set of nodes and duplex links with static hop-count routing."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.nodes: List[Node] = []
        self.links: List[Link] = []
        self._adj: Dict[int, List[Tuple[int, Link]]] = {}

    def add_node(self, name: str = "") -> Node:
        node = Node(self.sim, node_id=len(self.nodes), name=name)
        self.nodes.append(node)
        self._adj[node.node_id] = []
        return node

    def connect(
        self,
        a: Node,
        b: Node,
        bandwidth: float,
        delay: float,
        qdisc_ab: Optional[QdiscFactory] = None,
        qdisc_ba: Optional[QdiscFactory] = None,
    ) -> Tuple[Link, Link]:
        """Create a duplex link ``a <-> b``; each direction gets its own queue."""
        fab = qdisc_ab or _default_qdisc
        fba = qdisc_ba or qdisc_ab or _default_qdisc
        link_ab = Link(self.sim, a, b, bandwidth, delay, fab())
        link_ba = Link(self.sim, b, a, bandwidth, delay, fba())
        self.links.extend([link_ab, link_ba])
        self._adj[a.node_id].append((b.node_id, link_ab))
        self._adj[b.node_id].append((a.node_id, link_ba))
        return link_ab, link_ba

    def compute_routes(self) -> None:
        """Fill every node's next-hop table by BFS from each source."""
        for src in self.nodes:
            # BFS over hop count; the first hop of the discovery path is
            # inherited along the tree, giving shortest-path next hops.
            visited = {src.node_id}
            frontier = deque([src.node_id])
            first_hop: Dict[int, Link] = {}
            while frontier:
                u = frontier.popleft()
                for v, link in self._adj[u]:
                    if v in visited:
                        continue
                    visited.add(v)
                    first_hop[v] = first_hop[u] if u != src.node_id else link
                    frontier.append(v)
            for dst_id, link in first_hop.items():
                src.add_route(dst_id, link)


class Dumbbell:
    """Single-bottleneck topology of the paper's Section 4 experiments.

    ``n_left`` hosts connect to router ``r1``, ``n_right`` hosts to ``r2``,
    and a single duplex bottleneck joins the routers.  Access links are
    fast enough never to be the bottleneck; per-host access delays realise
    heterogeneous end-to-end RTTs.
    """

    def __init__(
        self,
        sim: Simulator,
        n_left: int,
        n_right: int,
        bottleneck_bw: float,
        bottleneck_delay: float,
        qdisc_fwd: QdiscFactory,
        qdisc_rev: Optional[QdiscFactory] = None,
        access_bw: float = 500e6,
        access_delays_left: Optional[List[float]] = None,
        access_delays_right: Optional[List[float]] = None,
    ):
        self.net = Network(sim)
        self.r1 = self.net.add_node("r1")
        self.r2 = self.net.add_node("r2")
        self.left = [self.net.add_node(f"L{i}") for i in range(n_left)]
        self.right = [self.net.add_node(f"R{i}") for i in range(n_right)]
        self.fwd, self.rev = self.net.connect(
            self.r1, self.r2, bottleneck_bw, bottleneck_delay, qdisc_fwd, qdisc_rev
        )
        dl = access_delays_left or [1e-3] * n_left
        dr = access_delays_right or [1e-3] * n_right
        if len(dl) != n_left or len(dr) != n_right:
            raise ValueError("access delay list lengths must match host counts")
        for host, d in zip(self.left, dl):
            self.net.connect(host, self.r1, access_bw, d)
        for host, d in zip(self.right, dr):
            self.net.connect(host, self.r2, access_bw, d)
        self.net.compute_routes()

    @property
    def bottleneck_queue(self) -> QueueDiscipline:
        """Forward-direction bottleneck queue (the paper's observed queue)."""
        return self.fwd.qdisc


class ParkingLot:
    """Six-router chain with host clouds (paper Figure 10).

    Routers ``R1..Rk`` are joined by identical duplex links; each router
    has ``cloud_size`` hosts attached.  Traffic patterns (each cloud sends
    to the next cloud; cloud 1 also sends end-to-end to cloud k) are wired
    by the experiment, not here.
    """

    def __init__(
        self,
        sim: Simulator,
        n_routers: int,
        cloud_size: int,
        link_bw: float,
        link_delay: float,
        qdisc: QdiscFactory,
        access_bw: float = 1e9,
        access_delay: float = 5e-3,
    ):
        if n_routers < 2:
            raise ValueError("need at least two routers")
        self.net = Network(sim)
        self.routers = [self.net.add_node(f"R{i+1}") for i in range(n_routers)]
        self.clouds: List[List[Node]] = []
        self.core_links: List[Tuple[Link, Link]] = []
        for i in range(n_routers - 1):
            pair = self.net.connect(
                self.routers[i], self.routers[i + 1], link_bw, link_delay, qdisc, qdisc
            )
            self.core_links.append(pair)
        for i, router in enumerate(self.routers):
            cloud = [self.net.add_node(f"h{i+1}.{j}") for j in range(cloud_size)]
            for host in cloud:
                self.net.connect(host, router, access_bw, access_delay)
            self.clouds.append(cloud)
        self.net.compute_routes()


#: topology name -> implementing class
TOPOLOGIES: Dict[str, Type] = {
    "dumbbell": Dumbbell,
    "parking_lot": ParkingLot,
}


def _allowed_topology_params(cls: Type) -> Dict[str, inspect.Parameter]:
    """Constructor keywords settable through :func:`make_topology`."""
    sig = inspect.signature(cls.__init__)
    return {n: p for n, p in sig.parameters.items() if n not in ("self", "sim")}


def make_topology(name: str, sim: Simulator, **kwargs):
    """Build the topology registered under *name* on *sim*.

    Keyword arguments are validated against the implementing class's
    constructor signature; unknown topology names and parameters raise
    :class:`ValueError` with the valid names listed, exactly like
    :func:`repro.sim.queues.make_queue` does for disciplines.
    """
    cls = TOPOLOGIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown topology {name!r}; valid: {sorted(TOPOLOGIES)}"
        )
    allowed = _allowed_topology_params(cls)
    unknown = sorted(set(kwargs) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown parameter(s) {unknown} for topology {name!r}; "
            f"valid: {sorted(allowed)}"
        )
    return cls(sim, **kwargs)
