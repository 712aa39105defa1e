"""Web-session traffic generator (bursty background load).

Models the HTTP workload the paper mixes into every experiment, with the
heavy-tailed parameterization recommended by Feldmann et al. (SIGCOMM
1999), which the paper cites as its guideline:

* a session is an endless alternation of *think time* and *page fetch*,
* a page has a Pareto-distributed number of objects,
* each object is a Pareto-distributed number of packets transferred over
  its own short-lived TCP connection (slow start dominates, producing the
  bursty arrivals RED/PERT must absorb).

Object transfers reuse the full TCP implementation, so web packets share
queues — and loss/marking — with the long-lived flows.
"""

from __future__ import annotations

import functools
import random
from typing import Iterator, List, Optional, Type

from ..sim.engine import Simulator
from ..sim.node import Node
from ..tcp.base import TcpSender, connect_flow

__all__ = ["WebSession", "start_web_sessions", "bounded_pareto"]


def bounded_pareto(rng: random.Random, shape: float, scale: float, cap: float) -> float:
    """Pareto(shape, scale) sample truncated at *cap*."""
    if shape <= 0 or scale <= 0 or cap < scale:
        raise ValueError("need shape > 0, 0 < scale <= cap")
    x = scale / (rng.random() ** (1.0 / shape))
    return min(x, cap)


class WebSession:
    """One endless client session fetching pages from a server node.

    Parameters
    ----------
    server, client:
        Data flows server -> client; ACKs flow back.
    think_mean:
        Mean exponential think time between pages (seconds).
    objects_shape / objects_scale / objects_cap:
        Pareto parameters for objects-per-page (defaults give a mean of
        about 3 objects, capped at 30).
    size_shape / size_scale_pkts / size_cap_pkts:
        Pareto parameters for object size in packets (mean ~12 packets
        with shape 1.2, matching the heavy-tailed web-object sizes of the
        Feldmann et al. guidance).
    """

    def __init__(
        self,
        sim: Simulator,
        server: Node,
        client: Node,
        flow_ids: Iterator[int],
        rng: random.Random,
        sender_cls: Type[TcpSender] = TcpSender,
        think_mean: float = 1.0,
        objects_shape: float = 1.5,
        objects_scale: float = 1.0,
        objects_cap: float = 30.0,
        size_shape: float = 1.2,
        size_scale_pkts: float = 2.0,
        size_cap_pkts: float = 200.0,
        pkt_size: int = 1000,
        **sender_kwargs,
    ):
        self.sim = sim
        self.server = server
        self.client = client
        self.flow_ids = flow_ids
        self.rng = rng
        self.sender_cls = sender_cls
        self.think_mean = think_mean
        self.objects_shape = objects_shape
        self.objects_scale = objects_scale
        self.objects_cap = objects_cap
        self.size_shape = size_shape
        self.size_scale_pkts = size_scale_pkts
        self.size_cap_pkts = size_cap_pkts
        self.pkt_size = pkt_size
        self.sender_kwargs = sender_kwargs
        self.pages_fetched = 0
        self.objects_fetched = 0
        self.packets_requested = 0
        #: completion time of each finished object transfer (seconds) —
        #: the response-time metric AQM evaluations report for web loads
        self.object_latencies: List[float] = []
        self.active = False
        self._objects_left = 0

    def start(self, at: float = 0.0) -> None:
        self.active = True
        self.sim.schedule(max(0.0, at - self.sim.now), self._begin_page)

    def stop(self) -> None:
        self.active = False

    # ------------------------------------------------------------------
    def _begin_page(self) -> None:
        if not self.active:
            return
        self._objects_left = int(
            round(bounded_pareto(self.rng, self.objects_shape, self.objects_scale,
                                 self.objects_cap))
        )
        self._objects_left = max(1, self._objects_left)
        self._fetch_next_object()

    def _fetch_next_object(self) -> None:
        if not self.active:
            return
        if self._objects_left <= 0:
            self.pages_fetched += 1
            self.sim.schedule(self.rng.expovariate(1.0 / self.think_mean),
                              self._begin_page)
            return
        self._objects_left -= 1
        npkts = int(round(bounded_pareto(self.rng, self.size_shape,
                                         self.size_scale_pkts, self.size_cap_pkts)))
        npkts = max(1, npkts)
        self.packets_requested += npkts
        fid = next(self.flow_ids)
        sender, sink = connect_flow(
            self.sim, self.server, self.client, flow_id=fid,
            sender_cls=self.sender_cls, pkt_size=self.pkt_size,
            **self.sender_kwargs,
        )
        started_at = self.sim.now
        sender.on_complete = functools.partial(self._object_done, started_at, fid)
        sender.start(npackets=npkts)

    def _object_done(self, started_at: float, fid: int, _sender: TcpSender) -> None:
        self.objects_fetched += 1
        self.object_latencies.append(self.sim.now - started_at)
        # Tear down endpoints so node tables don't grow without bound.
        self.server.unregister_endpoint(fid)
        self.client.unregister_endpoint(fid)
        self._fetch_next_object()


def start_web_sessions(
    sim: Simulator,
    n_sessions: int,
    server: Node,
    client: Node,
    flow_ids: Iterator[int],
    rng: Optional[random.Random] = None,
    start_window: float = 5.0,
    **session_kwargs,
) -> List[WebSession]:
    """Start *n_sessions* independent sessions between two hosts."""
    rng = rng or sim.stream("web")
    sessions = []
    for i in range(n_sessions):
        srng = random.Random(rng.random())
        s = WebSession(sim, server, client, flow_ids, srng, **session_kwargs)
        s.start(at=rng.uniform(0.0, start_window))
        sessions.append(s)
    return sessions
