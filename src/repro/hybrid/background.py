"""Fluid-driven background load: the packet side of the hybrid coupling.

A :class:`BackgroundLoad` declares *what* drives the bottleneck's
background share — which fluid model, how many fluid flows, what share
of capacity — in a JSON-clean form that rides inside
:func:`repro.runner.dumbbell_spec` params, so hybrid jobs cache and
dedupe like any other.  :func:`attach_background` turns the declaration
into live objects at build time: it fast-forwards the fluid model to its
settled sending rate (:func:`repro.hybrid.fluid_fast_forward`) and starts
a :class:`BackgroundSource` that injects that rate through the ordinary
event engine.

The injected arrival process is Poisson, deterministic and seedable:
inter-arrivals come from the simulator's ``"background"`` RNG stream
(claimed only when a background is actually attached, so zero-background
runs remain bit-identical to pure packet runs).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

from ..fluid.model import fluid_model_params, make_fluid_model
from ..sim.engine import Event, Simulator
from ..sim.node import Node
from ..sim.packet import Packet
from .fastforward import fluid_fast_forward

__all__ = [
    "BACKGROUND_FLOW_ID",
    "BackgroundLoad",
    "BackgroundSource",
    "BackgroundSink",
    "attach_background",
]

#: reserved flow id for background packets — real flows count up
#: from 0, so a negative id can never collide
BACKGROUND_FLOW_ID = -1


@dataclass(frozen=True)
class BackgroundLoad:
    """Declarative description of a fluid-driven background ensemble.

    The fluid model runs at the packet run's base RTT and is
    fast-forwarded to its settled rate
    (:func:`repro.hybrid.fluid_fast_forward`), which is injected from
    t = 0 as Poisson arrivals — the fluid transient is skipped, matching
    the packet side's own warm-up discipline.

    Parameters
    ----------
    model:
        Fluid model name from :data:`repro.fluid.FLUID_MODELS`
        (``"pert_red"``, ``"tcp_red"``, ``"pert_pi"``).
    share:
        Fraction of the bottleneck capacity handed to the fluid
        ensemble (its model ``capacity`` becomes ``share * C``).  A
        share of 0 means "no background" — the spec normalises to
        ``None`` and the run is bit-identical to a pure packet run.
    n_flows:
        Number of flows in the fluid ensemble (the N the packet engine
        does not simulate).
    params:
        Extra fluid-model parameters forwarded verbatim to
        :func:`repro.fluid.make_fluid_model`.
    """

    model: str
    share: float
    n_flows: int = 100
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.share < 1.0:
            raise ValueError("background share must be in [0, 1)")
        if (isinstance(self.n_flows, bool)
                or not isinstance(self.n_flows, numbers.Integral)
                or self.n_flows < 1):
            raise ValueError(
                f"background n_flows must be a positive integer, "
                f"got {self.n_flows!r}")
        # validate model name and params eagerly (and freeze the mapping)
        allowed = fluid_model_params(self.model)
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown fluid parameter(s) {unknown} for background model "
                f"{self.model!r}; valid: {sorted(allowed)}"
            )
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def from_spec(
        cls, spec: Union[None, "BackgroundLoad", Mapping[str, Any]]
    ) -> Optional["BackgroundLoad"]:
        """Normalise a user-facing spec; zero share collapses to ``None``.

        Accepts ``None``, a :class:`BackgroundLoad`, or its dict form
        (the shape sweeps and the runner's JSON params carry).  The
        collapse of ``share == 0`` to ``None`` is what makes zero-share
        hybrid runs *bit-identical* to pure packet runs: nothing is
        constructed, no RNG stream is claimed, no event is scheduled.
        """
        if spec is None:
            return None
        load = spec if isinstance(spec, cls) else cls(**dict(spec))
        if load.share == 0.0:
            return None
        return load

    def canonical(self) -> Dict[str, Any]:
        """JSON-clean dict form (stable key order via sorted serialisers)."""
        return {
            "model": self.model,
            "share": float(self.share),
            "n_flows": int(self.n_flows),
            "params": dict(self.params),
        }


class BackgroundSource:
    """Injects a constant aggregate rate as Poisson packet arrivals.

    The source self-schedules like :class:`repro.traffic.cbr.CbrSource`;
    inter-arrivals are exponential at ``rate_pps``, drawn from the
    simulator's ``"background"`` stream.  A zero rate injects nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        dst: int,
        rate_pps: float,
        pkt_size: int = 1000,
        flow_id: int = BACKGROUND_FLOW_ID,
    ):
        if not rate_pps >= 0:
            raise ValueError("rate_pps must be >= 0")
        self.sim = sim
        self.node = node
        self.dst = dst
        #: aggregate arrival rate in packets/second
        self.rate_pps = rate_pps
        self.pkt_size = pkt_size
        self.rng = sim.stream("background")
        self.flow_id = flow_id
        #: packets injected so far
        self.pkts_sent = 0
        self._seq = 0
        self._timer: Optional[Event] = None
        self.running = False
        #: the far-router sink, set by :func:`attach_background`
        self.sink: Optional["BackgroundSink"] = None

    def start(self, at: float = 0.0) -> None:
        """Begin injecting at simulation time *at*."""
        self.running = True
        self._schedule_next(max(at, self.sim.now))

    def stop(self) -> None:
        """Cancel the pending arrival and stop injecting."""
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    def _schedule_next(self, now: float) -> None:
        """Schedule the next arrival after *now*."""
        if self.rate_pps <= 0.0:
            self.running = False
            self._timer = None
            return
        gap = self.rng.expovariate(self.rate_pps)
        self._timer = self.sim.schedule(now + gap - self.sim.now, self._tick)

    def _tick(self) -> None:
        if not self.running:
            return
        pkt = Packet(
            flow_id=self.flow_id,
            src=self.node.node_id,
            dst=self.dst,
            size=self.pkt_size,
            seq=self._seq,
        )
        self._seq += 1
        self.pkts_sent += 1
        self.node.send(pkt)
        self._schedule_next(self.sim.now)

    def receive(self, pkt: Packet) -> None:  # pragma: no cover - source only sends
        """Sources ignore input (endpoint-protocol compatibility)."""


class BackgroundSink:
    """Counts background packets surviving the bottleneck queue."""

    def __init__(self, node: Node, flow_id: int = BACKGROUND_FLOW_ID):
        self.pkts_received = 0
        self.bytes_received = 0
        node.register_endpoint(flow_id, self)

    def receive(self, pkt: Packet) -> None:
        """Account one delivered background packet."""
        self.pkts_received += 1
        self.bytes_received += pkt.size


def background_model(load: BackgroundLoad, bandwidth: float, pkt_size: int,
                     base_rtt: float):
    """Build the fluid model a :class:`BackgroundLoad` describes.

    The model's ``capacity`` is the ensemble's capacity share in
    packets/second; at equilibrium the exported rate equals exactly
    ``share * C`` (see :func:`repro.fluid.equilibrium_rate`).
    """
    pkt_rate = bandwidth / (8.0 * pkt_size)
    return make_fluid_model(
        load.model,
        capacity=load.share * pkt_rate,
        n_flows=load.n_flows,
        rtt=base_rtt,
        **dict(load.params),
    )


def attach_background(
    sim: Simulator,
    db,
    load: BackgroundLoad,
    *,
    bandwidth: float,
    pkt_size: int,
    base_rtt: float,
) -> BackgroundSource:
    """Fast-forward the fluid model and start the injector on *db*'s
    bottleneck.

    Called by the experiment harness at the *end* of topology/flow
    construction, so the streams and event sequence numbers of the pure
    packet prefix are untouched.  Background packets enter at
    router ``r1`` addressed to ``r2`` — they traverse (and load) exactly
    the forward bottleneck queue, then terminate at the far router's
    :class:`BackgroundSink`.
    """
    model = background_model(load, bandwidth, pkt_size, base_rtt)
    steady = fluid_fast_forward(model)
    source = BackgroundSource(
        sim,
        db.r1,
        dst=db.r2.node_id,
        rate_pps=steady.rate_pps,
        pkt_size=pkt_size,
    )
    source.sink = BackgroundSink(db.r2)
    source.start(at=0.0)
    return source
