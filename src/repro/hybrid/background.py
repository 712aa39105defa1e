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

The injected arrival process is deterministic and seedable: inter-
arrivals come from the simulator's ``"background"`` RNG stream (claimed
only when a background is actually attached, so zero-background runs
remain bit-identical to pure packet runs).  ``aggregate`` batches the
fluid ensemble's packets into macro-packets — at 10^5 flows the fluid
rate can exceed what per-packet events allow, and a GSO-style burst of
``aggregate`` payloads per event keeps the event count bounded by
``rate / aggregate`` instead of the raw packet rate.
"""

from __future__ import annotations

import math
import numbers
import random
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

#: reserved flow id for background macro-packets — real flows count up
#: from 0, so a negative id can never collide
BACKGROUND_FLOW_ID = -1


@dataclass(frozen=True)
class BackgroundLoad:
    """Declarative description of a fluid-driven background ensemble.

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
        cannot afford).
    rtt:
        Fluid round-trip delay in seconds; ``None`` uses the packet
        run's base RTT.
    aggregate:
        Packets per injected macro-packet (GSO-style batching; event
        count scales with ``rate / aggregate``).
    horizon, fluid_dt:
        Fluid integration horizon and step of the fast-forward
        (:func:`repro.hybrid.fluid_fast_forward`), which integrates the
        model to steady state up front so the settled rate is injected
        from t = 0 — the fluid transient is skipped, matching the packet
        side's own warm-up discipline.  ``horizon=None`` lets the
        fast-forward pick its own.
    arrival:
        ``"poisson"`` (exponential inter-arrivals, the natural model of
        a large aggregate; seeded from the ``"background"`` stream) or
        ``"paced"`` (deterministic even spacing).
    params:
        Extra fluid-model parameters forwarded verbatim to
        :func:`repro.fluid.make_fluid_model`.
    """

    model: str
    share: float
    n_flows: int = 100
    rtt: Optional[float] = None
    aggregate: int = 1
    horizon: Optional[float] = None
    fluid_dt: float = 2e-3
    arrival: str = "poisson"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.share < 1.0:
            raise ValueError("background share must be in [0, 1)")
        for name in ("n_flows", "aggregate"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral) or value < 1):
                raise ValueError(
                    f"background {name} must be a positive integer, "
                    f"got {value!r}")
        # rtt=None is the packet run's base RTT, horizon=None the
        # fast-forward's own choice; a number must be a usable one
        for name in ("rtt", "horizon", "fluid_dt"):
            value = getattr(self, name)
            if value is None and name != "fluid_dt":
                continue
            if not (isinstance(value, numbers.Real) and math.isfinite(value)
                    and value > 0):
                raise ValueError(
                    f"background {name} must be a positive finite number, "
                    f"got {value!r}")
        if self.arrival not in ("poisson", "paced"):
            raise ValueError("arrival must be 'poisson' or 'paced'")
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
            "rtt": None if self.rtt is None else float(self.rtt),
            "aggregate": int(self.aggregate),
            "horizon": None if self.horizon is None else float(self.horizon),
            "fluid_dt": float(self.fluid_dt),
            "arrival": self.arrival,
            "params": dict(self.params),
        }


class BackgroundSource:
    """Injects a constant aggregate rate as macro-packet arrivals.

    The source self-schedules like :class:`repro.traffic.cbr.CbrSource`:
    inter-arrivals are exponential (``"poisson"``, drawn from *rng*) or
    even (``"paced"``, *rng* ``None``) at ``rate_pps / aggregate``
    macro-packets per second.  A zero rate injects nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        dst: int,
        rate_pps: float,
        pkt_size: int = 1000,
        aggregate: int = 1,
        rng: Optional[random.Random] = None,
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
        self.aggregate = aggregate
        self.rng = rng
        self.flow_id = flow_id
        #: macro-packets injected so far
        self.pkts_sent = 0
        #: fluid-ensemble packets represented (pkts_sent * aggregate)
        self.offered_pkts = 0
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
        rate = self.rate_pps / self.aggregate
        if rate <= 0.0:
            self.running = False
            self._timer = None
            return
        if self.rng is not None:
            gap = self.rng.expovariate(rate)
        else:
            gap = 1.0 / rate
        self._timer = self.sim.schedule(now + gap - self.sim.now, self._tick)

    def _tick(self) -> None:
        if not self.running:
            return
        pkt = Packet(
            flow_id=self.flow_id,
            src=self.node.node_id,
            dst=self.dst,
            size=self.pkt_size * self.aggregate,
            seq=self._seq,
        )
        self._seq += 1
        self.pkts_sent += 1
        self.offered_pkts += self.aggregate
        self.node.send(pkt)
        self._schedule_next(self.sim.now)

    def receive(self, pkt: Packet) -> None:  # pragma: no cover - source only sends
        """Sources ignore input (endpoint-protocol compatibility)."""


class BackgroundSink:
    """Counts background macro-packets surviving the bottleneck queue."""

    def __init__(self, node: Node, flow_id: int = BACKGROUND_FLOW_ID):
        self.pkts_received = 0
        self.bytes_received = 0
        node.register_endpoint(flow_id, self)

    def receive(self, pkt: Packet) -> None:
        """Account one delivered background macro-packet."""
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
        rtt=load.rtt if load.rtt is not None else base_rtt,
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
    packet prefix are untouched.  Background macro-packets enter at
    router ``r1`` addressed to ``r2`` — they traverse (and load) exactly
    the forward bottleneck queue, then terminate at the far router's
    :class:`BackgroundSink`.
    """
    model = background_model(load, bandwidth, pkt_size, base_rtt)
    steady = fluid_fast_forward(model, horizon=load.horizon, dt=load.fluid_dt)
    rng = sim.stream("background") if load.arrival == "poisson" else None
    source = BackgroundSource(
        sim,
        db.r1,
        dst=db.r2.node_id,
        rate_pps=steady.rate_pps,
        pkt_size=pkt_size,
        aggregate=load.aggregate,
        rng=rng,
    )
    source.sink = BackgroundSink(db.r2)
    source.start(at=0.0)
    return source
