"""Scheme registry: the protocol/queue combinations the paper compares.

Every Section 4 experiment contrasts

* ``sack-droptail``  — SACK TCP over tail-drop FIFOs,
* ``sack-red-ecn``   — ECN-enabled SACK over adaptive gentle RED,
* ``vegas``          — TCP Vegas over tail-drop FIFOs,
* ``pert``           — PERT over tail-drop FIFOs (no router support),

and Section 6 adds

* ``pert-pi``        — PERT emulating a PI controller, tail-drop FIFOs,
* ``sack-pi-ecn``    — ECN-enabled SACK over a router PI/ECN queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Type

from ..core.config import PertPiConfig
from ..core.pert import PertSender
from ..core.pert_pi import PertPiSender
from ..fluid.stability import pert_pi_gains
from ..laws import PiResponse
from ..sim.engine import Simulator
from ..sim.queues import QueueConfig, QueueDiscipline, make_queue
from ..tcp.base import TcpSender
from ..tcp.sack import SackEcnSender, SackSender
from ..tcp.vegas import VegasSender

__all__ = [
    "Scheme",
    "SCHEMES",
    "get_scheme",
    "scheme_sender_kwargs",
    "scheme_at",
    "ScenarioPoint",
    "ScenarioSpec",
]


@dataclass
class Scheme:
    """A (sender class, bottleneck queue factory) pairing.

    ``make_qdisc(sim, buffer_pkts, bandwidth_bps, pkt_size, n_flows, rtt)``
    builds the bottleneck queue; access and reverse-path queues are always
    generously sized DropTail (the paper's AQM sits only on the bottleneck).
    """

    name: str
    sender_cls: Type[TcpSender]
    make_qdisc: Callable[..., QueueDiscipline]
    sender_kwargs: Dict = field(default_factory=dict)


def _droptail(sim: Simulator, buffer_pkts: int, bandwidth_bps: float,
              pkt_size: int, n_flows: int, rtt: float) -> QueueDiscipline:
    return make_queue(QueueConfig("droptail", capacity_pkts=buffer_pkts))


def _adaptive_red(sim: Simulator, buffer_pkts: int, bandwidth_bps: float,
                  pkt_size: int, n_flows: int, rtt: float) -> QueueDiscipline:
    # Adaptive RED auto-thresholds: min_th from a ~10 ms target delay,
    # bounded to a quarter of the buffer; max_th = 3 * min_th per Floyd
    # et al.'s auto-configuration.
    pkt_rate = bandwidth_bps / (8.0 * pkt_size)
    min_th = max(5.0, min(0.01 * pkt_rate, buffer_pkts / 4.0))
    max_th = 3.0 * min_th
    cfg = QueueConfig(
        "red",
        capacity_pkts=buffer_pkts,
        params=dict(
            min_th=min_th,
            max_th=max_th,
            max_p=0.1,
            gentle=True,
            ecn=True,
            adaptive=True,
            mean_pkt_time=1.0 / pkt_rate,
        ),
    )
    return make_queue(cfg, sim=sim)


def _pi_queue(sim: Simulator, buffer_pkts: int, bandwidth_bps: float,
              pkt_size: int, n_flows: int, rtt: float) -> QueueDiscipline:
    # Gains from the TCP/PI design rule, expressed per packet of queue:
    # reuse Theorem 2's schedule divided by capacity (queue length = C*Tq).
    pkt_rate = bandwidth_bps / (8.0 * pkt_size)
    k, m = pert_pi_gains(capacity=pkt_rate, n_minus=max(1, n_flows // 2),
                         r_plus=max(rtt * 1.5, 0.05))
    sample_hz = 170.0
    law = PiResponse(k, m, delta=1.0 / sample_hz)  # for its bilinear gains
    q_ref = max(1.0, 0.003 * pkt_rate)  # 3 ms target delay
    cfg = QueueConfig(
        "pi",
        capacity_pkts=buffer_pkts,
        params=dict(
            q_ref=q_ref,
            a=law.gamma / pkt_rate,
            b=law.beta / pkt_rate,
            sample_hz=sample_hz,
            ecn=True,
        ),
    )
    return make_queue(cfg, sim=sim)


def _make_pert_pi_kwargs(bandwidth_bps: float, pkt_size: int, n_flows: int,
                         rtt: float) -> Dict:
    pkt_rate = bandwidth_bps / (8.0 * pkt_size)
    k, m = pert_pi_gains(capacity=pkt_rate, n_minus=max(1, n_flows // 2),
                         r_plus=max(rtt * 1.5, 0.05))
    cfg = PertPiConfig(k=k, m=m, target_delay=0.003,
                       delta=max(1e-4, n_flows / pkt_rate))
    return {"config": cfg}


SCHEMES: Dict[str, Scheme] = {
    "sack-droptail": Scheme("sack-droptail", SackSender, _droptail),
    "sack-red-ecn": Scheme("sack-red-ecn", SackEcnSender, _adaptive_red),
    "vegas": Scheme("vegas", VegasSender, _droptail),
    "pert": Scheme("pert", PertSender, _droptail),
    "pert-pi": Scheme("pert-pi", PertPiSender, _droptail),
    "sack-pi-ecn": Scheme("sack-pi-ecn", SackEcnSender, _pi_queue),
}


def get_scheme(name: str) -> Scheme:
    """Look up a scheme by name; raises KeyError with the valid names."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(f"unknown scheme {name!r}; valid: {sorted(SCHEMES)}") from None


def scheme_sender_kwargs(scheme: Scheme, bandwidth_bps: float, pkt_size: int,
                         n_flows: int, rtt: float) -> Dict:
    """Per-run sender kwargs (PERT-PI gains depend on the operating point)."""
    if scheme.sender_cls is PertPiSender:
        kw = dict(scheme.sender_kwargs)
        kw.update(_make_pert_pi_kwargs(bandwidth_bps, pkt_size, n_flows, rtt))
        return kw
    return dict(scheme.sender_kwargs)


def scheme_at(name: str, bandwidth_bps: float, pkt_size: int, n_flows: int,
              rtt: float):
    """Scheme *name* at an operating point, as ``(qdisc, flow_kwargs)``.

    The PI gains, at the router or the end host, depend on these four
    numbers, so a run binds them once.  ``qdisc(sim, buffer_pkts[,
    n_flows])`` builds a bottleneck queue (for a direction carrying
    another flow count, if given); *flow_kwargs* — sender class, packet
    size, sender kwargs — go to ``start_long_flows`` / ``start_web_sessions``.
    """
    scheme = get_scheme(name)

    def qdisc(sim: Simulator, buffer_pkts: int, n_flows: int = n_flows):
        return scheme.make_qdisc(sim, buffer_pkts, bandwidth_bps, pkt_size,
                                 n_flows, rtt)

    return qdisc, dict(
        sender_cls=scheme.sender_cls, pkt_size=pkt_size,
        **scheme_sender_kwargs(scheme, bandwidth_bps, pkt_size, n_flows, rtt))


# ---------------------------------------------------------------------------
# Declarative scenario specs (the Section 4 figure sweeps)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioPoint:
    """One sweep point of a scenario.

    ``overrides`` are :func:`repro.experiments.common.run_dumbbell`
    keyword overrides for this point; ``tags`` are the row columns that
    identify the point in the result table.  Keeping them separate lets
    a point carry derived run parameters (e.g. Figure 7's per-RTT
    duration) without those leaking into the reported rows.
    """

    overrides: Mapping[str, Any]
    tags: Mapping[str, Any]


@dataclass
class ScenarioSpec:
    """Declarative description of one figure-style dumbbell sweep.

    A spec holds what the sweep *is*: the shared topology/traffic
    parameters (``base``), the sweep points and the schemes to overlay.
    (What the figure is *called* and how it is reported — title, columns,
    the paper's expectation — is stated by the figure module; see
    :mod:`repro.experiments.figures`.)  :meth:`run` expands the grid
    through :func:`repro.experiments.sweep.sweep_dumbbell`, which
    supplies process fan-out, caching and crash isolation; rows come
    back in point-major, scheme-minor order, exactly as the historical
    hand-rolled loops produced them.
    """

    points: List[ScenarioPoint]
    #: ``None`` means the Section 4 comparison set
    schemes: Optional[Sequence[str]] = None
    #: shared ``run_dumbbell`` keyword arguments
    base: Dict[str, Any] = field(default_factory=dict)

    def kwargs_for(self, point: ScenarioPoint) -> Dict[str, Any]:
        """Full ``run_dumbbell`` kwargs for *point* (base + overrides)."""
        return {**self.base, **point.overrides}

    def resolved_schemes(self) -> Sequence[str]:
        if self.schemes is not None:
            return tuple(self.schemes)
        from .sweep import SECTION4_SCHEMES  # local: avoids an import cycle
        return SECTION4_SCHEMES

    def run(
        self,
        *,
        workers: Optional[int] = None,
        cache=None,
        timeout: Optional[float] = None,
        retries: int = 1,
        progress=None,
        fleet=None,
    ) -> List[Dict]:
        """Run every scheme at every point; returns flattened table rows.

        ``fleet`` routes execution through a crash-safe :mod:`repro.fleet`
        directory (path, ``Fleet`` instance, or ``None`` to consult
        ``$REPRO_FLEET``) — see :func:`sweep_dumbbell`.
        """
        from .sweep import sweep_dumbbell  # local: avoids an import cycle

        return sweep_dumbbell(
            [dict(p.overrides) for p in self.points],
            schemes=self.resolved_schemes(),
            tags=[dict(p.tags) for p in self.points],
            workers=workers,
            cache=cache,
            timeout=timeout,
            retries=retries,
            progress=progress,
            fleet=fleet,
            **self.base,
        )
