"""PERT: Probabilistic Early Response TCP (the paper's contribution).

PERT is a SACK TCP sender with one addition: on every incoming ACK it

1. updates the ``srtt_0.99`` smoothed-RTT signal,
2. converts it to a queuing-delay estimate (srtt minus the minimum
   observed RTT, the propagation-delay proxy),
3. feeds the estimate to a control law from :mod:`repro.laws` — the
   gentle-RED curve (Section 3) or a PI controller sampled once per ACK
   (Section 6, δ ≈ N/C) — and
4. with the law's probability — and at most once per RTT —
   multiplicatively reduces the congestion window by 35 %
   (``cwnd *= 0.65``), emulating what an ECN mark from a router running
   that law would have caused.

Packet losses are handled exactly as in SACK TCP (fast retransmit /
recovery), so PERT degrades gracefully when prediction fails.
"""

from __future__ import annotations

from typing import Optional, Type

from ..sim.packet import Packet
from ..tcp.base import TcpSender
from .config import PertConfig, PertSenderConfig
from .srtt import EwmaRtt

__all__ = ["PertSender"]


class PertSender(TcpSender):
    """PERT sender emulating an AQM law at the end host.

    Parameters beyond :class:`~repro.tcp.base.TcpSender`'s are supplied
    via a config from :mod:`repro.core.config`, which also names the law:
    a :class:`PertConfig` (the default here) emulates gentle RED/ECN, a
    :class:`PertPiConfig` a PI router.
    """

    config_cls: Type[PertSenderConfig] = PertConfig

    def __init__(self, *args, config: Optional[PertSenderConfig] = None,
                 **kwargs):
        kwargs.setdefault("ecn", False)  # PERT needs no router support
        super().__init__(*args, **kwargs)
        self.config = config or self.config_cls()
        self.config.validate()
        law = self.config.law()
        #: the law sits in the slot that says how to drive it, the other
        #: is ``None``: a stateless *curve* is evaluated through
        #: ``probability(signal)``, a stateful *controller* is stepped
        #: through ``update(signal)``; either may be swapped by attribute
        self.curve, self.controller = (
            (None, law) if hasattr(law, "update") else (law, None))
        self.signal = EwmaRtt(weight=self.config.srtt_weight)
        self._last_early_response = -1e9
        self.early_responses = 0

    # ------------------------------------------------------------------
    def on_ack(self, pkt: Packet, rtt_sample: Optional[float]) -> None:
        if rtt_sample is None:
            return
        self.signal.update(rtt_sample)
        controller = self.controller
        if controller is None:
            prob = self.curve.probability(self.signal.queuing_delay)
        else:
            prob = controller.update(self.signal.queuing_delay)
        if self.obs is not None:
            self.obs.sender_signal(self, self.sim.now, prob)
        if prob <= 0.0:
            return
        if self.in_recovery:
            # Loss recovery already reduced the window; early response on
            # top of it would double-penalise the flow.
            return
        srtt = self.signal.value if self.signal.value is not None else self.rto
        spacing = self.config.min_response_interval_rtts * srtt
        if self.sim.now - self._last_early_response < spacing:
            return
        if self.rng.random() < prob:
            self._early_response(prob)

    def _early_response(self, prob: float) -> None:
        """Multiplicative early decrease (paper: 35 %), no retransmission;
        *prob* is the law's output being answered (recorded, not used)."""
        self._last_early_response = self.sim.now
        self.early_responses += 1
        factor = 1.0 - self.config.early_decrease
        cwnd = self.cwnd
        self.cwnd = max(2.0, cwnd * factor)
        self.ssthresh = max(2.0, self.cwnd)
        if self.obs is not None:
            self.obs.sender_event(self, "early_response", self.sim.now, cwnd, prob)
