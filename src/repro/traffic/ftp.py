"""Long-lived ("FTP") flow population helpers.

The paper's background load is a set of long-term flows whose start
times are drawn uniformly from an interval (0-50 s in the paper) so that
late starters exercise the fairness concerns of Section 3.  Every
scenario of :mod:`repro.experiments` starts its long flows here: dumbbell
and parking lot at drawn times, staircase and CBR squeeze on a schedule.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple, Type

from ..sim.engine import Simulator
from ..sim.node import Node
from ..tcp.base import TcpSender, TcpSink, connect_flow

__all__ = ["start_long_flows"]


def start_long_flows(
    sim: Simulator,
    pairs: List[Tuple[Node, Node]],
    flow_ids: Iterator[int],
    sender_cls: Type[TcpSender] = TcpSender,
    start_window: float = 5.0,
    rng: Optional[random.Random] = None,
    start_times: Optional[Sequence[float]] = None,
    **sender_kwargs,
) -> List[Tuple[TcpSender, TcpSink]]:
    """Start one infinite flow per (src, dst) pair.

    Parameters
    ----------
    pairs:
        Source/destination host pairs, one long flow each.
    flow_ids:
        Iterator yielding unique flow ids (share one across all traffic).
    start_window, rng:
        Start times are uniform in [0, start_window), one draw per flow
        in pair order from *rng* (default: the ``"ftp-starts"`` stream).
    start_times:
        A fixed schedule, one time per pair, instead of the draws.
    """
    if start_times is None:
        rng = rng or sim.stream("ftp-starts")
    flows: List[Tuple[TcpSender, TcpSink]] = []
    for idx, (src, dst) in enumerate(pairs):
        fid = next(flow_ids)
        sender, sink = connect_flow(
            sim, src, dst, flow_id=fid, sender_cls=sender_cls, **sender_kwargs)
        sender.start(at=start_times[idx] if start_times is not None
                     else rng.uniform(0.0, start_window))
        flows.append((sender, sink))
    return flows
