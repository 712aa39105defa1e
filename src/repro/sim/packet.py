"""Packet model.

Packets carry just enough header state for the experiments in the paper:
sequence numbers at *packet granularity* (as in ns-2's TCP agents), SACK
blocks, and the four ECN-related bits (ECT, CE on data packets; ECE, CWR on
the TCP header).  Sizes are in bytes and only matter for serialization
delay and queue byte-counts.
"""

from __future__ import annotations

import numbers
from typing import Any, List, Optional, Tuple

__all__ = ["Packet", "DATA_SIZE", "ACK_SIZE", "check_positive_int"]

DATA_SIZE = 1000  #: default data packet size in bytes (paper uses 1000-1250)
ACK_SIZE = 40  #: pure-ACK size in bytes

#: shared default for packets with no SACK information.  Never mutated —
#: receivers build fresh block lists; everything else only iterates.
_NO_SACK: List[Tuple[int, int]] = []


def check_positive_int(name: str, value: Any) -> None:
    """Reject a packet count or byte size that is not a positive integer."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < 1):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


class Packet:
    """A simulated packet.

    Attributes
    ----------
    flow_id:
        Identifier of the flow this packet belongs to.  ACKs carry the
        same ``flow_id`` as the data they acknowledge.
    seq:
        Data sequence number in packets; ``-1`` for pure ACKs.
    ack_seq:
        Cumulative ACK: the next in-order packet expected by the receiver
        (only meaningful when ``is_ack``).
    sack_blocks:
        Up to three ``(start, end)`` half-open packet ranges received above
        the cumulative ACK.
    ect / ce:
        ECN-Capable-Transport and Congestion-Experienced bits of the IP
        header.  AQM queues mark ``ce`` instead of dropping when ``ect``.
    ece / cwr:
        TCP-header echo bits: the receiver sets ``ece`` on ACKs until the
        sender's ``cwr`` arrives.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size",
        "seq",
        "is_ack",
        "ack_seq",
        "sack_blocks",
        "ect",
        "ce",
        "ece",
        "cwr",
        "is_retransmit",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size: int = DATA_SIZE,
        seq: int = -1,
        is_ack: bool = False,
        ack_seq: int = -1,
        sack_blocks: Optional[List[Tuple[int, int]]] = None,
        ect: bool = False,
    ):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.seq = seq
        self.is_ack = is_ack
        self.ack_seq = ack_seq
        self.sack_blocks = sack_blocks if sack_blocks is not None else _NO_SACK
        self.ect = ect
        self.ce = False
        self.ece = False
        self.cwr = False
        self.is_retransmit = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_ack:
            return (
                f"<ACK flow={self.flow_id} ack={self.ack_seq} "
                f"sack={self.sack_blocks} ece={int(self.ece)}>"
            )
        return (
            f"<DATA flow={self.flow_id} seq={self.seq} size={self.size} "
            f"ce={int(self.ce)} rtx={int(self.is_retransmit)}>"
        )
