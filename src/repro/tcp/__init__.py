"""TCP substrate: sender/receiver agents and the paper's baseline variants."""

from .base import TcpSender, TcpSink, connect_flow
from .sack import SackEcnSender, SackSender
from .vegas import VegasSender

__all__ = [
    "TcpSender",
    "TcpSink",
    "connect_flow",
    "SackSender",
    "SackEcnSender",
    "VegasSender",
]
