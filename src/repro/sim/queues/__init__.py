"""Queue disciplines: DropTail, RED (gentle/adaptive, ECN), and PI AQM.

Configuration-driven code builds disciplines through :func:`make_queue`
with a :class:`QueueConfig`; the per-class constructors are public too.
"""

from .base import QueueDiscipline, QueueStats
from .config import DISCIPLINES, QueueConfig, make_queue
from .droptail import DropTailQueue
from .pi import PiQueue
from .red import RedQueue

__all__ = [
    "QueueDiscipline",
    "QueueStats",
    "QueueConfig",
    "make_queue",
    "DISCIPLINES",
    "DropTailQueue",
    "RedQueue",
    "PiQueue",
]
