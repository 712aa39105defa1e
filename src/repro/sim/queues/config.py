"""Unified queue-discipline construction: ``QueueConfig`` + ``make_queue``.

Historically every discipline had its own keyword constructor with
slightly different conventions (``RedQueue`` takes ``rng`` but not
``sim``; ``PiQueue`` takes both; ``DropTailQueue`` takes
neither), so call sites had to special-case each class.  This module
replaces that with one declarative shape:

>>> cfg = QueueConfig("red", capacity_pkts=120,
...                   params=dict(min_th=10, max_th=30, adaptive=True))
>>> q = make_queue(cfg, sim=sim)

``make_queue`` handles the per-class differences:

* a seeded RNG is derived from *sim* when the discipline needs one and
  no explicit ``rng`` is given, claiming the same per-discipline stream
  labels (``"red"``, ``"pi"``, with ``unique=True``) the old
  hand-rolled factories used — fixed-seed runs are bit-identical across
  the old and new construction paths;
* *sim* is forwarded to disciplines that self-schedule periodic work
  (PI's controller ticks);
* unknown disciplines and parameters are rejected eagerly, at
  :class:`QueueConfig` construction time, with the valid names listed,
  and so is a capacity that is not a positive integer.

Direct constructor calls (``RedQueue(...)``) work too; ``make_queue`` is
the entry point for anything driven by configuration.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Type

from ..engine import Simulator
from ..packet import check_positive_int
from .base import QueueDiscipline
from .droptail import DropTailQueue
from .pi import PiQueue
from .red import RedQueue

__all__ = ["QueueConfig", "make_queue", "DISCIPLINES"]

#: discipline name -> implementing class
DISCIPLINES: Dict[str, Type[QueueDiscipline]] = {
    "droptail": DropTailQueue,
    "red": RedQueue,
    "pi": PiQueue,
}

#: RNG stream label claimed (``unique=True``) when deriving the stream
#: from ``sim`` — must match the labels the legacy experiment factories
#: used, or fixed-seed goldens would shift.
_STREAM_LABELS = {"red": "red", "pi": "pi"}


def _allowed_params(cls: Type[QueueDiscipline]) -> Dict[str, inspect.Parameter]:
    """Constructor keywords settable through ``QueueConfig.params``."""
    sig = inspect.signature(cls.__init__)
    reserved = {"self", "capacity_pkts", "sim", "rng"}
    return {n: p for n, p in sig.parameters.items() if n not in reserved}


@dataclass(frozen=True)
class QueueConfig:
    """Declarative description of one queue discipline instance.

    Parameters
    ----------
    discipline:
        One of :data:`DISCIPLINES` (``"droptail"``, ``"red"``, ``"pi"``).
    capacity_pkts:
        Physical buffer size in packets (every discipline has one), a
        positive integer.
    params:
        Discipline-specific knobs, validated against the implementing
        class's constructor signature at config-construction time.
    """

    discipline: str
    capacity_pkts: int = 100
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cls = DISCIPLINES.get(self.discipline)
        if cls is None:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; "
                f"valid: {sorted(DISCIPLINES)}"
            )
        allowed = _allowed_params(cls)
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for discipline "
                f"{self.discipline!r}; valid: {sorted(allowed)}"
            )
        check_positive_int("capacity_pkts", self.capacity_pkts)
        # freeze the param mapping so configs are safely shareable
        object.__setattr__(self, "params", dict(self.params))


def make_queue(
    config: QueueConfig,
    sim: Optional[Simulator] = None,
    rng: Optional[random.Random] = None,
) -> QueueDiscipline:
    """Build the queue discipline described by *config*.

    When the discipline consumes randomness and *rng* is not given, a
    stream is derived from *sim* (label per :data:`_STREAM_LABELS`,
    ``unique=True`` so multiple queues per simulation coexist); with
    neither *sim* nor *rng* the class's fixed default seed applies.
    Disciplines that self-schedule periodic controller updates receive
    *sim* and attach themselves.
    """
    cls = DISCIPLINES[config.discipline]
    sig = inspect.signature(cls.__init__).parameters
    kwargs: Dict[str, Any] = dict(config.params)
    if "rng" in sig:
        if rng is None and sim is not None:
            rng = sim.stream(_STREAM_LABELS[config.discipline], unique=True)
        if rng is not None:
            kwargs["rng"] = rng
    if "sim" in sig and sim is not None:
        kwargs["sim"] = sim
    return cls(config.capacity_pkts, **kwargs)
