"""Hybrid fluid–packet engine: a fluid ensemble stands in for most flows.

The packet simulator reproduces the paper's figures faithfully but its
event count grows with the number of flows; the fluid models of Section
5 capture the *aggregate* behaviour of a PERT or TCP ensemble at a cost
independent of N.  This package couples the two: a fluid model supplies
the aggregate background arrival rate at the bottleneck while a handful
of packet-level foreground flows experience the resulting queue.  The
``hybrid`` validation figure checks the coupling against pure packet
runs of the same flow counts.

The coupling is one-directional and deterministic: the fluid model is
fast-forwarded up front to its settled sending rate, which a
:class:`BackgroundSource` injects through the ordinary event engine — so
seeded runs stay reproducible, snapshots keep working, and a zero-share
background degenerates to exactly the pure packet run.

Entry points:

* ``run_dumbbell(..., background=...)`` — the dumbbell harness accepts a
  :class:`BackgroundLoad` (or its dict form) and injects the fluid
  ensemble at the bottleneck;
* :func:`fluid_fast_forward` — integrate a model to steady state so the
  background enters settled at t = 0.
"""

from .background import BackgroundLoad, BackgroundSink, BackgroundSource, attach_background
from .fastforward import FluidSteadyState, fluid_fast_forward

__all__ = [
    "BackgroundLoad",
    "BackgroundSource",
    "BackgroundSink",
    "attach_background",
    "FluidSteadyState",
    "fluid_fast_forward",
]
