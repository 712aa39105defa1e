"""Optional compiled backend for the simulation hot core.

This package owns everything about ahead-of-time compilation of the
event engine: discovering a built extension, deciding whether to use it
(the ``REPRO_COMPILED`` knob), and degrading to the pure-Python engine
when nothing is built — silently, because "no extension" is the normal
state of a source checkout, not an error.

Tier
----
One kind of compiled artifact exists, the ``cext`` tier: a hand-written
CPython extension (``repro.compiled._core``) holding C transliterations
of the six hottest ``ArraySimulator`` methods, bound into
:class:`repro.compiled.engine.CompiledSimulator`.  It needs only a C
compiler and the CPython headers — no third-party toolchain — and is
built by ``python -m repro.compiled.build``.

Selection
---------
``REPRO_COMPILED`` (read lazily, so tests can flip it per-instance):

``0``/``off``/``false``/``no``
    Never use a compiled engine, even when one is built.
``1``/``on``/``true``/``yes``/``require``
    Prefer a compiled engine; warn once if none is importable (the
    engine still falls back to pure Python — it never errors).
unset / empty / ``auto``
    Use a compiled engine when one imports cleanly, pure Python
    otherwise, with no message either way.

A *broken* artifact — one that exists but raises something other than
:class:`ModuleNotFoundError` on import — warns once and falls back; a
*missing* artifact is silent unless explicitly requested.

The public surface is tiny on purpose: :func:`engine_class` is what
:func:`repro.sim.engine.get_engine_class` calls, and :func:`status` is
the introspection hook used by benchmarks, the perf guard, and
``python -m repro.compiled.build --status``.
"""

from __future__ import annotations

import importlib
import os
import warnings
from dataclasses import dataclass
from typing import Any, Optional

__all__ = [
    "CoreStatus",
    "engine_class",
    "active_tier",
    "compiled_requested",
    "compiled_disabled",
    "status",
    "reset",
]

_CEXT_TIER = "repro.compiled._core"

_FALSEY = ("0", "off", "false", "no")
_TRUTHY = ("1", "on", "true", "yes", "require")


@dataclass
class CoreStatus:
    """What the one-time extension probe found.

    ``tier`` is ``"cext"`` (hand-written C core) or ``None`` when
    nothing compiled is importable.  ``error`` carries the import failure text
    for a *broken* artifact; a merely missing one leaves it ``None``.
    """

    tier: Optional[str]
    module: Optional[Any]
    error: Optional[str]

    @property
    def available(self) -> bool:
        """True when a compiled artifact imported cleanly."""
        return self.module is not None


_status: Optional[CoreStatus] = None
_warned_broken = False
_warned_missing = False


def _import_tier(modname: str) -> Any:
    """Import the extension module (seam for the fallback tests)."""
    return importlib.import_module(modname)


def _probe() -> CoreStatus:
    """Try the extension once; remember the outcome for the process."""
    global _status, _warned_broken
    if _status is not None:
        return _status
    mod = None
    broken: Optional[str] = None
    try:
        mod = _import_tier(_CEXT_TIER)
    except ModuleNotFoundError:
        pass  # not built — the normal state, stay silent
    except Exception as exc:  # pragma: no cover - exercised via tests
        broken = f"{_CEXT_TIER}: {type(exc).__name__}: {exc}"
    _status = CoreStatus(tier="cext" if mod is not None else None,
                         module=mod, error=broken)
    if broken is not None and not _warned_broken:
        _warned_broken = True
        warnings.warn(
            f"compiled engine extension failed to import ({broken}); "
            f"falling back to the pure-Python engine",
            RuntimeWarning,
            stacklevel=3,
        )
    return _status


def status() -> CoreStatus:
    """Return the (cached) result of the extension probe."""
    return _probe()


def compiled_disabled() -> bool:
    """True when ``REPRO_COMPILED`` explicitly pins pure Python."""
    return os.environ.get("REPRO_COMPILED", "").strip().lower() in _FALSEY


def compiled_requested() -> bool:
    """True when ``REPRO_COMPILED`` explicitly asks for the extension."""
    return os.environ.get("REPRO_COMPILED", "").strip().lower() in _TRUTHY


def engine_class() -> Optional[type]:
    """The compiled engine class to use right now, or ``None`` for pure.

    Combines the knob with the probe: returns ``None`` when
    ``REPRO_COMPILED=0`` or when no artifact is importable (warning once
    if one was explicitly requested), else the engine class backed by
    the extension.
    """
    global _warned_missing
    if compiled_disabled():
        return None
    st = _probe()
    if not st.available:
        if compiled_requested() and not _warned_missing:
            _warned_missing = True
            warnings.warn(
                "REPRO_COMPILED requested a compiled engine but none is "
                "built; falling back to the pure-Python engine "
                "(build one with: python -m repro.compiled.build)",
                RuntimeWarning,
                stacklevel=3,
            )
        return None
    from .engine import CompiledSimulator

    return CompiledSimulator


def active_tier() -> Optional[str]:
    """Tier label of the engine actually in use (``None`` = pure)."""
    return status().tier if engine_class() is not None else None


def reset() -> None:
    """Forget the probe result and warning latches (test hook)."""
    global _status, _warned_broken, _warned_missing
    _status = None
    _warned_broken = False
    _warned_missing = False
