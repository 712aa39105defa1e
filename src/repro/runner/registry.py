"""Job-kind registry: names that worker processes resolve to callables.

A job function takes the spec's ``params`` dict and returns a
JSON-serializable payload.  Two resolution mechanisms:

* registered kinds — functions registered via :func:`register`; the one
  built-in is ``dumbbell`` (importable from any worker, including
  spawn-start children, because registration happens at import time of
  ``repro.runner.registry``);
* dotted paths — a kind containing ``:`` is resolved as
  ``"package.module:function"``.  Every other packet figure point (the
  parking lot, the staircase, the CBR squeeze, the Section 2 traces, the
  ablations) is one, as are the jobs tests and downstream code bring,
  without touching the registry.

Runtime registrations made by the parent after import are visible to
fork-start workers (the default on Linux) but not to spawn-start ones;
dotted paths work everywhere.

The contract a job signs: its payload is a function of ``params`` and
nothing else.  Attempts share processes — ``workers=0`` runs them all in
the caller's, ``workers=N`` runs each worker's one after another in a
process that is replaced only after a failed attempt — and nothing is
reset in between, so a job must not read process state another job can
write (``os.environ``, the working directory, module globals, the
``random`` module's stream) and should leave that state as it found it.
Every kind in this package keeps to it, which is why rows are identical
at any worker count and in any order
(``tests/runner/test_equivalence.py``, and after a job that breaks the
contract, ``tests/runner/test_faults.py``).
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict

__all__ = ["register", "resolve_job", "registered_kinds"]

_REGISTRY: Dict[str, Callable[[dict], Any]] = {}


def register(kind: str) -> Callable:
    """Decorator: make *fn* invokable as job kind *kind*."""

    def deco(fn: Callable[[dict], Any]) -> Callable[[dict], Any]:
        _REGISTRY[kind] = fn
        return fn

    return deco


def registered_kinds():
    """Snapshot of the registered kind names (for introspection/tests)."""
    return sorted(_REGISTRY)


def resolve_job(kind: str) -> Callable[[dict], Any]:
    """Map a spec ``kind`` to its callable; raises ``KeyError`` if unknown."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        pass
    if ":" in kind:
        module_name, attr = kind.split(":", 1)
        module = importlib.import_module(module_name)
        try:
            return getattr(module, attr)
        except AttributeError:
            raise KeyError(f"no attribute {attr!r} in module {module_name!r}") from None
    raise KeyError(
        f"unknown job kind {kind!r}; registered: {registered_kinds()} "
        f"(or use a 'module:function' dotted path)"
    )


@register("dumbbell")
def run_dumbbell_job(params: dict) -> Dict[str, Any]:
    """One dumbbell point: flatten the result dataclass to a JSON dict."""
    from ..experiments.common import run_dumbbell

    return run_dumbbell(**params).payload()

