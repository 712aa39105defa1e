"""What is left of the deleted compiled tier (see docs/PERFORMANCE.md, PR 17)."""

from typing import Optional

__all__ = ["active_tier"]


def active_tier() -> Optional[str]:
    """Always ``None``: there is one engine, in pure Python.

    Kept for ``benchmarks/e2e`` (read-only for ordinary PRs), which stamps
    it into its result header; goes when a ``benchmark`` PR drops the field.
    """
    return None
