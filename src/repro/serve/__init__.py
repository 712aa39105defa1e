"""Live sweep dashboard: tail a run directory over HTTP.

``python -m repro.serve <run-dir>`` serves a single-page dashboard plus
JSON APIs (``/api/runs``, ``/api/jobs``, ``/api/metrics``) and a
Server-Sent Events stream (``/events``) for a run directory — live while
a sweep executes with ``REPRO_BUS`` on, or after the fact as a forensic
timeline.  Entirely stdlib (``http.server``), entirely read-only against
the run directory.

The pieces:

* :class:`repro.obs.rundir.RunView` — the run directory's one fold:
  cache entries, ``events.jsonl`` (the :mod:`repro.obs.bus` stream) and a
  fleet journal folded into job rows, per-scheme metrics and the fleet
  rollup (``python -m repro.obs report`` / ``diff`` render the same
  fold).
* :class:`repro.serve.app.MonitorServer` / :func:`make_server` /
  :func:`serve_in_background` — the HTTP layer; the experiment CLIs'
  ``--serve`` flag uses the background variant.
"""

from ..obs.rundir import RunView
from .app import MonitorServer, make_server, serve_in_background

__all__ = ["MonitorServer", "RunView", "make_server", "serve_in_background"]
