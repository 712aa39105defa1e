"""Stdlib HTTP server for the live sweep dashboard.

``python -m repro.serve <run-dir>`` binds a :class:`MonitorServer`
(a ``ThreadingHTTPServer``) whose handler exposes:

==================  ==================================================
``/``               the dashboard page (inline HTML/CSS/JS, no assets)
``/api/runs``       run-level summary + job-state counts + fleet rollup
                    (the journal's ``JobQueue.status`` in a fleet dir)
``/api/jobs``       one JSON record per job key
``/api/metrics``    per-scheme rollup from the cache entries on disk
``/events``         Server-Sent Events stream tailing ``events.jsonl``
==================  ==================================================

The ``/api/*`` routes render one :class:`~repro.obs.rundir.RunView`
fold of the directory, refreshed per request; the SSE stream is the
HTTP layer's own concern (:func:`tail_events`).  Everything is read-only
against the run directory, so the server can safely watch a sweep that
is still executing.  The SSE stream starts at the current end of the bus
file (pass ``?replay=1`` to start from the beginning) and sends a
comment keepalive during idle stretches so proxies do not drop the
connection.  No third-party packages: the whole stack is
``http.server`` + ``json`` + the fold.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple
from urllib.parse import parse_qs, urlparse

from ..obs.bus import JsonlTail
from ..obs.rundir import RunView

__all__ = ["MonitorServer", "DashboardHandler", "make_server",
           "serve_in_background", "tail_events"]

#: ``/api/*`` route -> payload of a freshly refreshed fold
_API = {
    "/api/runs": RunView.runs,
    "/api/jobs": lambda view: {"jobs": view.jobs()},
    "/api/metrics": RunView.metrics,
}


def tail_events(bus_path, from_start: bool = False, poll: float = 0.5,
                stop=None, keepalive_every: float = 15.0):
    """Yield ``(kind, text)`` pairs for an SSE stream, forever.

    *kind* is ``"event"`` (text = one raw JSON line from the bus at
    *bus_path*) or ``"keepalive"``.  Starts at end-of-file unless
    *from_start*; polls every *poll* seconds; *stop* is an optional
    ``threading.Event`` that ends the generator (tests use it — HTTP
    clients just disconnect).  A keepalive is yielded after every
    *keepalive_every* seconds without bus traffic so proxies and slow
    consumers keep idle connections open (tests shrink it to exercise
    the path without waiting 15 real seconds).
    """
    tail = JsonlTail(bus_path)
    if not from_start:
        tail.lines()  # skip what is already there
    idle = 0.0
    while stop is None or not stop.is_set():
        lines = tail.lines()
        for line in lines:
            yield "event", line.decode("utf-8", "replace")
        if lines:
            idle = 0.0
            continue
        time.sleep(poll)
        idle += poll
        if idle >= keepalive_every:
            yield "keepalive", ""
            idle = 0.0


class MonitorServer(ThreadingHTTPServer):
    """Threading HTTP server carrying the shared :class:`RunView`.

    ``daemon_threads`` keeps open SSE connections from blocking process
    exit; :meth:`shutdown` additionally signals long-lived event streams
    so their generator loops end promptly.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], view: RunView,
                 keepalive_every: float = 15.0) -> None:
        """Bind *address* and serve *view*; *keepalive_every* sets the
        idle interval between SSE comment keepalives on ``/events``."""
        super().__init__(address, DashboardHandler)
        self.view = view
        self.stop_event = threading.Event()
        self.keepalive_every = float(keepalive_every)

    def shutdown(self) -> None:
        """Stop serving and unblock any in-flight ``/events`` streams."""
        self.stop_event.set()
        super().shutdown()


class DashboardHandler(BaseHTTPRequestHandler):
    """Routes dashboard and API requests against ``server.view``."""

    server: MonitorServer  # narrowed for attribute access below
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: D102 - stdlib signature
        """Silence per-request logging (the dashboard polls every 2 s)."""

    def do_GET(self) -> None:
        """Dispatch by path; unknown paths get 404 JSON."""
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        view = self.server.view
        if route == "/":
            self._send(200, PAGE_HTML.encode("utf-8"),
                       "text/html; charset=utf-8")
        elif route in _API:
            view.refresh()
            self._send_json(_API[route](view))
        elif route == "/events":
            replay = "replay" in parse_qs(parsed.query)
            self._stream_events(replay)
        else:
            self._send_json({"error": f"unknown path {route!r}"}, status=404)

    # ------------------------------------------------------------------

    def _send(self, status: int, body: bytes, ctype: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _stream_events(self, replay: bool) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        # SSE is open-ended: no Content-Length, so close delimits it.
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            stream = tail_events(
                self.server.view.bus_path, from_start=replay,
                stop=self.server.stop_event,
                keepalive_every=self.server.keepalive_every,
            )
            for kind, text in stream:
                if kind == "event":
                    self.wfile.write(f"data: {text}\n\n".encode("utf-8"))
                else:
                    self.wfile.write(b": keepalive\n\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away; nothing to clean up


def make_server(run_dir, host: str = "127.0.0.1", port: int = 0,
                keepalive_every: float = 15.0) -> MonitorServer:
    """Build a bound (not yet serving) :class:`MonitorServer`.

    ``port=0`` picks a free ephemeral port — read it back from
    ``server.server_address`` (the CI smoke test relies on this).
    """
    return MonitorServer((host, port), RunView(run_dir),
                         keepalive_every=keepalive_every)


def serve_in_background(run_dir, host: str = "127.0.0.1",
                        port: int = 0) -> Tuple[MonitorServer, str]:
    """Start a dashboard server on a daemon thread; return (server, url).

    Used by the experiment CLIs' ``--serve`` flag: the sweep keeps the
    foreground, the dashboard tags along and dies with the process (or
    earlier via ``server.shutdown()``).
    """
    server = make_server(run_dir, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    bound_host, bound_port = server.server_address[:2]
    return server, f"http://{bound_host}:{bound_port}/"


#: The dashboard page. Inline everything (no asset pipeline): CSS
#: custom properties carry the palette in both color schemes, vanilla
#: JS polls the JSON APIs every 2 s and subscribes to ``/events``.
PAGE_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro.serve — live sweep</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11,11,11,0.10);
  --accent: #2a78d6;
  --ok: #0ca30c;
  --warn: #fab219;
  --crit: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --border: rgba(255,255,255,0.10);
    --accent: #3987e5;
  }
}
:root[data-theme="dark"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --text-muted: #898781;
  --grid: #2c2c2a;
  --border: rgba(255,255,255,0.10);
  --accent: #3987e5;
}
body.viz-root {
  margin: 0; padding: 20px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 18px; margin: 0 0 2px; font-weight: 600; }
.sub { color: var(--text-muted); font-size: 12px; margin-bottom: 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 18px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 108px;
}
.tile .v { font-size: 28px; font-weight: 600; }
.tile .k { font-size: 12px; color: var(--text-secondary); }
section { margin-bottom: 22px; }
h2 { font-size: 13px; font-weight: 600; color: var(--text-secondary);
     text-transform: uppercase; letter-spacing: .04em; margin: 0 0 8px; }
table {
  border-collapse: collapse; width: 100%;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; overflow: hidden;
}
th, td { text-align: left; padding: 6px 10px; font-size: 13px;
         border-bottom: 1px solid var(--grid); }
th { color: var(--text-muted); font-weight: 500; font-size: 12px; }
tr:last-child td { border-bottom: 0; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
td.key { font-family: ui-monospace, monospace; font-size: 12px;
         color: var(--text-secondary); }
.chip { display: inline-flex; align-items: center; gap: 6px; }
.chip .dot { width: 8px; height: 8px; border-radius: 50%;
             background: var(--text-muted); }
.chip.done .dot    { background: var(--ok); }
.chip.failed .dot  { background: var(--crit); }
.chip.running .dot { background: var(--accent); }
.chip.retrying .dot{ background: var(--warn); }
.chip.failed   { color: var(--crit); font-weight: 600; }
#log {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 8px 12px; max-height: 260px;
  overflow-y: auto; font-family: ui-monospace, monospace; font-size: 12px;
  color: var(--text-secondary); white-space: pre-wrap;
}
#log .t { color: var(--text-muted); }
.empty { color: var(--text-muted); font-size: 13px; padding: 8px 2px; }
</style>
</head>
<body class="viz-root" data-palette="#2a78d6,#0ca30c,#fab219,#d03b3b">
<h1>repro.serve</h1>
<div class="sub" id="meta">connecting…</div>

<div class="tiles" id="tiles"></div>

<section id="fleetSec" hidden>
  <h2>Fleet queue</h2>
  <div class="tiles" id="fleetTiles"></div>
</section>

<section>
  <h2>Jobs</h2>
  <div id="jobs"></div>
</section>

<section>
  <h2>Per-scheme metrics</h2>
  <div id="metrics"></div>
</section>

<section>
  <h2>Event stream</h2>
  <div id="log"></div>
</section>

<script>
"use strict";
const $ = (id) => document.getElementById(id);
const esc = (s) => String(s).replace(/[&<>"]/g,
  (c) => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const fmt = (v, d=2) =>
  (v === null || v === undefined) ? "–"
  : (typeof v !== "number") ? esc(v)
  : (Math.abs(v) >= 1000) ? v.toLocaleString("en-US", {maximumFractionDigits: 0})
  : v.toLocaleString("en-US", {maximumFractionDigits: d});

function tile(k, v) {
  return `<div class="tile"><div class="v">${fmt(v, 0)}</div>` +
         `<div class="k">${esc(k)}</div></div>`;
}
function chip(state) {
  const s = esc(state || "?");
  return `<span class="chip ${s}"><span class="dot"></span>${s}</span>`;
}
function table(headers, rows, numCols) {
  if (!rows.length) return '<div class="empty">nothing yet</div>';
  const th = headers.map((h, i) =>
    `<th${numCols.has(i) ? ' class="num"' : ""}>${esc(h)}</th>`).join("");
  const trs = rows.map((r) => "<tr>" + r.map((c, i) =>
    `<td class="${numCols.has(i) ? "num" : (i === 0 ? "key" : "")}">${c}</td>`
  ).join("") + "</tr>").join("");
  return `<table><thead><tr>${th}</tr></thead><tbody>${trs}</tbody></table>`;
}

async function poll() {
  try {
    const [runs, jobs, metrics] = await Promise.all([
      fetch("/api/runs").then((r) => r.json()),
      fetch("/api/jobs").then((r) => r.json()),
      fetch("/api/metrics").then((r) => r.json()),
    ]);
    $("meta").textContent =
      runs.run_dir + " — " + runs.event_count + " bus events" +
      (runs.bus_exists ? "" : " (no events.jsonl yet)");
    const c = runs.job_counts;
    $("tiles").innerHTML =
      tile("running", c.running + c.retrying) + tile("done", c.done) +
      tile("failed", c.failed) + tile("cached", c.cached) +
      tile("records", metrics.jobs);
    const fl = runs.fleet;
    $("fleetSec").hidden = !fl;
    if (fl) {
      const q = fl.counts;
      $("fleetTiles").innerHTML =
        tile("pending", q.pending) + tile("leased", q.leased) +
        tile("done", q.done) + tile("failed", q.failed) +
        tile("fresh", fl.computed.fresh) + tile("store hits", fl.computed.hit) +
        tile("requeued", fl.requeues) + tile("workers", fl.workers.length);
    }
    $("jobs").innerHTML = table(
      ["key", "scheme", "seed", "state", "phase", "sim t", "ev/s", "wall s"],
      jobs.jobs.slice(0, 100).map((j) => [
        esc((j.key || "").slice(0, 12)), fmt(j.scheme), fmt(j.seed),
        chip(j.state), fmt(j.phase), fmt(j.sim_now, 1), fmt(j.rate, 0),
        fmt(j.wall_time, 2),
      ]), new Set([5, 6, 7]));
    $("metrics").innerHTML = table(
      ["scheme", "jobs", "events/s", "drop", "norm q", "util", "q delay s"],
      Object.entries(metrics.schemes).map(([name, s]) => [
        esc(name), fmt(s.jobs, 0), fmt(s.events_per_sec, 0),
        fmt(s.drop_rate, 4), fmt(s.norm_queue, 3), fmt(s.utilization, 3),
        fmt(s.queue_delay, 4),
      ]), new Set([1, 2, 3, 4, 5, 6]));
  } catch (e) {
    $("meta").textContent = "poll failed: " + e;
  }
  setTimeout(poll, 2000);
}

function logLine(text) {
  const log = $("log");
  let rec;
  try { rec = JSON.parse(text); } catch (e) { return; }
  const div = document.createElement("div");
  const when = rec.ts ? new Date(rec.ts * 1000).toTimeString().slice(0, 8) : "";
  const key = rec.key ? " " + String(rec.key).slice(0, 12) : "";
  const extra = ["phase", "scheme", "seed", "sim_now", "error"]
    .filter((f) => rec[f] !== undefined && rec[f] !== null)
    .map((f) => f + "=" + rec[f]).join(" ");
  div.innerHTML = `<span class="t">${esc(when)}</span> ${esc(rec.type)}` +
                  `${esc(key)} ${esc(extra)}`;
  log.appendChild(div);
  while (log.childNodes.length > 200) log.removeChild(log.firstChild);
  log.scrollTop = log.scrollHeight;
}

poll();
new EventSource("/events?replay=1").onmessage = (ev) => logLine(ev.data);
</script>
</body>
</html>
"""
