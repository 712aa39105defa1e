"""Shared experiment harness: one phased packet run, whatever the topology.

The paper's evaluation is one methodology on several topologies: build
the network, start long-term flows (plus web sessions, a CBR
source...), run past a warm-up period and measure over the
steady-state window only.  A *scenario* states what differs — a
``build(params, sim)`` function that lays out topology and traffic and
returns a :class:`PacketRun` naming the measured links and flows — and
:func:`run_scenario` is the one shell every scenario runs in:

    resolve -> build -> warm -> measure -> result

The shell owns the only ``Simulator(...)`` call, the profiler /
heartbeat / collector attachment and the phase timings.  A ``build`` is
a pure function of *params* (construction order fixes RNG draws and
event sequence numbers) and finds ``seed`` / ``warmup`` / ``duration``
among them, so a run is a deterministic function of its job spec: a
failed attempt is retried from the spec, never resumed mid-run.
docs/ARCHITECTURE.md has the table of scenarios.
"""

from __future__ import annotations

import inspect
import itertools
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence

from ..metrics.fairness import jain_index
from ..obs import runtime as obs_runtime
from ..obs.collect import Collector
from ..obs.records import select
from ..sim.engine import Simulator
from ..sim.monitors import LinkWindow, QueueSampler
from ..sim.topology import Dumbbell, make_topology
from ..traffic.ftp import start_long_flows
from ..traffic.web import start_web_sessions
from .scenarios import get_scheme, scheme_at

__all__ = [
    "DumbbellResult",
    "run_dumbbell",
    "access_delays_for_rtts",
    "bdp_packets",
    "paper_buffer_pkts",
    "MeasuredLink",
    "PacketRun",
    "run_scenario",
    "scheme_dumbbell",
]

#: queue-length sampling periods (seconds): for the steady-state mean, and
#: for tagged-flow runs, whose analysis reads the queue at single ACK instants
QUEUE_SAMPLE = 0.02
TAGGED_QUEUE_SAMPLE = 0.005


def bdp_packets(bandwidth_bps: float, rtt: float, pkt_size: int) -> int:
    """Bandwidth-delay product in packets (at least 1)."""
    return max(1, int(round(bandwidth_bps * rtt / (8.0 * pkt_size))))


def paper_buffer_pkts(bandwidth_bps: float, rtt: float, pkt_size: int,
                      n_flows: int) -> int:
    """The paper's buffer rule: one bandwidth-delay product, with a floor
    of two packets per flow (and of eight packets)."""
    return max(bdp_packets(bandwidth_bps, rtt, pkt_size), 2 * n_flows, 8)


def access_delays_for_rtts(
    rtts: List[float], bottleneck_delay: float
) -> List[float]:
    """Per-host access delay so flow i's two-way propagation is rtts[i].

    One-way path = access + bottleneck + access, with the two access
    links sharing the remaining budget equally.
    """
    delays = []
    for rtt in rtts:
        residual = rtt / 2.0 - bottleneck_delay
        if residual <= 0:
            raise ValueError(
                f"rtt {rtt} too small for bottleneck delay {bottleneck_delay}"
            )
        delays.append(residual / 2.0)
    return delays


def bound_params(fn, *args, **kwargs) -> Dict[str, Any]:
    """*fn*'s parameters as this call would bind them, defaults filled in
    (so code resolving a call it does not make retypes no default)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def delivered_bytes(flows, pkt_size: int) -> int:
    """Bytes delivered in order to *flows*' sinks: a counter for
    :class:`~repro.sim.monitors.ThroughputSampler` (via ``partial``)."""
    return sum(sink.rcv_next for _, sink in flows) * pkt_size


# ----------------------------------------------------------------------
# the shell: what every packet scenario runs in
# ----------------------------------------------------------------------
class MeasuredLink:
    """One link's steady-state measurement, as the paper takes it: a
    :class:`LinkWindow` (utilization, drop and mark rates), the queue
    sampled every *sample_interval* seconds and the goodput of the
    *flows* crossing it, over the window the shell opens at ``warmup``
    and closes at ``duration``."""

    def __init__(self, sim: Simulator, label: str, link, flows, sample_interval):
        self.label, self.link, self.flows = label, link, flows
        self.window = LinkWindow(sim, link)
        self.sampler = QueueSampler(sim, link.qdisc, interval=sample_interval)
        #: each flow's delivered count when the window opened
        self.goodput0: Optional[List[int]] = None

    def metrics(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The headline metrics over the closed window, from the run's
        ``warmup`` / ``duration`` / ``pkt_size`` / ``buffer_pkts``."""
        start, end = params["warmup"], params["duration"]
        goodputs = [
            (sink.rcv_next - g0) * params["pkt_size"] * 8.0 / (end - start)
            for (_, sink), g0 in zip(self.flows, self.goodput0)
        ]
        mean_q = self.sampler.mean(start=start, end=end)
        return dict(
            mean_queue_pkts=mean_q,
            norm_queue=mean_q / params["buffer_pkts"],
            drop_rate=self.window.drop_rate,
            mark_rate=self.window.mark_rate,
            utilization=self.window.utilization,
            jain=jain_index(goodputs) if goodputs else 0.0,
            flow_goodputs_bps=goodputs,
        )


class PacketRun:
    """One packet run: what a scenario's ``build(params, sim)`` returns and
    the shell carries between phases.

    ``links`` are the :class:`MeasuredLink` s (a collector observes their
    queue and transmitter), ``senders`` every long-lived sender (observed
    per flow), ``observed`` further ``label -> link`` pairs whose queue a
    collector sees; ``recorded`` names those of them — links and senders —
    whose trace records the scenario's *result* reads, so the shell sees
    to it that ``recorder`` keeps them (a recorded sender is tagged:
    every ACK).  Whatever else the result function reads rides along as
    attributes.  The shell adds ``recorder``.
    """

    def __init__(self, params: Dict[str, Any], sim: Simulator, links=(),
                 senders=(), observed=None, recorded=(), **parts: Any):
        self.params, self.sim = params, sim
        self.links, self.senders = list(links), list(senders)
        self.observed = dict(observed or {})
        self.recorded = list(recorded)
        self.recorder = None
        self.__dict__.update(parts)

    def payload(self, **fields: Any) -> Dict[str, Any]:
        """A runner-job payload: *fields* plus the event count every job
        reports (``--progress`` events/s, ``job_finished``, the entry's
        ``meta``)."""
        return dict(fields, events_processed=self.sim.events_processed)


def run_scenario(build, params: Dict[str, Any], collector=None) -> PacketRun:
    """Run *build*'s scenario at the resolved *params* through the phases;
    returns the finished run for the scenario's result function.

    *collector*: a :class:`repro.obs.Collector`; ``None`` uses the active
    job observation's (if the runner enabled one), ``False`` forces
    observability off.  Attachment is passive — results are identical
    either way.  A scenario whose result reads records
    (``PacketRun.recorded``) gets them from that collector when it
    traces, else from a private one on those parts only.
    """
    if collector is None:
        collector = obs_runtime.active_collector()
    elif collector is False:
        collector = None
    t0 = time.monotonic()
    run = _build(build, params, collector)
    active = obs_runtime.active()
    if active is not None:
        active.add_phase("setup", time.monotonic() - t0)
    if params["warmup"] > 0:
        with obs_runtime.phase("warmup"):
            run.sim.run(until=params["warmup"])
    for m in run.links:
        m.window.open()
        m.goodput0 = [sink.rcv_next for _, sink in m.flows]
    with obs_runtime.phase("measure"):
        run.sim.run(until=params["duration"])
    for m in run.links:
        m.window.close()
    if collector is not None:
        collector.finalize(run.sim)
    return run


def _build(build, params: Dict[str, Any], collector) -> PacketRun:
    """Construct the simulator and *build*'s scenario on it."""
    sim = Simulator(seed=params["seed"])
    sim.profiler = obs_runtime.active_profiler()
    obs_runtime.note_simulator(sim)
    run = build(params, sim)
    if run.recorded:
        run.recorder = collector
        if collector is None or collector.records is None:
            # Nothing the job asked for keeps records: a private recorder —
            # in step with the job's metrics-only collector, if there is
            # one, and publishing into its registry, so the job's metrics
            # still cover every part.
            shared = {} if collector is None else dict(
                registry=collector.registry,
                sample_interval=collector.sample_interval)
            run.recorder = Collector(trace=True, trace_packet_events=False,
                                     **shared)

    def observer(part):
        return run.recorder if part in run.recorded else collector

    for m in run.links:
        obs = observer(m.link)
        if obs is not None:
            obs.attach_queue(m.link.qdisc, m.label, bandwidth=m.link.bandwidth)
            obs.attach_link(m.link, m.label)
    for label, link in run.observed.items():
        obs = observer(link)
        if obs is not None:
            obs.attach_queue(link.qdisc, label, bandwidth=link.bandwidth)
    for sender in run.senders:
        obs = observer(sender)
        if obs is not None:
            obs.attach_sender(sender, every_ack=sender in run.recorded)
    return run


def scheme_dumbbell(sim: Simulator, qdisc, buffer_pkts: int, bandwidth: float,
                    flow_rtts: Sequence[float], n_hosts: int, n_rev: int) -> Dumbbell:
    """An *n_hosts*-pair dumbbell with :func:`scheme_at`'s *qdisc* on the
    bottleneck, both ways (the reverse one sized for *n_rev* flows).

    A quarter of the smallest RTT sits on the bottleneck; host pair i's
    access links carry the rest of ``flow_rtts[i]`` (pairs beyond the
    list reuse its first entry).
    """
    bottleneck_delay = min(flow_rtts) / 2.0 * 0.5
    access = access_delays_for_rtts(list(flow_rtts), bottleneck_delay)
    delays = (access + access[:1] * n_hosts)[:n_hosts]
    return make_topology(
        "dumbbell", sim, n_left=n_hosts, n_right=n_hosts,
        bottleneck_bw=bandwidth, bottleneck_delay=bottleneck_delay,
        qdisc_fwd=lambda: qdisc(sim, buffer_pkts),
        qdisc_rev=lambda: qdisc(sim, buffer_pkts, n_rev),
        access_delays_left=delays, access_delays_right=list(delays),
    )


# ----------------------------------------------------------------------
# the dumbbell scenario (Section 4)
# ----------------------------------------------------------------------
@dataclass
class DumbbellResult:
    """Steady-state metrics of one dumbbell run."""

    scheme: str
    bandwidth: float
    rtt: float
    n_fwd: int
    n_rev: int
    web_sessions: int
    buffer_pkts: int
    mean_queue_pkts: float
    norm_queue: float
    drop_rate: float
    mark_rate: float
    utilization: float
    jain: float
    flow_goodputs_bps: List[float] = field(default_factory=list)
    early_responses: int = 0
    timeouts: int = 0
    events_processed: int = 0
    extras: Dict = field(default_factory=dict)

    def payload(self) -> Dict[str, Any]:
        """The JSON-clean ``dumbbell`` job payload: every field but ``extras``."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "extras"}


def run_dumbbell(
    scheme: str,
    bandwidth: float,
    rtt: float = 0.060,
    n_fwd: int = 10,
    n_rev: int = 0,
    web_sessions: int = 0,
    duration: float = 60.0,
    warmup: float = 20.0,
    seed: int = 1,
    pkt_size: int = 1000,
    buffer_pkts: Optional[int] = None,
    rtts: Optional[List[float]] = None,
    start_window: Optional[float] = None,
    record_rtt_flow: Optional[int] = None,
    keep_refs: bool = False,
    collector=None,
) -> DumbbellResult:
    """Run one dumbbell experiment point and return steady-state metrics.

    Parameters
    ----------
    scheme:
        Name from :data:`repro.experiments.scenarios.SCHEMES`.
    bandwidth, rtt:
        Bottleneck bandwidth (bps) and the flows' two-way propagation
        delay (seconds).  ``rtts`` (one per forward flow) overrides
        ``rtt`` for heterogeneous-RTT experiments (Table 1).
    n_fwd, n_rev:
        Long-lived flows in the forward / reverse direction.
    web_sessions:
        Background web sessions sharing the forward bottleneck.
    duration, warmup:
        Total simulated seconds and the measurement-window start.
    buffer_pkts:
        Bottleneck buffer; defaults to the paper's rule (BDP with a floor
        of twice the flow count).
    record_rtt_flow:
        Forward-flow index to tag: its per-ACK RTT samples, its loss
        detections and the bottleneck's drops are read out of the run's
        trace records (``extras["rtt_trace"]``, ``extras["flow_losses"]``,
        ``extras["queue_drops"]``), plus a fine-grained queue sampler in
        ``extras["queue_sampler"]``.
    keep_refs:
        Also return live simulator objects in ``extras`` (for tests).
    collector:
        As for :func:`run_scenario`.
    """
    params = _resolve_params(
        scheme=scheme, bandwidth=bandwidth, rtt=rtt, n_fwd=n_fwd, n_rev=n_rev,
        web_sessions=web_sessions, duration=duration, warmup=warmup, seed=seed,
        pkt_size=pkt_size, buffer_pkts=buffer_pkts, rtts=rtts,
        start_window=start_window, record_rtt_flow=record_rtt_flow,
    )
    return _dumbbell_result(run_scenario(build_dumbbell, params, collector),
                            keep_refs=keep_refs)


def _resolve_params(*, rtt, rtts, **params) -> Dict[str, Any]:
    """Validate and resolve the run parameters into their canonical form.

    *params* are :func:`run_dumbbell`'s other simulation keywords.  The
    resolved dict fully determines the simulation.
    """
    get_scheme(params["scheme"])  # fail fast on unknown names
    n_fwd = params["n_fwd"]
    if rtts is not None and len(rtts) != n_fwd:
        raise ValueError("rtts must have one entry per forward flow")
    flow_rtts = list(rtts) if rtts is not None else [rtt] * max(n_fwd, 1)
    if params["buffer_pkts"] is None:
        # The paper sizes the buffer to the bandwidth-delay product; with
        # heterogeneous RTTs we use the mean RTT as the representative delay.
        params["buffer_pkts"] = paper_buffer_pkts(
            params["bandwidth"], sum(flow_rtts) / len(flow_rtts),
            params["pkt_size"], n_fwd)
    if params["start_window"] is None:
        params["start_window"] = min(5.0, params["warmup"] / 2.0)
    return dict(params, flow_rtts=flow_rtts, base_rtt=min(flow_rtts))


def build_dumbbell(params: Dict[str, Any], sim: Simulator) -> PacketRun:
    """Dumbbell, long flows both ways, web sessions.

    The construction order below is load-bearing: components claim RNG
    streams and event sequence numbers as they are built, so any
    reordering changes the simulation.
    """
    bandwidth, pkt_size = params["bandwidth"], params["pkt_size"]
    n_fwd, n_rev = params["n_fwd"], params["n_rev"]
    start_window = params["start_window"]
    tagged = params["record_rtt_flow"]

    qdisc, flow_kw = scheme_at(params["scheme"], bandwidth, pkt_size, n_fwd,
                               params["base_rtt"])
    n_hosts = max(n_fwd, n_rev, 1) + 1  # +1 pair reserved for web traffic
    db = scheme_dumbbell(sim, qdisc, params["buffer_pkts"], bandwidth,
                         params["flow_rtts"], n_hosts, n_rev)
    flow_ids = itertools.count()
    rng = sim.stream("starts")
    fwd_flows = start_long_flows(
        sim, list(zip(db.left[:n_fwd], db.right)), flow_ids,
        start_window=start_window, rng=rng, **flow_kw)
    rev_flows = start_long_flows(
        sim, list(zip(db.right[:n_rev], db.left)), flow_ids,
        start_window=start_window, rng=rng, **flow_kw)
    if params["web_sessions"] > 0:
        start_web_sessions(
            sim,
            params["web_sessions"],
            server=db.left[n_hosts - 1],
            client=db.right[n_hosts - 1],
            flow_ids=flow_ids,
            rng=sim.stream("web-starts"),
            start_window=start_window,
            **flow_kw,
        )

    bottleneck = MeasuredLink(
        sim, "bottleneck.fwd", db.fwd, fwd_flows,
        QUEUE_SAMPLE if tagged is None else TAGGED_QUEUE_SAMPLE)

    return PacketRun(
        params, sim, links=[bottleneck],
        senders=[s for s, _ in fwd_flows + rev_flows],
        observed={"bottleneck.rev": db.rev},
        recorded=() if tagged is None else (fwd_flows[tagged][0], db.fwd),
        db=db, fwd_flows=fwd_flows, rev_flows=rev_flows,
    )


def _dumbbell_result(run: PacketRun, keep_refs: bool = False) -> DumbbellResult:
    """Compute the steady-state metrics from a measured run."""
    p, bottleneck = run.params, run.links[0]
    result = DumbbellResult(
        rtt=p["base_rtt"],
        **{k: p[k] for k in ("scheme", "bandwidth", "n_fwd", "n_rev",
                             "web_sessions", "buffer_pkts")},
        early_responses=sum(getattr(s, "early_responses", 0) for s in run.senders),
        timeouts=sum(s.timeouts for s in run.senders),
        events_processed=run.sim.events_processed,
        **bottleneck.metrics(p),
    )
    if p["record_rtt_flow"] is not None:
        records = run.recorder.records
        flow = run.fwd_flows[p["record_rtt_flow"]][0].flow_id
        result.extras["rtt_trace"] = [
            (r["t"], r["rtt"], r["cwnd"])
            for r in select(records, "rtt_sample", flow=flow)]
        result.extras["flow_losses"] = [
            r["t"] for r in select(records, "loss", "timeout", flow=flow)]
        result.extras["queue_drops"] = [
            r["t"] for r in select(records, "drop", queue=bottleneck.label)]
        result.extras["queue_sampler"] = bottleneck.sampler
        result.extras["queue_stats"] = run.db.bottleneck_queue.stats
    if keep_refs:
        result.extras["sim"] = run.sim
        result.extras["dumbbell"] = run.db
        result.extras["fwd_flows"] = run.fwd_flows
        result.extras["rev_flows"] = run.rev_flows
    return result
