"""Web object response-time tests: PERT's short queues speed up the web."""

import itertools
import random
from statistics import quantiles

from repro.core.pert import PertSender
from repro.metrics.stats import mean
from repro.sim.engine import Simulator
from repro.tcp.sack import SackSender
from repro.traffic.web import WebSession

from ..conftest import make_dumbbell, make_flow


def run_mixed(long_cls, web_cls, seed=6):
    """4 long flows + 3 web sessions sharing a 8 Mbps DropTail bottleneck."""
    sim = Simulator(seed=seed)
    db = make_dumbbell(sim, n=5, bw=8e6, buffer_pkts=75)
    for i in range(4):
        s, _ = make_flow(sim, db, idx=i, sender_cls=long_cls)
        s.start(at=0.2 * i)
    sessions = []
    fids = itertools.count(5000)
    for j in range(3):
        sess = WebSession(sim, server=db.left[4], client=db.right[4],
                          flow_ids=fids, rng=random.Random(100 + j),
                          sender_cls=web_cls, think_mean=0.4)
        sess.start(at=1.0 + j)
        sessions.append(sess)
    sim.run(until=40.0)
    latencies = [x for s in sessions for x in s.object_latencies]
    return latencies


def test_object_latencies_recorded():
    lat = run_mixed(SackSender, SackSender)
    assert len(lat) > 30
    assert all(x > 0 for x in lat)


def test_pert_improves_web_response_time():
    """Short queues cut the RTT web objects see during slow start."""
    lat_sack = run_mixed(SackSender, SackSender)
    lat_pert = run_mixed(PertSender, PertSender)
    assert mean(lat_pert) < mean(lat_sack)
    p90 = [quantiles(lat, n=10, method="inclusive")[-1]
           for lat in (lat_pert, lat_sack)]
    assert p90[0] < p90[1]
