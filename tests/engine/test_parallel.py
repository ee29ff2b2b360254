"""Tests for the conservative-window mapping evaluation."""

import numpy as np
import pytest

from repro.engine.compute import ComputeProfile
from repro.engine.costmodel import CostModel
from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.engine.parallel import evaluate_mapping, lookahead_of
from repro.engine.trace import TraceRecorder
from repro.traffic.http import HttpTraffic


def run_tiny(tiny_routed, n_transfers=40, seed=0):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables, train_packets=4)
    rng = np.random.default_rng(seed)
    hosts = [h.node_id for h in net.hosts()]
    for _ in range(n_transfers):
        src, dst = rng.choice(hosts, size=2, replace=False)
        kern.submit_transfer(
            Transfer(src=int(src), dst=int(dst),
                     nbytes=float(rng.uniform(5e3, 5e4))),
            float(rng.uniform(0, 5)),
        )
    return net, kern.run(until=20.0)


def test_lookahead_min_cut_latency(tiny_network):
    # Split between r1 and r2 (1 ms links): lookahead = 1 ms.
    parts = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    assert lookahead_of(tiny_network, parts) == pytest.approx(1e-3)
    # Cut a host link (0.1 ms): lookahead shrinks.
    parts2 = np.array([0, 0, 1, 1, 1, 0, 1, 1])
    assert lookahead_of(tiny_network, parts2) == pytest.approx(1e-4)


def test_lookahead_no_cut_is_infinite(tiny_network):
    assert lookahead_of(tiny_network, np.zeros(8)) == np.inf


def test_lookahead_floor(tiny_network):
    parts2 = np.array([0, 0, 1, 1, 1, 0, 1, 1])
    assert lookahead_of(tiny_network, parts2, min_lookahead=5e-4) == 5e-4


def test_loads_conserved_across_mappings(tiny_routed):
    """Total packet load is mapping-independent (work conservation)."""
    net, trace = run_tiny(tiny_routed)
    m1 = evaluate_mapping(trace, net, np.zeros(net.n_nodes, dtype=int))
    parts = (np.arange(net.n_nodes) % 2).astype(np.int64)
    m2 = evaluate_mapping(trace, net, parts)
    assert m1.loads.sum() == pytest.approx(m2.loads.sum())
    assert m2.total_packets == m1.total_packets


def test_k1_serial_baseline(tiny_routed):
    net, trace = run_tiny(tiny_routed)
    m = evaluate_mapping(trace, net, np.zeros(net.n_nodes, dtype=int))
    assert m.load_imbalance == 0.0
    assert m.remote_packets == 0
    assert m.n_windows == 1
    assert m.wall_network == pytest.approx(m.serial_work)


def test_remote_events_counted(tiny_routed):
    net, trace = run_tiny(tiny_routed)
    parts = (np.arange(net.n_nodes) % 2).astype(np.int64)
    m = evaluate_mapping(trace, net, parts)
    assert m.remote_trains > 0
    assert m.remote_packets >= m.remote_trains


def test_remote_costs_increase_wall(tiny_routed):
    net, trace = run_tiny(tiny_routed)
    parts = (np.arange(net.n_nodes) % 2).astype(np.int64)
    cheap = CostModel(remote_event_cost=0.0)
    dear = CostModel(remote_event_cost=1e-3)
    m_cheap = evaluate_mapping(trace, net, parts, cost=cheap)
    m_dear = evaluate_mapping(trace, net, parts, cost=dear)
    assert m_dear.wall_network > m_cheap.wall_network


def test_sync_cost_scales_with_active_windows(tiny_routed):
    net, trace = run_tiny(tiny_routed)
    parts = (np.arange(net.n_nodes) % 2).astype(np.int64)
    no_sync = CostModel(sync_cost_base=0.0, sync_cost_per_lp=0.0)
    with_sync = CostModel(sync_cost_base=1e-4, sync_cost_per_lp=0.0)
    m0 = evaluate_mapping(trace, net, parts, cost=no_sync)
    m1 = evaluate_mapping(trace, net, parts, cost=with_sync)
    expected = m0.wall_network + m0.n_active_windows * 1e-4
    assert m1.wall_network == pytest.approx(expected)


def test_balanced_mapping_beats_skewed(tiny_routed):
    """A mapping concentrating all load on one LP has worse imbalance and
    no better wall time than the natural split."""
    net, trace = run_tiny(tiny_routed, n_transfers=80)
    natural = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    skewed = np.zeros(net.n_nodes, dtype=np.int64)
    skewed[-1] = 1  # one host alone on LP 1
    m_nat = evaluate_mapping(trace, net, natural)
    m_skew = evaluate_mapping(trace, net, skewed)
    assert m_nat.load_imbalance < m_skew.load_imbalance


def test_replay_reproduces_event_trace(tiny_routed, rng):
    """Figs. 9/10's isolated network emulation time is the evaluation trace
    scored without compute: injecting the recorded transfers open loop into
    a fresh kernel (the paper's as-fast-as-possible replay) scores the same."""
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables, train_packets=8)
    HttpTraffic(request_size=30e3, think_time=2.0, n_servers=1,
                clients_per_server=2, duration=24.0).install(kern, rng)
    original = kern.run(until=30.0)
    log = sorted(kern.transfer_log)
    fresh = EmulationKernel(net, tables, train_packets=8)
    fresh.submit_transfers(
        [Transfer(src=s, dst=d, nbytes=b, flow_id=f, tag=tag)
         for _, s, d, b, f, tag in log],
        [row[0] for row in log],
    )
    parts = (np.arange(net.n_nodes) % 2).astype(np.int64)
    direct = evaluate_mapping(original, net, parts, compute=None)
    replayed = evaluate_mapping(fresh.run(until=30.0), net, parts, compute=None)
    assert replayed.total_packets == direct.total_packets > 0
    assert np.allclose(replayed.loads, direct.loads)
    assert replayed.wall_network == pytest.approx(direct.wall_network, rel=1e-9)


def test_compute_profile_serializes_when_dominant(tiny_routed):
    net, trace = run_tiny(tiny_routed)
    parts = (np.arange(net.n_nodes) % 2).astype(np.int64)
    heavy = ComputeProfile.constant(1.0, trace.duration)
    m = evaluate_mapping(trace, net, parts, compute=heavy)
    assert m.wall_app >= heavy.total
    m0 = evaluate_mapping(trace, net, parts, compute=None)
    assert m.wall_app >= m0.wall_network


def test_empty_trace():
    rec = TraceRecorder(n_nodes=2)
    trace = rec.finish(duration=1.0)

    from repro.topology.elements import Mbps, ms
    from repro.topology.network import Network

    net = Network()
    a, b = net.add_router("a"), net.add_router("b")
    net.add_link(a, b, Mbps(10), ms(1))
    m = evaluate_mapping(trace, net, np.array([0, 1]))
    assert m.wall_network == 0.0
    assert m.load_imbalance == 0.0


def test_parts_shape_checked(tiny_routed):
    net, trace = run_tiny(tiny_routed)
    with pytest.raises(ValueError):
        evaluate_mapping(trace, net, np.zeros(3, dtype=int))


@pytest.mark.parametrize("bad", ("negative", "fractional"))
@pytest.mark.parametrize("consumer", ("view", "evaluate_mapping",
                                      "lookahead_of"))
def test_every_parts_consumer_refuses_invalid_ids(tiny_routed, consumer,
                                                  bad):
    """The partition view, ``evaluate_mapping`` and ``lookahead_of`` share
    one validator: a -1 would wrap onto the last LP in ``np.add.at`` and
    0.6 would truncate to 0, so each must refuse both."""
    from repro.engine.lp import ParallelEmulationKernel

    net, trace = run_tiny(tiny_routed)
    parts = (np.arange(net.n_nodes) % 3).astype(np.float64)
    if bad == "negative":
        parts[parts == 2] = -1
    else:
        parts += 0.6
    consume = {
        "view": lambda: ParallelEmulationKernel(net, tiny_routed[1],
                                                parts=parts),
        "evaluate_mapping": lambda: evaluate_mapping(trace, net, parts),
        "lookahead_of": lambda: lookahead_of(net, parts),
    }[consumer]
    with pytest.raises(ValueError, match="partition ids"):
        consume()


def test_skew_horizon_monotone(tiny_routed):
    """A larger skew horizon can only reduce (or keep) the wall time."""
    net, trace = run_tiny(tiny_routed, n_transfers=120)
    parts = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    walls = [
        evaluate_mapping(
            trace, net, parts, cost=CostModel(skew_windows=s)
        ).wall_network
        for s in (1, 8, 64)
    ]
    assert walls[0] >= walls[1] >= walls[2]
