"""Change batches are validated whole before anything is applied.

An invalid change anywhere in a batch raises ``ValueError`` naming that
change, and leaves the network (fingerprint and link records), the
routing tables and the state's generation exactly as they were.  Negative
link ids are invalid too: Python indexing would otherwise address a link
from the end of the list.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.delta import (
    AddLink,
    LinkDown,
    SetLinkCost,
    apply_changes,
    routing_state,
    update_routing,
)
from repro.routing.spf import build_routing
from repro.service.warm import build_topology
from repro.topology import campus_network

_BAD_SECOND_CHANGES = [
    SetLinkCost(10**6, latency_s=0.1),
    SetLinkCost(10, latency_s=-1.0),
    SetLinkCost(10, bandwidth_bps=float("nan")),
    AddLink(0, 10**6, bandwidth_bps=1e9, latency_s=0.001),
    AddLink(2, 2, bandwidth_bps=1e9, latency_s=0.001),
    AddLink(0, 1, bandwidth_bps=1e9, latency_s=float("inf")),
    LinkDown(-1),
]


@pytest.mark.parametrize("bad", _BAD_SECOND_CHANGES, ids=repr)
def test_invalid_change_leaves_the_batch_unapplied(bad):
    net = campus_network()
    fp0 = net.fingerprint()
    links0 = list(net.links)
    state = routing_state(build_routing(net))
    dist0 = state.tables.dist.copy()
    next0 = state.tables.next_hop.copy()
    batch = [SetLinkCost(3, latency_s=0.5), bad]
    with pytest.raises(ValueError, match="invalid change") as err:
        update_routing(state, batch)
    assert repr(bad) in str(err.value)
    assert net.fingerprint() == fp0
    assert net.links == links0
    assert state.generation == 0
    assert np.array_equal(state.tables.dist, dist0)
    assert np.array_equal(state.tables.next_hop, next0)
    oracle = build_routing(net)
    assert np.array_equal(state.tables.dist, oracle.dist)
    assert np.array_equal(state.tables.next_hop, oracle.next_hop)


def test_negative_link_ids_are_rejected():
    net = campus_network()
    fp0 = net.fingerprint()
    with pytest.raises(ValueError, match="invalid change"):
        apply_changes(net, [LinkDown(-1), SetLinkCost(-2, latency_s=0.5)])
    with pytest.raises(ValueError, match="out of range"):
        net.set_link(-2, latency_s=0.5)
    with pytest.raises(ValueError, match="out of range"):
        net.set_link_up(-1, False)
    assert net.fingerprint() == fp0


def test_service_spec_with_a_negative_link_id_is_rejected():
    with pytest.raises(ValueError, match="invalid change"):
        build_topology({"source": "campus",
                        "changes": [{"op": "link_down", "link_id": -1}]})


def test_links_added_earlier_in_the_batch_are_addressable():
    net = campus_network()
    new_id = net.n_links
    apply_changes(net, [
        AddLink(0, 5, bandwidth_bps=1e9, latency_s=0.002),
        SetLinkCost(new_id, latency_s=0.004),
        LinkDown(new_id),
    ])
    assert net.links[new_id].latency_s == 0.004
    assert not net.links[new_id].up
