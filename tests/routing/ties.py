"""Equal-latency fixtures: shortest-path ties under the ``latency`` metric.

Equal (or small-integer) link latencies tie shortest paths the way the
``hops`` metric does, so tie-sensitive tests need not leave the default
metric.  :func:`tied_net` draws a random router graph; :func:`equal_latencies`
flattens an existing network's latencies in place.
"""

from __future__ import annotations

from repro.topology.network import Network

#: The latency every link gets from :func:`equal_latencies` (1 ms).
EQUAL_LATENCY_S = 1e-3


def equal_latencies(net: Network, latency_s: float = EQUAL_LATENCY_S):
    """Set every link of ``net`` to ``latency_s``; returns ``net``.

    Under ``latency`` the routes then tie exactly where ``hops`` ties."""
    for link in net.links:
        net.set_link(link.link_id, latency_s=latency_s)
    return net


def tied_net(rng, n: int, *, extra: int, down: int, levels: int = 1):
    """A random ``n``-router graph with tied shortest paths.

    A random spanning tree plus ``extra`` chords (repeats become
    parallel links), each with latency ``k`` ms for ``k`` drawn from
    ``1..levels`` (all equal when ``levels == 1``); then ``down`` random
    links go administratively down, so some pairs may be unreachable.
    """
    net = Network("tied")
    for i in range(n):
        net.add_router(f"r{i}")

    def link(u, v):
        lat = EQUAL_LATENCY_S * float(rng.integers(1, levels + 1))
        net.add_link(u, v, 1e9, lat)

    for i in range(1, n):
        link(i, int(rng.integers(0, i)))
    for _ in range(extra):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v:
            link(u, v)
    if net.n_links:
        for lid in rng.choice(net.n_links, min(down, net.n_links),
                              replace=False):
            net.set_link_up(int(lid), False)
    return net
