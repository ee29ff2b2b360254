"""HTTP background traffic (the paper's §4.1.4 workload description).

The paper configures background traffic with records like::

    Traffic [ name HTTP
      request_size       200KByte
      think_time         12
      client_per_server  10
      server_number      107 ]

Servers and clients are selected randomly from the virtual network's
endpoints.  Each client runs the classic closed ON/OFF loop (Barford &
Crovella style): think for an exponential time, send a small GET, receive a
``request_size`` response, repeat.  The loop is genuinely closed — responses
are triggered by request *delivery* inside the emulator, so response timing
reflects emulated network conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.routing.tables import RoutingTables
from repro.topology.network import Network
from repro.traffic.flows import PredictedFlow, TrafficGenerator

__all__ = ["HttpTraffic"]

GET_BYTES = 400.0  # size of an HTTP request


@dataclass
class HttpTraffic(TrafficGenerator):
    """Closed-loop HTTP client/server background load.

    Attributes
    ----------
    request_size:
        Response payload in bytes (paper default: 200 KByte).
    think_time:
        Mean exponential think time between a response and the next request.
    clients_per_server, n_servers:
        Population sizes; ``n_servers * clients_per_server`` client loops.
    duration:
        No new requests are issued after this virtual time.
    hosts:
        Candidate endpoint node ids (defaults to every host in the network
        at install time).
    site_skew:
        Zipf-like bias of *server* placement across sites: 0 = uniform over
        hosts; larger values concentrate servers on a few randomly-ranked
        sites (server farms live somewhere specific, they are not sprinkled
        uniformly).  Clients stay uniform.
    """

    request_size: float = 200e3
    think_time: float = 12.0
    clients_per_server: int = 10
    n_servers: int = 4
    duration: float = 300.0
    hosts: list[int] | None = None
    site_skew: float = 0.0
    # Populated by prepare() or install(); exposed for tests and for PLACE.
    pairs: list[tuple[int, int]] = field(default_factory=list, repr=False)
    # Set once install() drew ``pairs`` from its own rng (unannotated, so
    # not a dataclass field: no constructor option, no fingerprint input).
    _drawn_by_install = False

    def _select_population(
        self, net: Network, rng: np.random.Generator
    ) -> list[tuple[int, int]]:
        """Pick (client, server) pairs randomly from the endpoints."""
        host_ids = self.hosts
        if host_ids is None:
            host_ids = [h.node_id for h in net.hosts()]
        if len(host_ids) < 2:
            raise ValueError("need at least two hosts for HTTP traffic")
        probs = None
        if self.site_skew > 0:
            site_of = {h: net.node(h).site or "_" for h in host_ids}
            sites = sorted(set(site_of.values()))
            ranked = [sites[i] for i in rng.permutation(len(sites))]
            site_weight = {
                s: (rank + 1.0) ** -self.site_skew
                for rank, s in enumerate(ranked)
            }
            members = {s: sum(1 for h in host_ids if site_of[h] == s)
                       for s in sites}
            raw = np.array(
                [site_weight[site_of[h]] / members[site_of[h]]
                 for h in host_ids]
            )
            probs = raw / raw.sum()
        servers = rng.choice(
            host_ids, size=min(self.n_servers, len(host_ids)),
            replace=False, p=probs,
        )
        pairs: list[tuple[int, int]] = []
        for server in servers:
            others = [h for h in host_ids if h != server]
            clients = rng.choice(
                others,
                size=min(self.clients_per_server, len(others)),
                replace=False,
            )
            pairs.extend((int(c), int(server)) for c in clients)
        return pairs

    def prepare(self, net: Network, rng: np.random.Generator) -> None:
        """Select the client/server population (idempotent once selected)."""
        if not self.pairs:
            self.pairs = self._select_population(net, rng)

    # ------------------------------------------------------------------ #
    # Live generation (closed loop)
    # ------------------------------------------------------------------ #
    def install(self, kernel: EmulationKernel, rng: np.random.Generator) -> None:
        # A population drawn from an install's rng is drawn again by every
        # later install, so each run of a workload that was never prepared
        # takes the same draws as its first run did.
        if not self.pairs or self._drawn_by_install:
            self.pairs = self._select_population(kernel.net, rng)
            self._drawn_by_install = True
        for client, server in self.pairs:
            # Stagger the first request uniformly across one think period.
            start = float(rng.uniform(0.0, self.think_time))
            kernel.schedule(start, self._send_request, client, server, rng)

    def _send_request(
        self,
        kernel: EmulationKernel,
        time: float,
        client: int,
        server: int,
        rng: np.random.Generator,
    ) -> None:
        if time >= self.duration:
            return

        def on_request_delivered(k, t, _transfer, _c=client, _s=server):
            response = Transfer(
                src=_s, dst=_c, nbytes=self.request_size, tag="http-rsp",
                on_delivery=lambda k2, t2, _tr: self._schedule_next(
                    k2, t2, _c, _s, rng
                ),
            )
            k.submit_transfer(response, t)

        request = Transfer(
            src=client, dst=server, nbytes=GET_BYTES, tag="http-req",
            on_delivery=on_request_delivered,
        )
        kernel.submit_transfer(request, time)

    def _schedule_next(
        self,
        kernel: EmulationKernel,
        time: float,
        client: int,
        server: int,
        rng: np.random.Generator,
    ) -> None:
        think = float(rng.exponential(self.think_time))
        nxt = time + think
        if nxt < self.duration:
            kernel.schedule(nxt, self._send_request, client, server, rng)

    # ------------------------------------------------------------------ #
    # Prediction (what the user would hand PLACE)
    # ------------------------------------------------------------------ #
    def predicted_flows(
        self, net: Network, tables: RoutingTables
    ) -> list[PredictedFlow]:
        """Average-bandwidth prediction per client/server pair.

        One response of ``request_size`` per think period, i.e.
        ``request_size / think_time`` server→client, plus the (negligible
        but included) request direction.  Requires :meth:`install` to have
        selected the population, or ``pairs`` to be set explicitly.
        """
        if not self.pairs:
            raise RuntimeError(
                "population not selected yet; call install() first or set "
                ".pairs explicitly"
            )
        rate = self.request_size / self.think_time
        req_rate = GET_BYTES / self.think_time
        flows: list[PredictedFlow] = []
        for client, server in self.pairs:
            flows.append(PredictedFlow(server, client, rate))
            flows.append(PredictedFlow(client, server, req_rate))
        return flows

    def describe(self) -> str:
        return (
            f"HTTP(request={self.request_size / 1e3:.0f}KB, "
            f"think={self.think_time}s, "
            f"{self.n_servers}x{self.clients_per_server} pairs)"
        )
