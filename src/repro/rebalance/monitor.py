"""The online rebalancer: load monitoring + triggered migration.

This is the tentpole loop.  A :class:`LoadMonitor` folds every executed
train event into per-node load bins of ``bin_s`` virtual seconds.  At each
conservative-window barrier that completes a bin the kernel folds its
recent trace rows in, and the :class:`OnlineRebalancer` closes the bins
the barrier completed, computes
the normalized-std imbalance signal per bin, and — when the signal clears
the trigger threshold outside the cooldown — asks its policy for an
incremental migration set.  A candidate survives two gates:

1. the policy's own economics (hysteresis bill, kurve equilibrium — see
   :mod:`repro.rebalance.policy`), and
2. the **universal adoption gate** enforced here: the candidate's predicted
   imbalance must be *strictly* below the observed signal.

Adopted sets execute immediately via
:meth:`~repro.engine.lp.ParallelEmulationKernel.migrate_routers` — a
rewrite of the kernel's partition array, which the run itself never
reads, so the trace stays byte-identical — and everything lands in the
:class:`MigrationLog`.

The rebalancer also runs *detached* (no kernel): feed
:meth:`OnlineRebalancer.observe` and :meth:`~OnlineRebalancer.on_barrier`
synthetic loads and it makes the same decisions against its own
partition array — how the hypothesis property suite drives it.  Attached,
it reads and migrates the kernel's partition array directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graphbuild import (
    latency_objective_weights,
    link_weights_to_adjwgt,
    network_csr,
)
from repro.engine.sync import BarrierClock
from repro.metrics.imbalance import load_imbalance
from repro.obs.telemetry import ensure_telemetry
from repro.partition.perf import RefineStats
from repro.rebalance.log import MigrationEvent, MigrationLog
from repro.rebalance.migrate import node_state_bytes_array
from repro.rebalance.policy import POLICIES, ProposalState, boundary_vertices
from repro.topology.network import Network

__all__ = [
    "RebalanceConfig",
    "LoadMonitor",
    "OnlineRebalancer",
    "attach_rebalancer",
]


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning knobs of the online rebalancer (all virtual-time seconds).

    Attributes
    ----------
    policy:
        ``static`` / ``hysteresis`` / ``kurve`` (a key of
        :data:`~repro.rebalance.policy.POLICIES`, checked here).
    bin_s:
        Observation bin width — the granularity of the imbalance signal.
    threshold:
        Trigger when a closed bin's imbalance exceeds this.
    cooldown_s:
        Minimum virtual time between *triggers* (adopted or not); the
        damper that keeps a persistent hot spot from re-triggering every
        bin while its migration takes effect.
    min_bin_load:
        Bins with less total load than this score NaN and never trigger
        (imbalance of a near-idle bin is noise).
    tolerance / refine_passes / max_moves:
        Passed to the incremental refinement machinery; ``max_moves``
        bounds every proposal's size (neighborhood-local increments).
    migration_s_per_byte / hysteresis:
        The hysteresis policy's migration bill: a candidate must win back
        ``hysteresis ×`` its payload cost within one bin.
    kurve_rounds / kurve_comm / kurve_mig:
        Kurve best-response rounds and its communication / migration cost
        blend weights.
    seed:
        Seed of the rebalancer's private generator (policy tie-breaks);
        same seed + same loads ⇒ identical :class:`MigrationLog`.
    """

    policy: str = "hysteresis"
    bin_s: float = 0.25
    threshold: float = 0.35
    cooldown_s: float = 0.5
    min_bin_load: float = 1.0
    tolerance: float = 1.10
    refine_passes: int = 4
    max_moves: int | None = 24
    migration_s_per_byte: float = 1e-7
    hysteresis: float = 1.0
    kurve_rounds: int = 8
    kurve_comm: float = 0.05
    kurve_mig: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown rebalance policy {self.policy!r}; choose from "
                f"{', '.join(sorted(POLICIES))}"
            )


class LoadMonitor:
    """Per-node load accumulator over virtual-time bins.

    ``observe`` takes executed train events (parallel ``time`` / ``node``
    / ``count`` arrays, e.g. a :class:`~repro.engine.trace.TrainRows`);
    events land in the bin their execution time falls in.  Bins are held
    open until :meth:`take` — the conservative window can straddle a bin
    edge, so a bin is only safe to read once a barrier at or past its
    right edge has been reached.
    """

    def __init__(self, n_nodes: int, bin_s: float) -> None:
        self.n_nodes = int(n_nodes)
        self.clock = BarrierClock(bin_s)
        self._pending: dict[int, np.ndarray] = {}

    def observe(self, seg) -> None:
        """Fold a run of executed events into the open bins."""
        if len(seg.time) == 0:
            return
        bins = self.clock.bin_of(seg.time)
        lo = int(bins.min())
        hi = int(bins.max())
        if lo == hi:  # common case: every event in one bin
            arr = self._bin(lo)
            np.add.at(arr, seg.node, seg.count)
            return
        for b in range(lo, hi + 1):
            mask = bins == b
            if mask.any():
                arr = self._bin(b)
                np.add.at(arr, seg.node[mask], seg.count[mask])

    def _bin(self, index: int) -> np.ndarray:
        arr = self._pending.get(index)
        if arr is None:
            arr = np.zeros(self.n_nodes, dtype=np.float64)
            self._pending[index] = arr
        return arr

    def take(self, index: int) -> np.ndarray:
        """Pop bin ``index``'s per-node loads (zeros if nothing ran)."""
        arr = self._pending.pop(index, None)
        return np.zeros(self.n_nodes) if arr is None else arr

    def drain(self) -> list[tuple[int, np.ndarray]]:
        """Pop all still-open bins (end of run), in order."""
        out = [(i, self._pending[i]) for i in sorted(self._pending)]
        self._pending.clear()
        return out


class OnlineRebalancer:
    """Monitor + policy + migration executor for one emulation run."""

    def __init__(
        self,
        net: Network,
        parts,
        *,
        config: RebalanceConfig | None = None,
        telemetry=None,
    ) -> None:
        self.net = net
        self.config = config if config is not None else RebalanceConfig()
        self.policy = POLICIES[self.config.policy]()
        self.parts = np.asarray(parts, dtype=np.int64).copy()
        self.k = int(self.parts.max()) + 1 if len(self.parts) else 1
        graph, link_index = network_csr(net)
        adjwgt = link_weights_to_adjwgt(
            latency_objective_weights(net), link_index
        )
        # Edge weights: the latency objective (cut quality); vertex
        # weights are swapped in per proposal from the observed loads.
        self._graph = graph.with_adjwgt(adjwgt)
        self.state_bytes = node_state_bytes_array(net)
        self.monitor = LoadMonitor(net.n_nodes, self.config.bin_s)
        self.rng = np.random.default_rng(self.config.seed)
        self.refine_stats = RefineStats()
        self.log = MigrationLog(
            policy=self.policy.name, bin_s=self.config.bin_s
        )
        self.telemetry = ensure_telemetry(telemetry)
        self._kernel = None
        self._last_trigger = -np.inf
        self._finalized = False

    # ------------------------------------------------------------------ #
    def attach(self, kernel) -> "OnlineRebalancer":
        """Install on a live :class:`ParallelEmulationKernel`; from here on
        the kernel's partition array is the one read and migrated."""
        if not hasattr(kernel, "migrate_routers"):
            raise TypeError(
                "an OnlineRebalancer needs the parallel LP engine "
                "(the sequential kernel has no LPs to migrate between)"
            )
        self._kernel = kernel
        self.parts = kernel._parts
        self.k = kernel.n_lps
        kernel.barrier_hooks.append(self.on_barrier)
        kernel.rebalancer = self
        if self.telemetry is ensure_telemetry(None):
            self.telemetry = kernel.telemetry
        return self

    # ------------------------------------------------------------------ #
    # Kernel hooks (also the detached-mode driving surface)
    # ------------------------------------------------------------------ #
    def observe(self, seg) -> None:
        self.monitor.observe(seg)

    def on_barrier(self, now: float) -> None:
        closing = self.monitor.clock.completed(now)
        if closing and self._kernel is not None:
            self._kernel._fold()  # the closing bins' rows
        for index in closing:
            self._close_bin(index, self.monitor.take(index), live=True)

    def finalize(self) -> None:
        """Close remaining bins (no triggers — the run is over) and emit
        telemetry.  Idempotent; the kernel calls this from its own
        finalization."""
        if self._finalized:
            return
        self._finalized = True
        for index, node_loads in self.monitor.drain():
            self._close_bin(index, node_loads, live=False)
        self._emit_telemetry()

    # ------------------------------------------------------------------ #
    def _close_bin(
        self, index: int, node_loads: np.ndarray, live: bool
    ) -> None:
        cfg = self.config
        edge = self.monitor.clock.edge_of(index)
        lp_loads = np.bincount(
            self.parts, weights=node_loads, minlength=self.k
        )
        total = float(node_loads.sum())
        signal = (
            float("nan") if total < cfg.min_bin_load
            else load_imbalance(lp_loads)
        )
        self.log.bin_times.append(edge)
        self.log.imbalance.append(signal)
        self.log.lp_loads.append(tuple(float(x) for x in lp_loads))
        if (
            live
            and not self.policy.is_static
            and np.isfinite(signal)
            and signal > cfg.threshold
            and edge - self._last_trigger >= cfg.cooldown_s
        ):
            self._last_trigger = edge  # cooldown runs from every trigger
            self._trigger(edge, node_loads, lp_loads, signal)

    def _trigger(
        self,
        time: float,
        node_loads: np.ndarray,
        lp_loads: np.ndarray,
        signal: float,
    ) -> None:
        cfg = self.config
        parts_before = self.parts.copy()
        graph = self._graph.with_vwgt(node_loads)
        n_boundary = len(boundary_vertices(graph, parts_before))
        state = ProposalState(
            graph=graph,
            parts=parts_before,
            k=self.k,
            node_loads=node_loads,
            lp_loads=lp_loads,
            state_bytes=self.state_bytes,
            config=cfg,
            rng=self.rng,
            stats=self.refine_stats,
        )
        cand = self.policy.propose(state)
        adopted = False
        routers: tuple[int, ...] = ()
        sources: tuple[int, ...] = ()
        dests: tuple[int, ...] = ()
        cost = 0
        predicted = signal
        if cand is not None:
            cand = np.asarray(cand, dtype=np.int64)
            movers = np.nonzero(cand != parts_before)[0]
            if len(movers):
                predicted = load_imbalance(
                    np.bincount(
                        cand, weights=node_loads, minlength=self.k
                    )
                )
                # Universal adoption gate: strict predicted improvement.
                if predicted < signal - 1e-12:
                    adopted = True
                    routers = tuple(int(r) for r in movers)
                    sources = tuple(
                        int(s) for s in parts_before[movers]
                    )
                    dests = tuple(int(d) for d in cand[movers])
                    cost = int(self.state_bytes[movers].sum())
                    self._execute(movers, cand[movers])
        self.log.events.append(MigrationEvent(
            time=time,
            policy=self.policy.name,
            adopted=adopted,
            imbalance_before=signal,
            imbalance_after=predicted if adopted else signal,
            routers=routers,
            sources=sources,
            dests=dests,
            cost_bytes=cost,
            n_boundary=n_boundary,
            parts_before=parts_before,
        ))

    def _execute(self, movers: np.ndarray, dests: np.ndarray) -> None:
        if self._kernel is not None:
            self._kernel.migrate_routers(movers, dests)  # rewrites parts
        else:
            self.parts[movers] = dests

    # ------------------------------------------------------------------ #
    def _emit_telemetry(self) -> None:
        tel, log = self.telemetry, self.log
        triggers, adopted = len(log.events), log.migration_count
        tel.count("rebalance.bins", len(log.bin_times))
        tel.count("rebalance.triggers", triggers)
        tel.count("rebalance.adopted", adopted)
        tel.count("rebalance.rejected", triggers - adopted)
        tel.count("rebalance.routers_migrated", log.routers_moved)
        tel.count("rebalance.bytes_moved", log.bytes_moved)
        tel.gauge("rebalance.auc", log.auc())
        if log.lp_loads:
            tel.timeline(
                "rebalance/lp_loads",
                np.asarray(log.lp_loads, dtype=np.float64).T,
                self.config.bin_s,
                policy=self.policy.name,
            )
        for event in log.events:
            tel.event("rebalance/migrations", **event.to_dict())


def attach_rebalancer(kernel, config: RebalanceConfig) -> OnlineRebalancer:
    """Build a rebalancer from ``config`` and install it on ``kernel``."""
    if not isinstance(config, RebalanceConfig):
        raise TypeError(
            f"rebalance= takes a RebalanceConfig; got {config!r}"
        )
    rebalancer = OnlineRebalancer(
        kernel.net, kernel._parts, config=config,
        telemetry=kernel.telemetry,
    )
    return rebalancer.attach(kernel)
