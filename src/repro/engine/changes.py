"""Mid-run link-cost changes, serviced at conservative-window barriers.

Long emulations meet topology change streams (diurnal traffic
engineering, scheduled capacity shifts); re-running the whole emulation
per change defeats the point of emulating.  This module installs a
barrier hook that drains a ``(time, changes)`` schedule: whenever virtual
time passes an entry, the incremental engine
(:func:`repro.routing.delta.update_routing`) repairs the routing tables
and the network's links in place, which both drains read live, and the
kernel rebuilds what it derives from them
(:meth:`~repro.engine.kernel.EmulationKernel.sync_context`) — all
between windows, where no segment is in flight, so every run applies
each change at the identical point in the event stream.  Both
drains fire the same barriers, so a run with a NetFlow collector (always
drained per event) takes the same schedule too.

Two hard restrictions keep mid-run changes sound:

- **Only** :class:`~repro.routing.delta.SetLinkCost` — link up/down and
  link addition change the link-id universe (the per-link accounting
  arrays) that the kernel sized at construction.
- A new latency must stay **at or above the conservative window**
  (:func:`repro.engine.sync.conservative_window` is the minimum link
  latency at kernel construction): the calendar's window bucketing is
  derived from it, and a link faster than the lookahead would let an
  event schedule a successor inside its own window.
"""

from __future__ import annotations

import math

from repro.routing.delta import RoutingState, SetLinkCost, update_routing
from repro.routing.perf import RoutingStats

__all__ = [
    "normalize_link_changes",
    "install_link_changes",
]


def normalize_link_changes(link_changes) -> list[tuple[float, list]]:
    """Validate a ``(time, change-or-list)`` schedule into sorted batches.

    Each entry pairs a virtual time with one :class:`SetLinkCost` or a
    list of them; entries sort by time (stable, so same-time batches
    keep their given order).
    """
    schedule: list[tuple[float, list]] = []
    for entry in link_changes:
        try:
            when, changes = entry
        except (TypeError, ValueError):
            raise TypeError(
                f"link_changes entries must be (time, changes) pairs; "
                f"got {entry!r}"
            ) from None
        when = float(when)
        if not 0 <= when < math.inf:
            raise ValueError(
                f"change time {when!r} must be finite and not before time 0"
            )
        if isinstance(changes, (list, tuple)):
            changes = list(changes)
        else:
            changes = [changes]
        for change in changes:
            if not isinstance(change, SetLinkCost):
                raise TypeError(
                    f"mid-run changes support SetLinkCost only (link "
                    f"up/down and AddLink change the per-link arrays "
                    f"the kernel sized at construction); got "
                    f"{change!r} — apply structural changes between "
                    f"runs via repro.routing.delta.update_routing"
                )
        schedule.append((when, changes))
    schedule.sort(key=lambda item: item[0])
    return schedule


def install_link_changes(
    kernel, state: RoutingState, link_changes, *, cache=None
) -> None:
    """Attach a link-change schedule to a constructed kernel.

    ``state`` must wrap the very tables the kernel was built on (the
    kernel reads their ``next_hop`` and pair lookup live).  Any kernel takes a schedule, one
    with a NetFlow collector included: both drains fire the barriers the
    changes are applied at.  Raises at install time — not mid-run — when
    a scheduled latency undercuts the conservative window.  Progress lands
    on ``kernel.link_change_log`` (``(time, n_changes, n_touched)`` per
    applied batch) and ``kernel.routing_stats`` (a
    :class:`~repro.routing.perf.RoutingStats` filling ``delta_updates`` /
    ``affected_sources`` / ``touched_sources``).
    """
    if state.tables is not kernel.tables:
        raise ValueError(
            "the RoutingState must wrap the kernel's own tables (build "
            "the kernel on state.tables, or use run_kernel(link_changes=)"
        )
    schedule = normalize_link_changes(link_changes)
    for when, changes in schedule:
        for change in changes:
            if (change.latency_s is not None
                    and change.latency_s < kernel.window_s):
                raise ValueError(
                    f"link {change.link_id} latency "
                    f"{change.latency_s!r}s at t={when} undercuts the "
                    f"conservative window ({kernel.window_s!r}s): the "
                    f"calendar's lookahead was fixed at kernel "
                    f"construction and a faster link would break window "
                    f"bucketing; keep mid-run latencies >= the minimum "
                    f"construction-time link latency"
                )
    kernel.link_change_log = []
    kernel.routing_stats = RoutingStats()
    pending = list(schedule)

    def _service(now: float) -> None:
        while pending and pending[0][0] <= now:
            when, changes = pending.pop(0)
            touched = update_routing(
                state, changes, cache=cache, stats=kernel.routing_stats,
            )
            kernel.sync_context()
            kernel.link_change_log.append(
                (when, len(changes), int(len(touched)))
            )
            kernel.telemetry.count("kernel.link_changes", len(changes))

    kernel.barrier_hooks.append(_service)

