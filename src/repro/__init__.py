"""repro — reproduction of *Traffic-based Load Balance for Scalable Network
Emulation* (Xin Liu and Andrew A. Chien, SC 2003).

The package implements, from scratch:

- :mod:`repro.partition` — a multilevel, multi-constraint graph partitioning
  substrate standing in for METIS, plus the baseline partitioners the paper
  discusses (random, hierarchical/linear, greedy k-cluster, spectral).
- :mod:`repro.topology` — the emulated-network model and the three topology
  families of the paper (Campus, TeraGrid, BRITE-like).
- :mod:`repro.routing` — shortest-path routing tables, the routing-table
  memory model, and an ICMP/traceroute implementation used by PLACE.
- :mod:`repro.engine` — a conservative parallel discrete-event network
  emulator (the MaSSF stand-in) with a wall-clock cost model.
- :mod:`repro.traffic` — HTTP/CBR/Poisson background generators and the
  ScaLapack / GridNPB foreground application traffic models.
- :mod:`repro.profiling` — NetFlow-like per-router flow profiling with dump
  files, used by PROFILE.
- :mod:`repro.core` — the paper's contribution: the TOP / PLACE / PROFILE
  mapping approaches, the multi-objective weight combination of §2.3 and the
  profile segment clustering of §3.3.
- :mod:`repro.experiments` — end-to-end experiment harness regenerating every
  table and figure of the evaluation section; all four metrics, the
  isolated network emulation ("replay") time of Figs. 9/10 included, are
  scored off one evaluation run.

- :mod:`repro.runtime` — the parallel experiment runtime: a process-pool
  grid executor and a content-addressed artifact cache.
- :mod:`repro.obs` — structured runtime telemetry (spans / counters /
  load timelines) threaded through the whole pipeline, with JSON/CSV
  export and the ``massf stats`` report.
- :mod:`repro.api` — the facade re-exported here: :func:`load_topology`,
  :func:`build_mapping`, :func:`emulate`, :func:`run_experiment`,
  :func:`sweep`.

Quickstart::

    import repro

    results = repro.run_experiment("campus", seed=1)
    for name, ev in results.items():
        print(name, ev.outcome.load_imbalance)

See ``examples/quickstart.py`` for a complete runnable walk-through.
"""

from repro._version import __version__

__all__ = [
    "__version__",
    "load_topology",
    "build_mapping",
    "emulate",
    "EmulationResult",
    "apply_changes",
    "run_experiment",
    "sweep",
    "Telemetry",
]

_API_NAMES = ("load_topology", "build_mapping", "emulate",
              "EmulationResult", "apply_changes", "run_experiment", "sweep")


def __getattr__(name):
    # PEP 562 lazy re-export: keeps `import repro` light while making the
    # facade available as repro.run_experiment(...) etc.
    if name in _API_NAMES:
        import repro.api as _api

        return getattr(_api, name)
    if name == "Telemetry":
        from repro.obs import Telemetry

        return Telemetry
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_API_NAMES) | {"Telemetry"})
