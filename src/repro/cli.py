"""Command-line tools.

One console entry point, ``massf``, with eight subcommands:

- ``massf map`` — partition a network description (DML) file onto engine
  nodes with TOP, or with PROFILE when given a NetFlow dump directory.
- ``massf emulate`` — run a built-in experiment (topology × application ×
  approach) end to end and print the §4.1.1 metrics as JSON.
- ``massf netflow`` — summarize a NetFlow dump directory (top routers,
  links, flows).
- ``massf sweep`` — repeat an experiment across seeds on the parallel
  runtime (worker processes + content-addressed artifact cache) and print
  mean ± spread statistics; ``--stats out.json`` additionally records a
  structured telemetry snapshot (phase spans, executor/cache counters,
  per-engine-node load timelines).
- ``massf stats`` — render such a telemetry snapshot as a human-readable
  report (optionally exporting CSV tables).
- ``massf serve`` — run the persistent mapping service (JSON over HTTP
  with warm shared caches; see :mod:`repro.service`).
- ``massf submit`` — submit a request document to a running service and
  (by default) wait for the result.
- ``massf jobs`` — list / inspect / cancel service jobs, dump status and
  metrics, or stream SSE telemetry events.

All commands are plain functions taking ``argv`` so tests can drive them
without subprocesses.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["massf"]


# --------------------------------------------------------------------- #
# massf map
# --------------------------------------------------------------------- #
def _configure_map(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("network", help="network description (DML) file")
    parser.add_argument("-k", "--parts", type=int, required=True,
                        help="number of engine nodes")
    parser.add_argument("--approach", choices=("top", "profile"),
                        default="top")
    parser.add_argument("--netflow-dir",
                        help="NetFlow dump directory (PROFILE only)")
    parser.add_argument("--duration", type=float, default=None,
                        help="profiled run duration in seconds "
                        "(PROFILE only; default: last record time)")
    parser.add_argument("--algorithm", default="multilevel")
    parser.add_argument("--tolerance", type=float, default=1.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--latency-priority", type=float, default=0.6)
    parser.add_argument("-o", "--output", help="write assignment here "
                        "instead of stdout")


def _cmd_map(parser: argparse.ArgumentParser, args) -> int:
    from repro.core.mapper import Mapper, MapperConfig
    from repro.profiling.aggregate import ProfileData
    from repro.profiling.dump import load_dump_dir
    from repro.topology import dml

    net = dml.load(args.network)
    config = MapperConfig(
        algorithm=args.algorithm, tolerance=args.tolerance, seed=args.seed,
        latency_priority=args.latency_priority,
    )
    mapper = Mapper(net, n_parts=args.parts, config=config)
    if args.approach == "top":
        mapping = mapper.map_top()
    else:
        if not args.netflow_dir:
            parser.error("--netflow-dir is required for --approach profile")
        records = load_dump_dir(args.netflow_dir)
        if not records:
            parser.error(f"no NetFlow records under {args.netflow_dir}")
        duration = args.duration
        if duration is None:
            duration = max(r.last for r in records) * 1.01
        profile = ProfileData.from_records(records, net, duration=duration)
        initial = mapper.map_top()
        mapping = mapper.map_profile(profile, initial_parts=initial.parts)

    lines = [f"# {mapping.summary()}"]
    lines += [
        f"{node.node_id} {int(mapping.parts[node.node_id])}"
        for node in net.nodes
    ]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------- #
# massf emulate
# --------------------------------------------------------------------- #
def _configure_emulate(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", choices=("campus", "teragrid", "brite"),
                        default="campus")
    parser.add_argument("--network",
                        help="custom network description (DML) file "
                        "(overrides --topology; requires -k)")
    parser.add_argument("--spec",
                        help="traffic specification file (overrides --app "
                        "and --intensity; see repro.traffic.spec)")
    parser.add_argument("-k", "--parts", type=int, default=None,
                        help="engine nodes (required with --network)")
    parser.add_argument("--app", choices=("scalapack", "gridnpb", "none"),
                        default="scalapack")
    parser.add_argument("--intensity",
                        choices=("light", "moderate", "heavy"), default=None)
    parser.add_argument("--approaches", default="top,place,profile",
                        help="comma-separated subset of top,place,profile")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--duration", type=float, default=None,
                        help="override the workload duration (seconds)")
    parser.add_argument("--engine", choices=("seq", "par"), default="seq",
                        help="evaluation-emulation engine: seq = batched "
                        "sequential kernel, par = one logical process per "
                        "engine node (bit-identical traces)")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (reuses routing "
                        "tables and emulation runs across invocations)")
    parser.add_argument("-o", "--output", help="write JSON here")


#: CLI engine spellings → RunnerConfig / run_kernel engine names.
_ENGINES = {"seq": "sequential", "par": "parallel"}


def _cmd_emulate(parser: argparse.ArgumentParser, args) -> int:
    from repro.experiments.runner import (
        RunnerConfig,
        evaluate_setup,
        evaluate_workload,
    )
    from repro.experiments.setups import (
        brite_setup,
        campus_setup,
        teragrid_setup,
    )
    from repro.runtime.cache import resolve_cache

    cache = resolve_cache(args.cache_dir)
    config = RunnerConfig(engine=_ENGINES[args.engine])
    approaches = tuple(
        a.strip() for a in args.approaches.split(",") if a.strip()
    )
    if args.network or args.spec:
        from repro.experiments.workloads import build_workload
        from repro.topology import dml
        from repro.traffic.spec import parse_spec

        if args.network:
            if args.parts is None:
                parser.error("-k/--parts is required with --network")
            net = dml.load(args.network)
            k = args.parts
        else:
            factory = {"campus": campus_setup, "teragrid": teragrid_setup,
                       "brite": brite_setup}[args.topology]
            setup = factory(args.app)
            net = setup.network
            k = args.parts or setup.n_engine_nodes
        if args.spec:
            with open(args.spec, "r", encoding="utf-8") as handle:
                workload = parse_spec(handle.read(), net, seed=args.seed)
        else:
            wl_kwargs = {}
            if args.intensity:
                wl_kwargs["intensity"] = args.intensity
            if args.duration:
                wl_kwargs["duration"] = args.duration
            workload = build_workload(net, args.app, seed=args.seed,
                                      **wl_kwargs)
        results = evaluate_workload(net, workload, k,
                                    approaches=approaches, seed=args.seed,
                                    config=config, cache=cache)
        described = f"{net.summary()} on {k} engine nodes"
    else:
        factory = {"campus": campus_setup, "teragrid": teragrid_setup,
                   "brite": brite_setup}[args.topology]
        kwargs: dict = {}
        if args.intensity:
            kwargs["intensity"] = args.intensity
        if args.duration:
            kwargs["workload_kwargs"] = {"duration": args.duration}
        setup = factory(args.app, **kwargs)
        results = evaluate_setup(setup, approaches=approaches,
                                 seed=args.seed, config=config, cache=cache)
        described = setup.describe()

    payload = {
        "setup": described,
        "seed": args.seed,
        "engine": _ENGINES[args.engine],
        "approaches": {
            name: {
                "load_imbalance": ev.outcome.load_imbalance,
                "app_emulation_time_s": ev.outcome.app_emulation_time,
                "network_emulation_time_s":
                    ev.outcome.network_emulation_time,
                "lookahead_ms": ev.outcome.lookahead * 1e3,
                "remote_packets": ev.outcome.remote_packets,
                "weighted_edge_cut": ev.outcome.edge_cut,
            }
            for name, ev in results.items()
        },
    }
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# --------------------------------------------------------------------- #
# massf netflow
# --------------------------------------------------------------------- #
def _configure_netflow(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("dump_dir", help="directory of router_*.flow files")
    parser.add_argument("--top", type=int, default=10,
                        help="rows per ranking")


def _cmd_netflow(parser: argparse.ArgumentParser, args) -> int:
    from repro.profiling.dump import load_dump_dir

    records = load_dump_dir(args.dump_dir)
    if not records:
        print(f"no NetFlow records under {args.dump_dir}", file=sys.stderr)
        return 1

    by_router: dict[int, int] = {}
    by_link: dict[int, int] = {}
    by_pair: dict[tuple[int, int], int] = {}
    for r in records:
        by_router[r.router] = by_router.get(r.router, 0) + r.packets
        by_link[r.out_link] = by_link.get(r.out_link, 0) + r.packets
        key = (r.src, r.dst)
        by_pair[key] = by_pair.get(key, 0) + r.packets

    total = sum(by_router.values())
    span = max(r.last for r in records) - min(r.first for r in records)
    print(f"{len(records)} records, {total} router-packets, "
          f"{span:.1f}s span")
    print("\ntop routers (packets forwarded):")
    for router, pkts in sorted(by_router.items(), key=lambda kv: -kv[1])[
        : args.top
    ]:
        print(f"  router {router:5d}  {pkts:12d}  {pkts / total:6.1%}")
    print("\ntop links (packets carried):")
    for link, pkts in sorted(by_link.items(), key=lambda kv: -kv[1])[
        : args.top
    ]:
        print(f"  link {link:7d}  {pkts:12d}")
    print("\ntop flows (src -> dst):")
    for (src, dst), pkts in sorted(by_pair.items(), key=lambda kv: -kv[1])[
        : args.top
    ]:
        print(f"  {src:5d} -> {dst:5d}  {pkts:12d}")
    return 0


# --------------------------------------------------------------------- #
# massf sweep
# --------------------------------------------------------------------- #
def _configure_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology",
                        choices=("campus", "teragrid", "brite",
                                 "brite-large"),
                        default="campus")
    parser.add_argument("--app", choices=("scalapack", "gridnpb", "none"),
                        default="scalapack")
    parser.add_argument("--intensity",
                        choices=("light", "moderate", "heavy"), default=None)
    parser.add_argument("--duration", type=float, default=None,
                        help="override the workload duration (seconds)")
    parser.add_argument("--seeds", default="1,2,3,4",
                        help="comma-separated seed list")
    parser.add_argument("--approaches", default="top,place,profile",
                        help="comma-separated subset of top,place,profile")
    parser.add_argument("-k", "--parts", type=int, default=None,
                        help="engine-node count override")
    parser.add_argument("-j", "--workers", type=int, default=None,
                        help="worker processes (default: auto; 0 = serial "
                        "in-process)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-cell soft timeout in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries for crashed / timed-out cells")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                        "$MASSF_CACHE_DIR or .massf-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the artifact cache")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    parser.add_argument("--stats", metavar="PATH",
                        help="collect runtime telemetry and write the JSON "
                        "snapshot here (render it with `massf stats`)")
    parser.add_argument("-o", "--output", help="write JSON here")


def _cmd_sweep(parser: argparse.ArgumentParser, args) -> int:
    from repro.api import sweep
    from repro.runtime.cache import resolve_cache
    from repro.runtime.executor import RuntimeConfig

    try:
        seeds = tuple(
            int(s) for s in args.seeds.split(",") if s.strip()
        )
    except ValueError:
        parser.error(f"bad --seeds value {args.seeds!r}")
    if not seeds:
        parser.error("--seeds must name at least one seed")
    approaches = tuple(
        a.strip() for a in args.approaches.split(",") if a.strip()
    )
    cache = None if args.no_cache else resolve_cache(
        args.cache_dir if args.cache_dir else "default"
    )
    try:
        runtime = RuntimeConfig(
            workers=args.workers, timeout_s=args.timeout,
            retries=args.retries,
        )
    except ValueError as exc:
        parser.error(str(exc))
    telemetry = None
    if args.stats:
        from repro.obs import Telemetry

        telemetry = Telemetry()

    def progress(cell, done, total):
        status = "ok" if cell.ok else "FAILED"
        print(
            f"[{done:3d}/{total}] {cell.setup_name}/{cell.app_name} "
            f"seed={cell.seed} {cell.approach:8s} {status} "
            f"({cell.duration_s:.1f}s)",
            file=sys.stderr,
        )

    try:
        result = sweep(
            args.topology, seeds=seeds, app=args.app, k=args.parts,
            approaches=approaches, intensity=args.intensity,
            duration=args.duration, runtime=runtime, cache=cache,
            progress=None if args.quiet else progress,
            telemetry=telemetry,
        )
    except RuntimeError as exc:
        if telemetry is not None:
            # A partial snapshot is still useful for diagnosing the failure.
            from repro.obs import write_json

            write_json(telemetry, args.stats)
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1

    print(result.render())
    if cache is not None:
        print(cache.stats.summary(), file=sys.stderr)
    if telemetry is not None:
        from repro.obs import write_json

        write_json(telemetry, args.stats)
        print(f"telemetry written to {args.stats} "
              f"(render with `massf stats {args.stats}`)", file=sys.stderr)

    if args.output:
        payload = {
            "setup": result.setup_name,
            "seeds": list(result.seeds),
            "metrics": {
                metric: {
                    name: {"mean": st.mean, "std": st.std,
                           "min": st.min, "max": st.max,
                           "values": list(st.values)}
                    for name, st in getattr(result, metric).items()
                }
                for metric in ("imbalance", "app_time", "network_time")
            },
            "cache": None if cache is None else {
                "hits": cache.stats.hits,
                "misses": cache.stats.misses,
                "hit_rate": cache.stats.hit_rate,
            },
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2) + "\n")
    return 0


# --------------------------------------------------------------------- #
# massf stats
# --------------------------------------------------------------------- #
def _configure_stats(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("snapshot",
                        help="telemetry JSON written by "
                        "`massf sweep --stats`")
    parser.add_argument("--section",
                        choices=("all", "phases", "counters", "timeline"),
                        default="all", help="render one section only")
    parser.add_argument("--csv", metavar="DIR",
                        help="additionally export spans/counters/series "
                        "as CSV files under this directory")


def _cmd_stats(parser: argparse.ArgumentParser, args) -> int:
    from repro.obs import load_json, render_report, write_csv_dir
    from repro.obs.report import phase_breakdown, timeline_report
    from repro.obs.telemetry import SCHEMA_VERSION

    try:
        data = load_json(args.snapshot)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {args.snapshot}: {exc}", file=sys.stderr)
        return 1
    schema = data.get("schema")
    if schema is not None and schema > SCHEMA_VERSION:
        print(
            f"warning: snapshot schema v{schema} is newer than this "
            f"massf (v{SCHEMA_VERSION}); rendering best-effort",
            file=sys.stderr,
        )

    if args.section == "phases":
        print(phase_breakdown(data))
    elif args.section == "timeline":
        print(timeline_report(data))
    elif args.section == "counters":
        from repro.obs.report import _counter_section

        print(_counter_section(data))
    else:
        print(render_report(data))

    if args.csv:
        written = write_csv_dir(data, args.csv)
        print(f"wrote {len(written)} CSV files under {args.csv}",
              file=sys.stderr)
    return 0


# --------------------------------------------------------------------- #
# massf serve / submit / jobs (the mapping service)
# --------------------------------------------------------------------- #
def _configure_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8351,
                        help="listen port (0 picks an ephemeral port)")
    parser.add_argument("--workers", type=int, default=2,
                        help="job worker threads")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="bounded job queue depth; submissions past "
                        "it are rejected with HTTP 429")
    parser.add_argument("--cache-dir", default=None,
                        help="artifact cache directory (default: "
                        "$MASSF_CACHE_DIR or .massf-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk artifact cache")
    parser.add_argument("--budget-mb", type=int, default=512,
                        help="warm in-memory cache budget in MiB")
    parser.add_argument("--max-delta-changes", type=int, default=64,
                        help="max canonical link changes served by "
                        "routing delta-derivation instead of a rebuild")
    parser.add_argument("--default-timeout", type=float, default=None,
                        help="default per-job soft deadline in seconds")


def _cmd_serve(parser: argparse.ArgumentParser, args) -> int:
    from repro.service import ServiceConfig, serve

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_size=args.queue_size,
            cache=None if args.no_cache else (args.cache_dir or "default"),
            budget_bytes=args.budget_mb * 1024 * 1024,
            max_delta_changes=args.max_delta_changes,
            default_timeout_s=args.default_timeout,
        )
    except ValueError as exc:
        parser.error(str(exc))
    serve(config, log=lambda line: print(line, file=sys.stderr))
    return 0


def _configure_submit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("request", nargs="?",
                        help="path to a JSON request document "
                        "(default: read it from stdin)")
    parser.add_argument("--url", default="http://127.0.0.1:8351",
                        help="service base URL")
    parser.add_argument("--timeout-s", type=float, default=None,
                        help="per-job soft deadline in seconds")
    parser.add_argument("--no-wait", action="store_true",
                        help="print the accepted job and return instead "
                        "of polling for the result")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="client-side wait timeout in seconds")


def _cmd_submit(parser: argparse.ArgumentParser, args) -> int:
    """Exit 0 on done, 1 on failed/cancelled, 3 on backpressure."""
    from repro.service import QueueFullError, ServiceError, connect

    try:
        if args.request:
            with open(args.request, encoding="utf-8") as handle:
                data = json.load(handle)
        else:
            data = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read the request document: {exc}")
    if not isinstance(data, dict):
        parser.error("the request document must be a JSON object")

    client = connect(args.url, timeout=args.timeout)
    try:
        info = client.submit(data, timeout_s=args.timeout_s)
        if not args.no_wait:
            info = client.wait(info.job_id, timeout=args.timeout)
    except QueueFullError as exc:
        print(f"massf submit: rejected (backpressure): {exc}",
              file=sys.stderr)
        return 3
    except ServiceError as exc:
        print(f"massf submit: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"massf submit: cannot talk to {args.url}: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(info.to_dict(), indent=2))
    return 0 if info.state in ("pending", "running", "done") else 1


def _configure_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("job_id", nargs="?",
                        help="show one job in full (default: list all)")
    parser.add_argument("--url", default="http://127.0.0.1:8351",
                        help="service base URL")
    parser.add_argument("--cancel", action="store_true",
                        help="cancel the given job")
    parser.add_argument("--status", action="store_true",
                        help="print the service status document")
    parser.add_argument("--metrics", action="store_true",
                        help="print the full telemetry snapshot")
    parser.add_argument("--watch", type=int, default=None, metavar="N",
                        help="stream N SSE telemetry events and exit")
    parser.add_argument("--timeout", type=float, default=30.0)


def _cmd_jobs(parser: argparse.ArgumentParser, args) -> int:
    from repro.service import ServiceError, connect

    if args.cancel and not args.job_id:
        parser.error("--cancel needs a job id")
    client = connect(args.url, timeout=args.timeout)
    try:
        if args.status:
            print(json.dumps(client.status(), indent=2))
        elif args.metrics:
            print(json.dumps(client.metrics(), indent=2))
        elif args.watch is not None:
            for event in client.events(args.watch, timeout=args.timeout):
                print(json.dumps(event))
        elif args.job_id and args.cancel:
            cancelled = client.cancel(args.job_id)
            print(json.dumps(
                {"job_id": args.job_id, "cancelled": cancelled}
            ))
        elif args.job_id:
            print(json.dumps(client.job(args.job_id).to_dict(), indent=2))
        else:
            infos = client.jobs()
            print(f"{'job':<10s} {'kind':<14s} {'state':<10s} "
                  f"{'warm':<5s} error")
            for info in infos:
                warm = "yes" if info.warm_hit else ""
                print(f"{info.job_id:<10s} {info.kind:<14s} "
                      f"{info.state:<10s} {warm:<5s} {info.error or ''}")
    except ServiceError as exc:
        print(f"massf jobs: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"massf jobs: cannot talk to {args.url}: {exc}",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------- #
# Unified entry point
# --------------------------------------------------------------------- #
_SUBCOMMANDS = {
    "map": (_configure_map, _cmd_map,
            "map a virtual network (DML file) onto engine nodes"),
    "emulate": (_configure_emulate, _cmd_emulate,
                "run one experiment setup end to end"),
    "netflow": (_configure_netflow, _cmd_netflow,
                "summarize a NetFlow dump directory"),
    "sweep": (_configure_sweep, _cmd_sweep,
              "sweep an experiment across seeds on the parallel runtime"),
    "stats": (_configure_stats, _cmd_stats,
              "render a telemetry snapshot (from `sweep --stats`)"),
    "serve": (_configure_serve, _cmd_serve,
              "run the persistent mapping service (JSON over HTTP "
              "with warm shared caches)"),
    "submit": (_configure_submit, _cmd_submit,
               "submit a request document to a running service and "
               "wait for the result"),
    "jobs": (_configure_jobs, _cmd_jobs,
             "list / inspect / cancel service jobs; --status, "
             "--metrics, --watch for SSE events"),
}


def massf(argv: list[str] | None = None) -> int:
    """The unified ``massf`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="massf",
        description="MaSSF traffic-based load balance toolkit "
        "(map / emulate / netflow / sweep).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (configure, run, help_text) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text,
                                    description=help_text)
        configure(sub)
        sub.set_defaults(_run=run, _parser=sub)
    args = parser.parse_args(argv)
    return args._run(args._parser, args)


if __name__ == "__main__":  # pragma: no cover - module smoke entry
    sys.exit(massf())
