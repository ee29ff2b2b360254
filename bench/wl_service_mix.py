"""``service-mix``: cache reads beside cache writes against a real server.

Each pass boots the HTTP service on an ephemeral loopback port with an
empty disk cache and runs two closed-loop clients (``submit`` ->
``wait``), one per core of the reference box:

- the *miss* client drains a seeded script of fresh requests over two
  synthetic topologies -- ``map top`` (most of them, all with one k, so
  that the median miss is one of them whatever the order), ``map place``
  and ``apply_changes`` on a ladder of links -- so every one of them
  computes: cold fills, delta-derives, partitioning;
- the *hit* client, for as long as the miss client runs, repeats requests
  the miss client has already had answered, so every one of them is a
  response-memo hit served while a computation holds the other worker.

It is the only workload where the service, the warm LRU, the disk cache
and ``derive_routing`` sit on the path.  The overall median latency would
straddle the hit/miss boundary, so latency is reported per class.

Giving each class its own client keeps the interference constant: with
both clients drawing from one mixed script, whether a hit (5 ms quiet,
20 ms beside a computation) or a miss (twice as long beside another
miss, the workers being threads) met a busy neighbour was the luck of the
order, and no percentile stayed within 20 % from seed to seed.
"""

from __future__ import annotations

import json
import shutil
import threading
import time

import numpy as np

NAME = "service-mix"
MIN_PASSES = 3

SIZES = {
    "full": dict(n_routers=400, hosts_per_router=0.1, tops=14, top_k=16,
                 applies=5, places=5, place_k=8, place_duration=10.0),
    "toy": dict(n_routers=60, hosts_per_router=0.2, tops=2, top_k=4,
                applies=2, places=1, place_k=4, place_duration=2.0),
}

_WORKERS = 2   # service worker threads
_POLL_S = 0.002
_MIN_HITS = 5


def _key(request: dict) -> str:
    return json.dumps(request, sort_keys=True)


def setup(seed: int, size: dict, rec) -> dict:
    import repro.routing.spf as spf
    import repro.topology.synth as synth
    from gen import ladder_links

    rng = np.random.default_rng(seed)
    # Two fixed graphs and fixed traffic seeds: what reaches the
    # partitioner is the same for every --seed (see README).  The seed
    # draws the changed links, the order of the script and the repeats.
    specs = [
        {"source": "synth", "n_routers": size["n_routers"],
         "hosts_per_router": size["hosts_per_router"], "seed": j}
        for j in range(2)
    ]
    nets = [
        synth.synth_network(**{k: v for k, v in s.items() if k != "source"})
        for s in specs
    ]
    fresh: list[dict] = []
    for i in range(size["tops"]):
        fresh.append({
            "kind": "map", "topology": specs[i % 2], "approach": "top",
            "k": size["top_k"], "seed": i,
        })
    for i in range(size["places"]):
        fresh.append({
            "kind": "map", "topology": specs[i % 2], "approach": "place",
            "k": size["place_k"], "seed": i, "app": "scalapack",
            "intensity": "light", "duration": size["place_duration"],
        })
    per_net = -(-size["applies"] // 2)
    ladders = [
        ladder_links(net, spf.build_routing(net), per_net, rng)
        for net in nets
    ]
    for i in range(size["applies"]):
        net, link = nets[i % 2], ladders[i % 2][i // 2]
        fresh.append({
            "kind": "apply_changes", "topology": specs[i % 2],
            "changes": [{
                "op": "set_link_cost", "link_id": link,
                "latency_s": net.links[link].latency_s * 3.0,
            }],
        })
    script = [fresh[i] for i in rng.permutation(len(fresh))]
    return {
        "seed": seed, "size": size, "script": script,
        # The hit client's n-th repeat targets answered request
        # picks[n] mod (number answered so far).
        "picks": rng.integers(0, 1 << 30, size=4096).tolist(),
        "answers": {},
    }


def _call(client, request, failures):
    """One closed-loop operation: ``(info, submit_s, latency_s)``."""
    from repro.service import QueueFullError, ServiceError

    t0 = time.perf_counter()
    try:
        info = client.submit(request)
        t1 = time.perf_counter()
        info = client.wait(info.job_id, timeout=120.0, poll_s=_POLL_S)
    except (QueueFullError, ServiceError, TimeoutError, OSError) as exc:
        failures.append("service-mix: request refused or lost "
                        f"({type(exc).__name__}: {exc})")
        return None
    return info, t1 - t0, time.perf_counter() - t0


def _miss_client(client, script, answered, out, failures):
    for request in script:
        done = _call(client, request, failures)
        if done is not None:
            out.append((request, *done))
            if done[0].state == "done":
                answered.append(request)  # list.append is atomic


def _hit_client(client, picks, answered, stop, out, failures):
    n = 0
    # A few hits even when the script is over at once (toy sizes).
    while not stop.is_set() or (n < _MIN_HITS and answered):
        if not answered:
            time.sleep(_POLL_S)
            continue
        request = answered[picks[n % len(picks)] % len(answered)]
        n += 1
        done = _call(client, request, failures)
        if done is not None:
            out.append((request, *done))


def run_pass(inputs: dict, rec) -> dict:
    from harness import fresh_tmp
    from repro.service import ServiceConfig, connect
    from repro.service.server import start_service_in_thread

    script = inputs["script"]
    tmp = fresh_tmp("service-cache")
    failures: list[str] = []
    misses: list[tuple] = []
    hits: list[tuple] = []
    answered: list[dict] = []
    stop_hits = threading.Event()
    with rec.span("service.start"):
        _, url, stop = start_service_in_thread(ServiceConfig(
            port=0, workers=_WORKERS, queue_size=64, cache=str(tmp)))
    try:
        hit_thread = threading.Thread(
            target=_hit_client, name="bench-hit-client",
            args=(connect(url, timeout=120.0), inputs["picks"], answered,
                  stop_hits, hits, failures))
        start = time.perf_counter()
        with rec.span("bench.drain"):
            hit_thread.start()
            try:
                _miss_client(connect(url, timeout=120.0), script, answered,
                             misses, failures)
                drain_s = time.perf_counter() - start
            finally:
                stop_hits.set()
                hit_thread.join()
        status = connect(url).status()
    finally:
        with rec.span("service.stop"):
            stop()
        shutil.rmtree(tmp, ignore_errors=True)

    latency = {"hit": [], "miss": []}
    submit_s, queue_s, exec_s, overhead_s = [], [], [], []
    for kind, done in (("miss", misses), ("hit", hits)):
        for request, info, submit, seconds in done:
            if info.state != "done":
                failures.append(f"service-mix: a {request['kind']} request "
                                f"ended {info.state}: {info.error}")
                continue
            # delta_derived says how the answer was produced, not what
            # it is.
            body = {k: v for k, v in info.result.items()
                    if k != "delta_derived"}
            first = inputs["answers"].setdefault(_key(request), body)
            if body != first:
                failures.append(f"service-mix: a {request['kind']} request "
                                "was answered differently from the first time")
            if info.warm_hit != (kind == "hit"):
                failures.append(f"service-mix: a {kind}-client request "
                                f"came back warm_hit={info.warm_hit}")
            latency[kind].append(seconds)
            submit_s.append(submit)
            overhead_s.append(seconds - (info.finished_s - info.submitted_s))
            if kind == "miss":  # a hit neither waits nor executes
                queue_s.append(info.started_s - info.submitted_s)
                exec_s.append(info.finished_s - info.started_s)

    warm = status["warm"]["layers"]

    def rate(layer):
        per = warm.get(layer, {"hits": 0, "misses": 0})
        total = per["hits"] + per["misses"]
        return per["hits"] / total if total else 0.0

    disk = status["disk"] or {"hits": 0, "misses": 0}
    served = len(latency["hit"]) + len(latency["miss"])
    return {
        "values": {
            "pass_s": drain_s,
            "part1_s": float(np.median(latency["miss"])),
            "part2_s": float(np.quantile(latency["miss"], 0.9)),
            # The mean, not the median: a hit is answered at the first
            # poll or at the second, 2 ms later, and the median flips
            # between the two with the share of either.
            "part3_s": float(np.mean(latency["hit"])),
        },
        "ops": len(misses) + len(hits),
        "failures": failures,
        "named": {"req_per_s": served / drain_s},
        "layer": {
            "service.submit_s": float(np.median(submit_s)),
            "service.queue_wait_s": float(np.median(queue_s)),
            "service.exec_s": float(np.median(exec_s)),
            "service.client_overhead_s": float(np.median(overhead_s)),
            "service.memo_hit_frac": len(latency["hit"]) / max(1, served),
            "service.topology_hit_frac": rate("topology"),
            "service.routing_hit_frac": rate("routing"),
            "service.delta_derives": status["warm"]["delta_derives"],
            "service.cold_builds": status["warm"]["cold_builds"],
            "service.rejected": status["jobs"]["rejected"],
            "runtime.disk_hits": disk["hits"],
            "runtime.disk_misses": disk["misses"],
        },
    }


def finish(inputs: dict, passes) -> list[str]:
    """Each ``apply_changes`` answer against a direct library call."""
    import repro
    import repro.routing.spf as spf
    import repro.topology.synth as synth
    from repro.runtime.fingerprint import stable_hash
    from repro.service.requests import decode_changes

    failures = []
    for request in inputs["script"]:
        answer = inputs["answers"].get(_key(request))
        if request["kind"] != "apply_changes" or answer is None:
            continue  # a missing answer was already reported as a failure
        spec = {k: v for k, v in request["topology"].items() if k != "source"}
        net = synth.synth_network(**spec)
        tables, _ = repro.apply_changes(
            net, spf.build_routing(net), decode_changes(request["changes"]))
        if (answer["dist_checksum"] != stable_hash(tables.dist)
                or answer["next_hop_checksum"] != stable_hash(tables.next_hop)):
            failures.append("service-mix: apply_changes checksum differs "
                            "from a direct repro.apply_changes")
    return failures


def named(metrics: dict, passes) -> dict:
    return {
        "req_per_s": max(p["named"]["req_per_s"] for p in passes),
        "miss_p50_s": metrics["part1_s"],
        "miss_p90_s": metrics["part2_s"],
        "hit_mean_s": metrics["part3_s"],
    }


def trace_extras(inputs: dict, rec, base, passes) -> dict:
    import repro.routing.spf as spf
    import repro.topology.synth as synth
    from harness import cache_round_trip

    spec = inputs["script"][0]["topology"]
    net = synth.synth_network(
        **{k: v for k, v in spec.items() if k != "source"})
    return cache_round_trip(spf.build_routing(net))
