"""Service core: parity, failure isolation, cancellation, backpressure."""

import math
import sys
import threading
import time

import pytest

from repro.service import (
    MappingService,
    QueueFullError,
    ServiceConfig,
    parse_request,
)
from repro.service.jobs import JobState
from tests.service.conftest import (
    MAP_REQUEST,
    SWEEP_REQUEST,
    TOPO,
    run,
    wait_running,
)


def test_map_runs_cold_then_serves_warm_bit_identical(service):
    cold = run(service, MAP_REQUEST)
    warm = run(service, MAP_REQUEST)
    assert cold.state is JobState.DONE and not cold.warm_hit
    assert warm.state is JobState.DONE and warm.warm_hit
    assert warm.result == cold.result
    assert warm.result["parts_checksum"] == cold.result["parts_checksum"]


def test_warm_map_matches_a_fresh_cold_service(service, tmp_path):
    run(service, MAP_REQUEST)                    # cold
    warm = run(service, MAP_REQUEST)             # warm memo
    config = ServiceConfig(workers=1, cache=str(tmp_path / "other"))
    with MappingService(config) as fresh:
        cold = run(fresh, MAP_REQUEST)
    assert not cold.warm_hit
    assert warm.result == cold.result


def test_sweep_warm_parity(service, tmp_path):
    cold = run(service, SWEEP_REQUEST)
    warm = run(service, SWEEP_REQUEST)
    assert warm.warm_hit and warm.result == cold.result
    with MappingService(ServiceConfig(workers=1)) as fresh:
        independent = run(fresh, SWEEP_REQUEST)
    assert independent.result == cold.result


def test_apply_changes_delta_derives_from_warm_state(service):
    run(service, MAP_REQUEST)  # warms the base topology + routing
    job = run(service, {
        "kind": "apply_changes", "topology": TOPO,
        "changes": [
            {"op": "set_link_cost", "link_id": 0, "latency_s": 0.2},
        ],
    })
    assert job.state is JobState.DONE
    assert job.result["delta_derived"] is True
    assert job.result["n_changes"] == 1


def test_disk_tier_keeps_nothing_in_process_past_the_warm_budget(tmp_path):
    """The warm LRU is the service's only memory tier: tables it evicts
    must not live on in the artifact cache's in-process dict."""
    from repro.runtime.cache import ArtifactCache

    config = ServiceConfig(
        workers=1, budget_bytes=1, cache=str(tmp_path / "cache")
    )
    with MappingService(config) as svc:
        for seed in range(3):
            topo = dict(TOPO, seed=seed)
            assert run(svc, dict(MAP_REQUEST, topology=topo)).state is (
                JobState.DONE
            )
        assert svc.disk.stats.by_kind["routing"]["misses"] == 3
        assert len(svc.warm.keys("routing")) <= 1  # budget overflowed
        assert not svc.disk._memory
        assert list(svc.disk.root.glob("routing/*.pkl"))  # still on disk
    # A caller-supplied cache is used as given.
    own = ArtifactCache(tmp_path / "own")
    assert MappingService(ServiceConfig(cache=own)).disk is own


def test_failing_job_does_not_poison_warm_state(service):
    bad = dict(MAP_REQUEST, approach="bogus")
    failed = run(service, bad)
    assert failed.state is JobState.FAILED
    assert failed.error
    # The failure is not memoized: submitting again re-fails (no stale
    # "done" answer), and good jobs still run on the same warm objects.
    found, _ = service.warm.memo_get(parse_request(dict(bad)).canonical())
    assert not found
    good = run(service, MAP_REQUEST)
    assert good.state is JobState.DONE
    again = run(service, bad)
    assert again.state is JobState.FAILED and not again.warm_hit
    assert service.status()["jobs"]["failed"] == 2


def test_timeout_fails_the_job_but_not_the_service(service):
    job = service.submit(parse_request(dict(MAP_REQUEST)),
                         timeout_s=1e-9)
    assert job.wait(30.0)
    assert job.state is JobState.FAILED
    assert "deadline" in job.error
    # The queue is not wedged and warm state is intact.
    assert run(service, MAP_REQUEST).state is JobState.DONE


def test_cancel_pending_job_is_skipped_by_workers(tmp_path):
    config = ServiceConfig(workers=1, cache=str(tmp_path / "cache"))
    service = MappingService(config)          # not started yet
    job = service.submit(parse_request(dict(MAP_REQUEST)))
    assert service.cancel(job.job_id) is True
    assert job.state is JobState.CANCELLED
    service.start()
    try:
        good = run(service, MAP_REQUEST)
        assert good.state is JobState.DONE
        counters = service.status()["jobs"]
        assert counters["cancelled"] == 1
        assert counters["done"] == 1
    finally:
        service.stop()
    assert service.cancel("job-nonexistent") is False


def test_repeat_settles_at_submit_while_workers_are_busy_and_queue_full(
        tmp_path, hold_map):
    config = ServiceConfig(workers=1, queue_size=1,
                           cache=str(tmp_path / "cache"))
    with MappingService(config) as service:
        cold = run(service, MAP_REQUEST)
        release = hold_map()
        busy = service.submit(parse_request(dict(MAP_REQUEST, k=2)))
        wait_running(busy)
        service.submit(parse_request(dict(MAP_REQUEST, k=3)))  # fills it
        states = []
        unsubscribe = service.telemetry.subscribe(
            lambda series, row: states.append(row["state"]))
        warm = service.submit(parse_request(dict(MAP_REQUEST)))
        unsubscribe()
        # Settled before submit returned, without a worker or a slot.
        assert warm.state is JobState.DONE and warm.warm_hit
        assert warm.result == cold.result
        assert states == ["submitted", "done"]
        assert service.job(warm.job_id) is warm
        assert service.queue.depth == 1
        counters = service.status()["jobs"]
        assert counters == {"submitted": 4, "done": 2, "failed": 0,
                            "cancelled": 0, "warm_hits": 1, "rejected": 0}
        assert len(service.counters.latencies_s) == 2
        # One lookup, one hit, for each job answered from the memo; the
        # queued misses counted theirs once, at submit.
        assert service.warm.stats.layers["response"] == {"hits": 1,
                                                         "misses": 3}
        release.set()


def test_repeat_queued_behind_its_original_is_a_warm_hit(tmp_path, hold_map):
    release = hold_map()
    config = ServiceConfig(workers=1, cache=str(tmp_path / "cache"))
    with MappingService(config) as service:
        first = service.submit(parse_request(dict(MAP_REQUEST)))
        wait_running(first)
        repeat = service.submit(parse_request(dict(MAP_REQUEST)))
        assert repeat.state is JobState.PENDING  # nothing to answer it yet
        release.set()
        assert first.wait(60.0) and repeat.wait(60.0)
    assert repeat.warm_hit and repeat.result == first.result
    assert service.warm.stats.layers["response"] == {"hits": 1, "misses": 2}


def test_concurrent_repeats_are_each_counted_once(service):
    """Hits settle on the submitting threads: no count may be lost."""
    cold = run(service, MAP_REQUEST)
    request = parse_request(dict(MAP_REQUEST))
    n_threads, n_each = 8, 40
    hits = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: hits.extend(
            service.submit(request) for _ in range(n_each)))
            for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    n = n_threads * n_each
    assert len(hits) == n
    assert all(job.warm_hit and job.result == cold.result for job in hits)
    counters = service.status()["jobs"]
    assert (counters["submitted"], counters["done"],
            counters["warm_hits"]) == (n + 1, n + 1, n)
    assert len(service.counters.latencies_s) == n + 1
    assert len(service.queue.jobs()) == n + 1
    assert service.warm.stats.layers["response"]["hits"] == n


def test_failed_cancelled_and_timed_out_jobs_are_never_answered_at_submit(
        service, hold_map):
    failed = run(service, dict(MAP_REQUEST, approach="bogus"))
    timed_out = service.submit(parse_request(dict(MAP_REQUEST, k=3)),
                               timeout_s=1e-9)
    assert timed_out.wait(30.0)
    release = hold_map()
    cancelled = service.submit(parse_request(dict(MAP_REQUEST, k=2)))
    wait_running(cancelled)
    assert service.cancel(cancelled.job_id)
    release.set()
    assert cancelled.wait(30.0)
    assert [failed.state, timed_out.state, cancelled.state] == [
        JobState.FAILED, JobState.FAILED, JobState.CANCELLED]
    for job in (failed, timed_out, cancelled):
        found, _ = service.warm.memo_get(job.request.canonical())
        assert not found
        again = service.submit(job.request)
        assert again.wait(60.0)
        assert not again.warm_hit
    assert service.status()["jobs"]["warm_hits"] == 0


def test_stop_cancels_the_jobs_no_worker_started(tmp_path, hold_map):
    release = hold_map()
    service = MappingService(ServiceConfig(
        workers=1, cache=str(tmp_path / "cache"))).start()
    jobs = [service.submit(parse_request(dict(MAP_REQUEST, k=k)))
            for k in (2, 3, 4)]
    wait_running(jobs[0])
    service.stop(timeout=0.5)
    for job in jobs[1:]:
        assert job.wait(1.0), f"{job.job_id} left {job.state.value}"
        assert job.state is JobState.CANCELLED
        assert job.error == "service stopped"
    # The running job runs on to its end.
    assert jobs[0].state is JobState.RUNNING
    release.set()
    assert jobs[0].wait(60.0) and jobs[0].state is JobState.DONE
    counters = service.status()["jobs"]
    assert (counters["done"], counters["cancelled"]) == (1, 2)


def test_restarted_service_runs_jobs(tmp_path):
    service = MappingService(ServiceConfig(
        workers=1, cache=str(tmp_path / "cache")))
    service.start()
    service.stop()
    service.start()
    try:
        job = run(service, MAP_REQUEST)
        assert job.state is JobState.DONE, job.error
        assert service.status()["workers"] == 1
    finally:
        service.stop()


def _worker_threads(exclude=()) -> list[threading.Thread]:
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("massf-worker-")
            and thread not in exclude]


def test_restart_runs_one_worker_generation(tmp_path, hold_map):
    """A worker whose join timed out at ``stop()`` finishes its job and
    exits, even though ``start()`` ran meanwhile: the restarted service
    is left with exactly ``workers`` live worker threads, and reports the
    stopped one as lingering until it is gone."""
    before = set(_worker_threads())
    release = hold_map()
    service = MappingService(ServiceConfig(
        workers=1, cache=str(tmp_path / "cache"))).start()
    try:
        held = service.submit(parse_request(dict(MAP_REQUEST)))
        wait_running(held)
        service.stop(timeout=0.2)
        service.start()
        status = service.status()
        assert (status["workers"], status["lingering_workers"]) == (1, 1)
        release.set()
        assert held.wait(60.0) and held.state is JobState.DONE
        deadline = time.monotonic() + 5.0
        while (len(_worker_threads(before)) > 1
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert len(_worker_threads(before)) == 1
        status = service.status()
        assert (status["workers"], status["lingering_workers"]) == (1, 0)
        job = run(service, dict(MAP_REQUEST, k=3))
        assert job.state is JobState.DONE, job.error
    finally:
        service.stop()


def test_bounded_queue_backpressure_at_the_service(tmp_path):
    config = ServiceConfig(workers=1, queue_size=1,
                           cache=str(tmp_path / "cache"))
    service = MappingService(config)          # not started: queue fills
    service.submit(parse_request(dict(MAP_REQUEST)))
    with pytest.raises(QueueFullError):
        service.submit(parse_request(dict(MAP_REQUEST)))
    assert service.status()["jobs"]["rejected"] == 1
    service.start()
    service.stop()


def test_status_document_shape(service):
    run(service, MAP_REQUEST)
    status = service.status()
    # The whole key set: an entry appearing or going (as "pools" did with
    # the persistent pmap pools) has to be a decision made here.
    assert set(status) == {
        "uptime_s", "workers", "lingering_workers", "queue_depth",
        "queue_size", "jobs",
        "latency_p50_s", "latency_p95_s", "warm", "warm_nbytes", "disk",
    }
    assert status["workers"] == 2
    assert status["queue_size"] == 64
    assert status["jobs"]["submitted"] == 1
    assert status["latency_p95_s"] >= status["latency_p50_s"] >= 0.0
    assert "topology" in status["warm"]["layers"]
    assert status["disk"]["stores"] >= 0


@pytest.mark.parametrize("bad", [
    {"workers": 0},
    {"queue_size": 0},                     # queue.Queue(0) is unbounded
    {"default_timeout_s": math.nan},       # now > nan is never True
    {"default_timeout_s": -1.0},
    {"default_timeout_s": math.inf},
    {"budget_bytes": -1},
    {"max_delta_changes": -1},
], ids=["workers", "queue_size", "timeout-nan", "timeout-negative",
        "timeout-inf", "budget_bytes", "max_delta_changes"])
def test_config_rejects_values_that_break_its_promises(bad):
    (name,) = bad
    with pytest.raises(ValueError, match=name):
        ServiceConfig(**bad)


def test_config_accepts_its_boundary_values():
    config = ServiceConfig(workers=1, queue_size=1, default_timeout_s=0.0,
                           budget_bytes=0, max_delta_changes=0)
    assert config.default_timeout_s == 0.0
