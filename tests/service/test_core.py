"""Service core: parity, failure isolation, cancellation, backpressure."""

import math

import pytest

from repro.service import (
    MappingService,
    QueueFullError,
    ServiceConfig,
    parse_request,
)
from repro.service.jobs import JobState
from tests.service.conftest import MAP_REQUEST, SWEEP_REQUEST, TOPO, run


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
        "uptime_s", "workers", "queue_depth", "queue_size", "jobs",
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
