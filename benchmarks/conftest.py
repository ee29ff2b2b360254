"""Shared benchmark fixtures.

One session-scoped :class:`repro.experiments.report.Campaign` backs all the
figure/table benchmarks, so runs shared between figures (e.g. Figures 4, 6
and 9 all come from the ScaLapack matrix) are computed once.

Benchmarks print the regenerated table/series — the reproduction artifact —
and assert the paper's qualitative shape (who wins, roughly by how much).
Absolute numbers differ from the paper (our engine cluster is a simulated
cost model, see DESIGN.md), so assertions are on orderings and ratios.
"""

from __future__ import annotations

import pytest

from repro.experiments.report import Campaign
from repro.runtime.cache import ArtifactCache

#: Seed used by the whole benchmark campaign (arrival randomness + placement).
CAMPAIGN_SEED = 2


@pytest.fixture(scope="session")
def artifact_cache(tmp_path_factory) -> ArtifactCache:
    """Session-scoped disk cache: routing tables and emulation runs shared
    across figure benchmarks."""
    return ArtifactCache(tmp_path_factory.mktemp("massf-cache"))


@pytest.fixture(scope="session")
def campaign(artifact_cache) -> Campaign:
    return Campaign(seed=CAMPAIGN_SEED, artifact_cache=artifact_cache)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a harness function exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)
