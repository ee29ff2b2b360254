"""Exact pins of the shipped mappings on real, non-integral weights.

``test_refine_parity.py`` proves the refinement kernels equal their oracles
bit for bit only where every weight is exactly representable.  PLACE's and
PROFILE's combined §2.3 weights are not integral, and the campus golden
compares at a relative tolerance, so neither would notice a kernel that
reordered one float addition.  These digests would: each entry is
``stable_hash(parts)`` and ``weighted_cut.hex()`` of one mapping.

- TOP, PLACE and PROFILE on the three ``paper-pipeline`` cells (moderate
  background, seed 1, sequential engine) through ``run_experiment``;
- TOP and PLACE on ``scale-map``'s 1,200-router ``synth`` network at
  k=16 through ``build_mapping``.

The values were recorded before the refinement kernels moved to plain
lists.  ``stable_hash`` folds in ``CACHE_VERSION``, so a cache-layout bump
changes every hash here without any mapping having moved.
"""

import pytest

from repro.runtime.fingerprint import stable_hash

#: (cell, application, workload duration) -- ``paper-pipeline``'s cells.
PIPELINE_CELLS = (
    ("campus", "scalapack", 2.5),
    ("teragrid", "gridnpb", 2.0),
    ("brite", "scalapack", 1.5),
)
PIPELINE_SEED = 1

#: ``(topology, approach) -> (stable_hash(parts), weighted_cut.hex())``.
DIGESTS = {
    ("campus", "top"): (
        "655bb378e5717288109169f08797f3cdedee90ede24d7edbc45a46c947b59266",
        "0x1.b3e6b74f03291p+1"),
    ("campus", "place"): (
        "ac6136f453b8bc6d9bf4cb2bab1dad4e4a76ecd50a9f587618cefd1620ef2223",
        "0x1.caea8673f63d7p+0"),
    ("campus", "profile"): (
        "e848f1283dc5c337788a7c923f05b21ecb222d30066eb793ac8aac85a30044e5",
        "0x1.1969c969c969cp+0"),
    ("teragrid", "top"): (
        "ffe11d2aa83346cacfc169df5fb4c4e775c702e43ea2438c9ea79915eb075787",
        "0x1.3d5c28f5c28f6p+3"),
    ("teragrid", "place"): (
        "d97f703b665e7484e95d325235d31638aca2ff052e3391399a272519e3ad7175",
        "0x1.824811393158cp+0"),
    ("teragrid", "profile"): (
        "3c6a4b0a89531bc879cd1160d9185b5b6a28870a05d1cc1aeaffd94d5f5c8daf",
        "0x1.6a6d406ff29afp+0"),
    ("brite", "top"): (
        "909aee036623c378fb3cab2848ffbcc783236ca829d78f0fae702fd56208c071",
        "0x1.847e78a5b3984p+0"),
    ("brite", "place"): (
        "7faccb379202584cf20fd8f18f83dc660d41f5b9f16f8431d3d9eb1f23c9dc79",
        "0x1.49c2be951140ep+0"),
    ("brite", "profile"): (
        "69e0f65ee0fbe1990d4a40ed743c0205f03e1015d739c99a8787898cfa9173b0",
        "0x1.f12d6a12e2170p-1"),
    ("synth1200", "top"): (
        "ffb509c2f04e9afcbfd9e7255f7a9536aebf00651c9abb67613cddaa05c7c81c",
        "0x1.f36904a3fe598p+3"),
    ("synth1200", "place"): (
        "ca5d94e13dd9b3cc40e3829bdda31a66b881b0e4ffd927bfeb30568307e1622a",
        "0x1.343fce8b29a2cp+0"),
}


def _digest(mapping) -> tuple[str, str]:
    return (stable_hash(mapping.parts),
            float(mapping.partition.weighted_cut).hex())


def _pipeline_digests() -> dict:
    import repro
    from repro.experiments.setups import (
        brite_setup,
        campus_setup,
        teragrid_setup,
    )

    factories = {"campus": campus_setup, "teragrid": teragrid_setup,
                 "brite": brite_setup}
    out = {}
    for name, app, duration in PIPELINE_CELLS:
        cell = factories[name](
            app, intensity="moderate",
            workload_kwargs=dict(duration=float(duration)))
        results = repro.run_experiment(
            cell, approaches=("top", "place", "profile"),
            seed=PIPELINE_SEED, cache=None, engine="sequential")
        for approach, ev in results.items():
            out[(name, approach)] = _digest(ev.mapping)
    return out


def _synth_digests() -> dict:
    from repro.api import build_mapping
    from repro.experiments.workloads import build_workload
    from repro.routing.spf import build_routing
    from repro.topology.synth import synth_network

    net = synth_network(n_routers=1200, hosts_per_router=0.04, seed=0)
    workload = build_workload(net, "scalapack", "moderate", seed=0,
                              duration=30.0)
    tables = build_routing(net)
    return {
        ("synth1200", "top"): _digest(
            build_mapping(net, 16, "top", tables=tables)),
        ("synth1200", "place"): _digest(
            build_mapping(net, 16, "place", workload=workload,
                          tables=tables, seed=0)),
    }


@pytest.fixture(scope="module")
def pipeline_digests():
    return _pipeline_digests()


@pytest.mark.parametrize("cell", [c[0] for c in PIPELINE_CELLS])
@pytest.mark.parametrize("approach", ["top", "place", "profile"])
def test_pipeline_mapping_digest(pipeline_digests, cell, approach):
    assert pipeline_digests[(cell, approach)] == DIGESTS[(cell, approach)]


def test_synth_mapping_digest():
    got = _synth_digests()
    for key, value in got.items():
        assert value == DIGESTS[key], key


if __name__ == "__main__":  # print the table above for a deliberate re-pin
    for key, value in sorted({**_pipeline_digests(),
                              **_synth_digests()}.items()):
        print(f"    {key!r}: {value!r},")
