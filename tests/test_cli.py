"""Tests for the command-line tools."""

import json

import numpy as np
import pytest

from repro.cli import massf
from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.profiling.dump import write_dump_dir
from repro.profiling.netflow import NetFlowCollector
from repro.topology import dml
from repro.topology.campus import campus_network


@pytest.fixture
def campus_dml(tmp_path):
    path = tmp_path / "campus.dml"
    dml.dump(campus_network(), path)
    return path


def test_massf_map_top(campus_dml, tmp_path, capsys):
    out = tmp_path / "parts.txt"
    rc = massf(["map", str(campus_dml), "-k", "3", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].lower().startswith("# top")
    assignments = [tuple(map(int, l.split())) for l in lines[1:]]
    assert len(assignments) == 60
    assert {p for _, p in assignments} == {0, 1, 2}


def test_massf_map_stdout(campus_dml, capsys):
    rc = massf(["map", str(campus_dml), "-k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 61


def test_massf_map_profile_from_dumps(campus_dml, tmp_path, capsys):
    # Produce a dump directory from a short emulation.
    from repro.routing.spf import build_routing

    net = campus_network()
    tables = build_routing(net)
    collector = NetFlowCollector()
    kern = EmulationKernel(net, tables, collector=collector)
    hosts = [h.node_id for h in net.hosts()]
    for i in range(20):
        kern.submit_transfer(
            Transfer(src=hosts[i % 5], dst=hosts[10 + i % 7], nbytes=50e3),
            float(i),
        )
    kern.run(until=40.0)
    dump_dir = tmp_path / "dumps"
    write_dump_dir(collector, dump_dir)

    rc = massf([
        "map", str(campus_dml), "-k", "3", "--approach", "profile",
        "--netflow-dir", str(dump_dir),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.lower().startswith("# profile")


def test_massf_map_profile_requires_dumps(campus_dml):
    with pytest.raises(SystemExit):
        massf(["map", str(campus_dml), "-k", "3", "--approach", "profile"])


def test_massf_emulate_json(tmp_path):
    out = tmp_path / "result.json"
    rc = massf([
        "emulate",
        "--topology", "campus", "--app", "none", "--intensity", "light",
        "--approaches", "top", "--seed", "3", "--duration", "40",
        "-o", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "top" in payload["approaches"]
    metrics = payload["approaches"]["top"]
    assert metrics["load_imbalance"] >= 0.0
    assert metrics["network_emulation_time_s"] > 0.0
    assert payload["engine"] == "sequential"


def test_massf_emulate_engine_par_matches_seq(tmp_path):
    """--engine par routes the evaluation emulation through the LP engine;
    traces are bit-identical, so every reported metric must match seq."""
    payloads = {}
    for engine in ("seq", "par"):
        out = tmp_path / f"{engine}.json"
        rc = massf([
            "emulate",
            "--topology", "campus", "--app", "none", "--intensity",
            "light", "--approaches", "top", "--seed", "3",
            "--duration", "20", "--engine", engine, "-o", str(out),
        ])
        assert rc == 0
        payloads[engine] = json.loads(out.read_text())
    assert payloads["seq"]["engine"] == "sequential"
    assert payloads["par"]["engine"] == "parallel"
    assert (payloads["seq"]["approaches"]["top"]
            == payloads["par"]["approaches"]["top"])


def test_massf_netflow_summary(tmp_path, capsys):
    from repro.routing.spf import build_routing

    net = campus_network()
    tables = build_routing(net)
    collector = NetFlowCollector()
    kern = EmulationKernel(net, tables, collector=collector)
    hosts = [h.node_id for h in net.hosts()]
    for i in range(10):
        kern.submit_transfer(
            Transfer(src=hosts[0], dst=hosts[20], nbytes=30e3), float(i)
        )
    kern.run(until=30.0)
    dump_dir = tmp_path / "dumps"
    write_dump_dir(collector, dump_dir)

    rc = massf(["netflow", str(dump_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "top routers" in out
    assert "top flows" in out


def test_massf_netflow_empty_dir(tmp_path, capsys):
    rc = massf(["netflow", str(tmp_path)])
    assert rc == 1


# --------------------------------------------------------------------- #
# Unified `massf` entry point
# --------------------------------------------------------------------- #
def test_massf_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        massf([])


def test_massf_map_subcommand(campus_dml, capsys):
    rc = massf(["map", str(campus_dml), "-k", "2"])
    assert rc == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 61


def test_massf_sweep_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    rc = massf([
        "sweep", "--topology", "campus", "--app", "scalapack",
        "--intensity", "light", "--approaches", "top",
        "--seeds", "1,2", "--workers", "0", "--duration", "50",
        "--cache-dir", str(tmp_path / "cache"),
        "-o", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["seeds"] == [1, 2]
    assert "top" in payload["metrics"]["imbalance"]
    assert payload["metrics"]["imbalance"]["top"]["mean"] >= 0.0
    assert payload["cache"]["misses"] > 0
    captured = capsys.readouterr()
    assert "seed=1" in captured.err  # progress lines
    assert "cache" in captured.err  # stats summary


def test_massf_sweep_bad_seeds(capsys):
    with pytest.raises(SystemExit):
        massf(["sweep", "--seeds", "one,two"])


@pytest.mark.parametrize("flags", [
    ["--retries", "-1"], ["--workers", "-1"], ["--timeout", "0"],
    ["--timeout", "-1"], ["--timeout", "nan"],
])
def test_massf_sweep_bad_runtime_flags_are_usage_errors(flags, capsys):
    """A bad runtime flag is refused before any cell runs: no traceback,
    and no timeout that silently never fires."""
    with pytest.raises(SystemExit) as exc:
        massf(["sweep", "--seeds", "1", "--no-cache", *flags])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--queue-size", "0"], ["--workers", "0"], ["--default-timeout", "nan"],
    ["--budget-mb", "-1"], ["--max-delta-changes", "-1"],
])
def test_massf_serve_bad_values_are_usage_errors(flags, capsys, monkeypatch):
    import repro.service

    served = []
    monkeypatch.setattr(repro.service, "serve",
                        lambda config, log=None: served.append(config))
    with pytest.raises(SystemExit) as exc:
        massf(["serve", "--port", "0", *flags])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not served


def test_massf_sweep_stats_and_report(tmp_path, capsys):
    """--stats writes a telemetry snapshot `massf stats` can render."""
    from repro.cli import massf
    from repro.obs import SCHEMA_VERSION

    stats = tmp_path / "tel.json"
    rc = massf([
        "sweep", "--topology", "campus", "--app", "scalapack",
        "--intensity", "light", "--approaches", "top,place",
        "--seeds", "1", "--workers", "0", "--duration", "50",
        "--no-cache", "--quiet", "--stats", str(stats),
    ])
    assert rc == 0
    snapshot = json.loads(stats.read_text())
    assert snapshot["schema"] == SCHEMA_VERSION
    assert "sweep" in snapshot["spans"]
    assert len(snapshot["series"]["cells"]) == 2
    assert len(snapshot["timelines"]["engine.load"]) == 2
    capsys.readouterr()

    rc = massf(["stats", str(stats)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== phase breakdown ==" in out
    assert "== per-engine-node load timeline ==" in out
    assert "approach=place" in out

    rc = massf(["stats", str(stats), "--csv", str(tmp_path / "csv")])
    assert rc == 0
    written = sorted(p.name for p in (tmp_path / "csv").glob("*.csv"))
    assert "spans.csv" in written and "series_cells.csv" in written


def test_massf_stats_sections(tmp_path, capsys):
    from repro.cli import massf
    from repro.obs import Telemetry, write_json

    tel = Telemetry()
    with tel.span("solo"):
        pass
    tel.count("cache.hits", 1)
    path = tmp_path / "tel.json"
    write_json(tel, path)

    assert massf(["stats", str(path), "--section", "phases"]) == 0
    out = capsys.readouterr().out
    assert "solo" in out and "cache.hits" not in out

    assert massf(["stats", str(path), "--section", "counters"]) == 0
    out = capsys.readouterr().out
    assert "cache.hits" in out and "solo" not in out
