"""CLI tests for spec-driven and custom-network emulation."""

import json

import pytest

from repro.cli import massf
from repro.topology import dml
from repro.topology.campus import campus_network


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "workload.spec"
    path.write_text("""
Experiment [ duration 40 ]
Traffic [ name HTTP
  request_size 100KByte
  think_time 5
  client_per_server 3
  server_number 2
]
""")
    return path


def test_emulate_with_spec(spec_file, tmp_path):
    out = tmp_path / "out.json"
    rc = massf([
        "emulate",
        "--topology", "campus", "--spec", str(spec_file),
        "--approaches", "top,place", "--seed", "4", "-o", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert set(payload["approaches"]) == {"top", "place"}


def test_emulate_custom_network(spec_file, tmp_path):
    net_path = tmp_path / "net.dml"
    dml.dump(campus_network(), net_path)
    out = tmp_path / "out.json"
    rc = massf([
        "emulate",
        "--network", str(net_path), "-k", "4", "--spec", str(spec_file),
        "--approaches", "top", "-o", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert "4 engine nodes" in payload["setup"]


def test_emulate_custom_network_requires_k(spec_file, tmp_path):
    net_path = tmp_path / "net.dml"
    dml.dump(campus_network(), net_path)
    with pytest.raises(SystemExit):
        massf([
            "emulate", "--network", str(net_path), "--spec", str(spec_file),
        ])
