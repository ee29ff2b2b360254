"""Error-path tests for the DML parser.

Every file in ``tests/topology/fixtures/`` is a deliberately broken
network description; the parser must reject each with a
:class:`~repro.topology.dml.DMLError` — never a bare ``ValueError`` /
``KeyError`` / ``IndexError`` escaping from ``int()`` or the
:class:`~repro.topology.network.Network` builder — and the message must
name the offending block so a bad line in a large file is findable.
"""

from pathlib import Path

import pytest

from repro.topology import dml

FIXTURES = Path(__file__).parent / "fixtures"
_CORPUS = sorted(FIXTURES.glob("*.dml"))


def test_corpus_is_nonempty():
    assert len(_CORPUS) >= 10


@pytest.mark.parametrize("path", _CORPUS, ids=lambda p: p.stem)
def test_bad_fixture_raises_dml_error(path):
    text = path.read_text(encoding="utf-8")
    with pytest.raises(dml.DMLError) as excinfo:
        dml.loads(text)
    # Informative: a real message, not an empty wrapper.
    assert str(excinfo.value).strip()


# --------------------------------------------------------------------- #
# Pinned messages: the context must identify block + key + bad value
# --------------------------------------------------------------------- #
def _load(stem: str) -> str:
    return (FIXTURES / f"{stem}.dml").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem,match", [
    ("bad_node_id", r"node block: key 'id' must be an integer, got 'zero'"),
    ("missing_kind", r"node block 0: missing key 'kind'"),
    ("unknown_kind", r"node block 0: unknown node kind 'gateway'"),
    ("duplicate_name", r"node block 1: duplicate node name 'a'"),
    ("non_dense_ids", r"node ids must be dense and start at 0"),
    ("bad_bandwidth",
     r"link block 0: key 'bandwidth' must be a number, got 'fast'"),
    ("negative_bandwidth",
     r"link block 0: bandwidth and latency must be positive"),
    ("nan_bandwidth",
     r"link block 0: .* must be positive and finite; got bandwidth_bps=nan"),
    ("inf_latency",
     r"link block 0: .* must be positive and finite; .*latency_s=inf"),
    ("self_link", r"link block 0: self-links are not allowed"),
    ("link_out_of_range", r"link block 0: node id 9 out of range"),
    ("link_missing_latency", r"link block 0: missing key 'latency'"),
    ("nested_scalar", r"key 'id' must be a scalar, got a nested block"),
    ("dangling_key", r"dangling key 'name'"),
    ("unbalanced", r"unbalanced brackets"),
    ("unterminated_string", r"unterminated string"),
    ("trailing_tokens", r"trailing tokens after net block"),
])
def test_error_message_names_the_problem(stem, match):
    with pytest.raises(dml.DMLError, match=match):
        dml.loads(_load(stem))


def test_dml_error_is_a_value_error():
    """Callers catching ValueError keep working."""
    with pytest.raises(ValueError):
        dml.loads(_load("bad_node_id"))


def test_node_entry_must_be_block():
    with pytest.raises(dml.DMLError, match=r"node entries must be blocks"):
        dml.loads('net [ name "x" node 3 ]')


def test_link_entry_must_be_block():
    with pytest.raises(dml.DMLError, match=r"link entries must be blocks"):
        dml.loads('net [ name "x" link 3 ]')


def test_good_files_still_parse_after_error_hardening():
    """The corpus is about rejection; a well-formed sibling still loads."""
    text = """
net [ name "ok"
  node [ id 0 name "r" kind router ]
  node [ id 1 name "h" kind host site "edge" ]
  link [ id 0 from 0 to 1 bandwidth 1e8 latency 0.002 ]
]
"""
    net = dml.loads(text)
    assert net.n_nodes == 2
    assert net.n_links == 1
    assert net.node("h").site == "edge"
