"""Parallel-safety rule over service-handler registrations.

``register_handler(kind, fn)`` callables run concurrently on service
worker threads against fork-shared warm state, so they get the same
checks as pool-dispatched workers: module-level only, no module-global
mutation.
"""

from tests.analysis.conftest import check_fixture, locations

BAD = "src/repro/service/bad.py"
GOOD = "src/repro/service/good.py"


def test_bad_registrations_exact_locations():
    result = check_fixture("handlers", "parallel-safety")
    assert locations(result.findings) == [
        ("parallel-safety", BAD, 10),  # _handle_leaky mutates _RESULTS
        ("parallel-safety", BAD, 16),  # _handle_counted writes _SERVED
        ("parallel-safety", BAD, 24),  # nested handler registered
        ("parallel-safety", BAD, 25),  # lambda registered
    ]


def test_messages_name_the_offence():
    result = check_fixture("handlers", "parallel-safety")
    by_line = {f.line: f.message for f in result.findings}
    assert "mutates module-level object `_RESULTS`" in by_line[10]
    assert "writes module global `_SERVED`" in by_line[16]
    assert "`inner` is defined inside a function" in by_line[24]
    assert "lambda" in by_line[25]


def test_clean_handlers_pass():
    result = check_fixture("handlers", "parallel-safety")
    assert not [f for f in result.findings if f.path == GOOD]


def test_real_service_handlers_are_clean():
    """The shipped repro.service package passes its own rule."""
    from pathlib import Path

    from repro.analysis import run_check

    root = Path(__file__).resolve().parents[2]
    result = run_check(root, rules=["parallel-safety"])
    assert not [
        f for f in result.findings if f.path.startswith("src/repro/service/")
    ]
