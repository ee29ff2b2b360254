"""The concurrency rule against known-good/known-bad fixtures.

Each fixture is a miniature project root; assertions pin the exact
``(rule, path, line)`` of every expected finding so a rule that drifts
(extra hit, missed hit, moved line) fails loudly.
"""

from tests.analysis.conftest import check_fixture, locations

BAD_LOOP = "src/repro/service/loop.py"


class TestAsyncioBlocking:
    def test_exact_findings(self):
        result = check_fixture("asyncio", "asyncio-blocking")
        assert locations(result.findings) == [
            ("asyncio-blocking", BAD_LOOP, 14),  # pool.submit via run_batch
            ("asyncio-blocking", BAD_LOOP, 18),  # time.sleep
            ("asyncio-blocking", BAD_LOOP, 23),  # subprocess.run
            ("asyncio-blocking", BAD_LOOP, 29),  # bare open()
        ]

    def test_blames_the_async_entry(self):
        result = check_fixture("asyncio", "asyncio-blocking")
        by_line = {f.line: f.message for f in result.findings}
        # line 14 sits in sync run_batch; the entry is the coroutine
        # that reaches it through the call graph.
        assert "reachable from async `repro.service.loop.handle_run`" in (
            by_line[14]
        )
        assert "reachable from async `repro.service.loop.handle_tick`" in (
            by_line[18]
        )

    def test_registered_thread_handlers_exempt(self):
        # clean.py registers handle_blocking (which calls time.sleep) as
        # a thread handler and even calls it from a coroutine — the
        # registry exemption must stop traversal at the handler.
        result = check_fixture("asyncio", "asyncio-blocking")
        assert not any("clean.py" in f.path for f in result.findings)

