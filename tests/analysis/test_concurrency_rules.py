"""The four concurrency rule families against known-good/known-bad fixtures.

Each fixture is a miniature project root; assertions pin the exact
``(rule, path, line)`` of every expected finding so a rule that drifts
(extra hit, missed hit, moved line) fails loudly.
"""

from tests.analysis.conftest import check_fixture, locations

BAD_LOOP = "src/repro/service/loop.py"
BAD_USE = "src/repro/runtime/use.py"
BAD_STATE = "src/repro/service/state.py"
BAD_SIG = "src/repro/runtime/sig.py"


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


class TestShmLifecycle:
    def test_exact_findings(self):
        result = check_fixture("shm_lifecycle", "shm-lifecycle")
        assert locations(result.findings) == [
            ("shm-lifecycle", BAD_USE, 13),  # close with live view
            ("shm-lifecycle", BAD_USE, 19),  # pickling the arena
            ("shm-lifecycle", BAD_USE, 24),  # worker returns shm object
        ]

    def test_messages_name_the_objects(self):
        result = check_fixture("shm_lifecycle", "shm-lifecycle")
        by_line = {f.line: f.message for f in result.findings}
        assert "live view `view` (bound line 11)" in by_line[13]
        assert "pickling shm object `arena`" in by_line[19]
        assert "worker `_attach_worker` returns shm object" in by_line[24]

    def test_privatize_and_del_are_clean(self):
        result = check_fixture("shm_lifecycle", "shm-lifecycle")
        assert not any("clean.py" in f.path for f in result.findings)


class TestLockDiscipline:
    def test_exact_findings(self):
        result = check_fixture("lock_discipline", "lock-discipline")
        assert locations(result.findings) == [
            ("lock-discipline", BAD_STATE, 14),  # module global, no lock
            ("lock-discipline", BAD_STATE, 19),  # pool.submit while holding lock
            ("lock-discipline", BAD_STATE, 30),  # attr write, no lock
            ("lock-discipline", BAD_STATE, 34),  # await holding lock
        ]

    def test_messages(self):
        result = check_fixture("lock_discipline", "lock-discipline")
        by_line = {f.line: f.message for f in result.findings}
        assert "write to `_STATS`" in by_line[14]
        assert "outside `with _LOCK:`" in by_line[14]
        assert "pool.submit() dispatch while holding `_LOCK`" in by_line[19]
        assert "write to `self._total`" in by_line[30]
        assert "await while holding `self._lock`" in by_line[34]

    def test_guarded_writes_are_clean(self):
        # safe.py repeats every pattern with the lock held (and an
        # undeclared __init__, which is exempt by design).
        result = check_fixture("lock_discipline", "lock-discipline")
        assert not any("safe.py" in f.path for f in result.findings)


class TestSignalMainThread:
    def test_exact_findings(self):
        result = check_fixture("signal_thread", "signal-main-thread")
        assert locations(result.findings) == [
            ("signal-main-thread", BAD_SIG, 14),  # signal.signal
            ("signal-main-thread", BAD_SIG, 15),  # signal.setitimer
            ("signal-main-thread", BAD_SIG, 27),  # signal.alarm
        ]

    def test_blames_the_thread_entry(self):
        result = check_fixture("signal_thread", "signal-main-thread")
        by_line = {f.line: f.message for f in result.findings}
        # _arm is reached from the registered handler; _poll is a
        # Thread(target=...) entry in its own right.
        assert "thread entry `repro.runtime.sig.handle_map`" in by_line[14]
        assert "thread entry `repro.runtime.sig._poll`" in by_line[27]

    def test_guarded_calls_are_clean(self):
        # sig_ok.py guards via main_thread() check and try/ValueError.
        result = check_fixture("signal_thread", "signal-main-thread")
        assert not any("sig_ok.py" in f.path for f in result.findings)

