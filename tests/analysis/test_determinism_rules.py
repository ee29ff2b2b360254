"""The three determinism rules against their known-good/bad fixtures."""

from tests.analysis.conftest import check_fixture, locations


class TestUnseededRng:
    def test_bad_module_exact_locations(self):
        result = check_fixture("unseeded_rng", "unseeded-rng")
        bad = "src/repro/engine/bad.py"
        assert locations(result.findings)[:3] == [
            ("unseeded-rng", bad, 9),  # random.random()
            ("unseeded-rng", bad, 13),  # np.random.rand(4)
            ("unseeded-rng", bad, 17),  # np.random.default_rng()
        ]

    def test_good_module_is_clean(self):
        result = check_fixture("unseeded_rng", "unseeded-rng")
        good = "src/repro/engine/good.py"
        assert not [f for f in result.findings if f.path == good]

    def test_suppression_moves_finding_aside(self):
        result = check_fixture("unseeded_rng", "unseeded-rng")
        sup = "src/repro/engine/suppressed.py"
        assert locations(result.suppressed) == [
            ("unseeded-rng", sup, 8),
        ]

    def test_wrong_rule_name_does_not_suppress(self):
        # Line 12's comment waives float-sum, not unseeded-rng.
        result = check_fixture("unseeded_rng", "unseeded-rng")
        sup = "src/repro/engine/suppressed.py"
        assert ("unseeded-rng", sup, 12) in locations(result.findings)


class TestFloatSum:
    def test_bad_module_exact_locations(self):
        result = check_fixture("float_sum", "float-sum")
        bad = "src/repro/partition/bad.py"
        assert locations(result.findings) == [
            ("float-sum", bad, 7),  # builtin sum()
            ("float-sum", bad, 11),  # np.sum()
        ]

    def test_fsum_int_and_method_calls_allowed(self):
        result = check_fixture("float_sum", "float-sum")
        good = "src/repro/partition/good.py"
        assert not [f for f in result.findings if f.path == good]

    def test_suppression(self):
        result = check_fixture("float_sum", "float-sum")
        good = "src/repro/partition/good.py"
        assert locations(result.suppressed) == [("float-sum", good, 21)]

    def test_reference_module_itself_exempt(self):
        # The oracle defines the accumulation order; it is never flagged.
        result = check_fixture("float_sum", "float-sum")
        ref = "src/repro/partition/_reference.py"
        assert not [f for f in result.findings if f.path == ref]


class TestSetIteration:
    def test_bad_module_exact_locations(self):
        result = check_fixture("set_iteration", "set-iteration")
        bad = "src/repro/routing/bad.py"
        assert locations(result.findings) == [
            ("set-iteration", bad, 6),  # for ... in {1, 2, 3}
            ("set-iteration", bad, 12),  # comprehension over set(...)
            ("set-iteration", bad, 18),  # for ... over a set-typed name
        ]

    def test_sorted_membership_and_rebinding_allowed(self):
        result = check_fixture("set_iteration", "set-iteration")
        good = "src/repro/routing/good.py"
        assert not [f for f in result.findings if f.path == good]

    def test_suppression(self):
        result = check_fixture("set_iteration", "set-iteration")
        good = "src/repro/routing/good.py"
        assert locations(result.suppressed) == [
            ("set-iteration", good, 20),
        ]
