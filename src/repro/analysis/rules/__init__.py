"""Shipped rule set; importing this package registers every rule."""

from repro.analysis.rules.determinism import (
    FloatSumRule,
    SetIterationRule,
    UnseededRngRule,
)
from repro.analysis.rules.parallel import ParallelSafetyRule
from repro.analysis.rules.parity import ParityCoverageRule
from repro.analysis.rules.telemetry import TelemetrySpanRule

__all__ = [
    "UnseededRngRule",
    "FloatSumRule",
    "SetIterationRule",
    "ParityCoverageRule",
    "ParallelSafetyRule",
    "TelemetrySpanRule",
]
