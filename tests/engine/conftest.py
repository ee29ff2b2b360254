"""Engine-test fixtures: run one case under each of the kernel's drains."""

from __future__ import annotations

import math

import pytest

import repro.engine.kernel as kernel_mod


class Drains:
    """Iterating pins :meth:`EmulationKernel.run`'s selection to each drain
    in turn (``"windows"``, then ``"per_event"``) by patching the private
    density threshold — there is no public option.  Order-coupled kernels
    (a NetFlow collector) drain per event whatever the pin."""

    names = ("windows", "per_event")

    def __init__(self, monkeypatch) -> None:
        self._monkeypatch = monkeypatch

    def __iter__(self):
        for name in self.names:
            self.pin(name)
            yield name

    def pin(self, name: str) -> None:
        threshold = {"windows": 0.0, "per_event": math.inf}[name]
        self._monkeypatch.setattr(kernel_mod, "_PER_EVENT_DENSITY", threshold)

    @staticmethod
    def check(kernel, name: str) -> None:
        """Assert ``kernel`` ran the drain ``name`` pins it to."""
        expected = "per_event" if kernel._ordered else name
        ran = "windows" if kernel.stats.windows else "per_event"
        assert ran == expected, (ran, expected)


@pytest.fixture
def drains(monkeypatch) -> Drains:
    return Drains(monkeypatch)
