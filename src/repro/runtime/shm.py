"""Shared-memory arrays: zero-copy state for forked workers.

The routing tables are two dense ``(n, n)`` matrices — tens of megabytes
at the paper's 5–10k-router scale.  Forked children inherit them
without pickling, but plain fork inheritance is copy-on-write: once the
parent splices updated rows in place (the incremental engine in
:mod:`repro.routing.delta`), long-lived children — the LP worker
processes of :mod:`repro.engine.lp` — keep reading their stale private
snapshot.

Backing the arrays with :class:`multiprocessing.shared_memory.SharedMemory`
fixes both halves at once: the mapping is ``MAP_SHARED``, so forked
children observe the parent's in-place writes immediately, and a
:class:`ShmHandle` (name + shape + dtype, a few dozen bytes) is all that
ever crosses a pickle boundary — :func:`attach` rebuilds a zero-copy view
on the other side.

Lifetime rules
--------------
The creating process owns every segment: :class:`ShmArena` unlinks them on
:meth:`ShmArena.close` (or context-manager exit).  Attaching processes
call :func:`attach`, which *unregisters* the segment from the inherited
``resource_tracker`` so a worker exiting does not tear the segment out
from under its siblings.  Segment names are derived from the creating
pid plus a monotonic counter — deterministic, collision-free within a
process, and free of the banned ``random`` module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = ["ShmHandle", "SharedArray", "ShmArena", "attach"]

#: Monotonic per-process suffix for segment names.
_SEGMENT_COUNTER = 0


def _next_segment_name() -> str:
    global _SEGMENT_COUNTER
    _SEGMENT_COUNTER += 1
    return f"massf-{os.getpid()}-{_SEGMENT_COUNTER}"


@dataclass(frozen=True)
class ShmHandle:
    """Picklable descriptor of one shared array (the wire format).

    Attributes
    ----------
    name:
        OS-level shared-memory segment name.
    shape:
        Array shape.
    dtype:
        Numpy dtype string (``np.dtype(...).str`` — endianness included).
    """

    name: str
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


class SharedArray:
    """One shared-memory segment exposed as a numpy array.

    Create with :meth:`create` (copies ``data`` into a fresh segment) or
    :func:`attach` (zero-copy view of an existing one).  The ``array``
    attribute is an ordinary ndarray backed by the mapping; in-place
    writes are visible to every process holding the segment.
    """

    def __init__(self, seg, handle: ShmHandle, *, owner: bool) -> None:
        self._seg = seg
        self.handle = handle
        self.owner = owner
        self.array = np.ndarray(
            handle.shape, dtype=np.dtype(handle.dtype), buffer=seg.buf
        )

    @classmethod
    def create(cls, data: np.ndarray) -> "SharedArray":
        """Copy ``data`` into a new shared segment owned by this process."""
        from multiprocessing import shared_memory

        data = np.ascontiguousarray(data)
        handle = ShmHandle(
            name=_next_segment_name(), shape=tuple(data.shape),
            dtype=data.dtype.str,
        )
        seg = shared_memory.SharedMemory(
            name=handle.name, create=True, size=max(1, data.nbytes)
        )
        shared = cls(seg, handle, owner=True)
        shared.array[...] = data
        return shared

    def close(self) -> None:
        """Drop this process's mapping (owners also unlink the segment)."""
        # The ndarray view pins the buffer; release it before closing.
        self.array = None
        self._seg.close()
        if self.owner:
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __reduce__(self):
        raise TypeError(
            "SharedArray is not picklable; ship its .handle and attach()"
        )


def attach(handle: ShmHandle) -> SharedArray:
    """Map an existing segment (zero-copy) from its :class:`ShmHandle`.

    The attaching side must not register the segment with the resource
    tracker: the creator owns the unlink, the tracker's cache is a plain
    set shared across forks, and an attach-side register/unregister pair
    would silently cancel the creator's registration (Python < 3.13 has
    no ``track=False``).  The register call is suppressed for the
    duration of the mapping instead.
    """
    from multiprocessing import resource_tracker, shared_memory

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        seg = shared_memory.SharedMemory(name=handle.name, create=False)
    finally:
        resource_tracker.register = original_register
    return SharedArray(seg, handle, owner=False)


class ShmArena:
    """A named collection of shared arrays with a generation counter.

    The arena is the unit the delta engine and the LP pool agree on: the
    parent shares the routing/link arrays once, hands out
    :meth:`handles`, and bumps :attr:`generation` after every in-place
    update.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, SharedArray] = {}
        self.generation = 0
        self._closed = False

    def share(self, label: str, data: np.ndarray) -> np.ndarray:
        """Copy ``data`` into the arena; returns the shared-backed array.

        Re-sharing an existing label with a matching shape/dtype writes
        in place (same segment, same handle); a mismatch replaces the
        segment.
        """
        if self._closed:
            raise ValueError("arena is closed")
        data = np.ascontiguousarray(data)
        cur = self._arrays.get(label)
        if cur is not None:
            if (cur.handle.shape == tuple(data.shape)
                    and np.dtype(cur.handle.dtype) == data.dtype):
                cur.array[...] = data
                return cur.array
            cur.close()
            del self._arrays[label]
        shared = SharedArray.create(data)
        self._arrays[label] = shared
        return shared.array

    def __getitem__(self, label: str) -> np.ndarray:
        return self._arrays[label].array

    def __contains__(self, label: str) -> bool:
        return label in self._arrays

    def handles(self) -> dict[str, ShmHandle]:
        """Picklable ``label -> handle`` map for attaching processes."""
        return {
            label: shared.handle for label, shared in self._arrays.items()
        }

    def bump(self) -> int:
        """Advance the generation (call after in-place updates)."""
        self.generation += 1
        return self.generation

    @property
    def nbytes(self) -> int:
        return int(
            sum(shared.handle.nbytes for shared in self._arrays.values())
        )

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shared in self._arrays.values():
            shared.close()
        self._arrays.clear()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __reduce__(self):
        raise TypeError(
            "ShmArena is not picklable; ship .handles() and attach()"
        )
