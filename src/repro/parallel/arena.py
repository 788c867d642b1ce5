"""Zero-copy input shipping: write-once byte arenas shared with workers.

Per-task pickling of input splits was the marshalling cost the Xeon Phi
MapReduce work identifies as the first thing a fast runtime eliminates:
the parent serialized every split's bytes into a pipe and each worker
deserialized its own private copy. An arena inverts that: the parent
publishes the job's input bytes **once**, tasks cross the process
boundary as ``(index, start, stop)`` range triples, and each worker
attaches to the arena a single time per job and slices views out of it.

Three backends, picked per job from what the input and the host allow
(there is no knob):

* ``inline`` — inputs under :data:`INLINE_MIN_BYTES` ship inside the
  token itself; a shared segment would cost more than it saves.
* ``shm`` — ``multiprocessing.shared_memory``: the parent creates a
  named segment, workers attach by name. Attached workers unregister
  the segment from their resource tracker (the parent owns the
  lifecycle; double-unlink warnings are the tracker misunderstanding
  exactly this ownership split).
* ``spill`` — an unlinked-on-close temp file the workers ``mmap``.
  Page-cache backed, so reads are as shared as ``shm`` on Linux; this
  is the fallback where creating the segment fails (``/dev/shm``
  unavailable or full, no ``shared_memory`` module).

The parent closes (and unlinks) the arena when the job's results are
in; workers evict their attachment when the next job's token differs.
Tokens are plain picklable tuples so they ride inside job-setup
messages under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from typing import Any

from ..errors import ConfigError

__all__ = [
    "INLINE_MIN_BYTES",
    "SplitArena",
    "attach_view",
]

#: Inputs smaller than this ship inline in the token — segment setup
#: would dominate for the seed-size test inputs.
INLINE_MIN_BYTES = 64 * 1024


def _create_shm(data: bytes):
    from multiprocessing import shared_memory

    seg = shared_memory.SharedMemory(create=True, size=len(data))
    seg.buf[: len(data)] = data
    return seg


class SplitArena:
    """Parent-side handle on one job's published input bytes.

    ``token`` is what workers receive; :func:`attach_view` resolves it
    to a ``memoryview`` in the worker process. ``close()`` releases the
    backing segment/file — call it once every task result is home.
    """

    def __init__(self, data: bytes, min_bytes: int | None = None):
        limit = INLINE_MIN_BYTES if min_bytes is None else min_bytes
        self._seg: Any = None
        self._path: str | None = None
        self.nbytes = len(data)
        if len(data) < max(limit, 1):
            self.backend = "inline"
            self.token: tuple = ("inline", data)
            return
        try:
            self._seg = _create_shm(data)
            self.backend = "shm"
            self.token = ("shm", self._seg.name, len(data))
            return
        except (OSError, ImportError):
            pass  # no usable shared memory on this host: spill instead
        fd, path = tempfile.mkstemp(prefix="repro-arena-")
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self._path = path
        self.backend = "spill"
        self.token = ("spill", path, len(data))

    def close(self) -> None:
        """Release the backing store (unlink is safe while workers still
        hold attachments — Linux keeps the pages until the last map or
        fd goes away)."""
        if self._seg is not None:
            self._seg.close()
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._seg = None
        if self._path is not None:
            try:
                os.unlink(self._path)
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._path = None

    def __enter__(self) -> "SplitArena":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# -- worker side -------------------------------------------------------------

#: One cached attachment per process: jobs run one at a time through the
#: pool, so the previous job's segment is evicted when the token changes.
_attached: dict[str, Any] = {}


def _evict() -> None:
    # Views must release their buffer exports before the backing mmap
    # or segment can close (BufferError otherwise).
    view = _attached.pop("view", None)
    if view is not None:
        view.release()
    seg = _attached.pop("seg", None)
    if seg is not None:
        seg.close()
    mapped = _attached.pop("mmap", None)
    if mapped is not None:
        mapped.close()
    _attached.pop("token", None)


def attach_view(token: tuple) -> memoryview:
    """Resolve an arena token to this process's view of the bytes.

    The first call per token attaches (opens the shm segment or maps the
    spill file); repeats are a dict hit. Works in the parent too — the
    serial path and unit tests use the same resolution.
    """
    if _attached.get("token") == token:
        return _attached["view"]
    _evict()
    kind = token[0]
    if kind == "inline":
        view = memoryview(token[1])
    elif kind == "shm":
        name, size = token[1], token[2]
        # Map the segment's /dev/shm file directly: same pages, but no
        # SharedMemory object and therefore no resource-tracker
        # registration — attaching is a read, not an ownership claim.
        path = f"/dev/shm/{name.lstrip('/')}"
        try:
            with open(path, "rb") as fh:
                mapped = mmap.mmap(fh.fileno(), size,
                                   access=mmap.ACCESS_READ)
            _attached["mmap"] = mapped
            view = memoryview(mapped)
        except OSError:  # pragma: no cover - non-Linux shm layout
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(name=name)
            _untrack_shm(name)
            _attached["seg"] = seg
            view = memoryview(seg.buf)[:size]
    elif kind == "spill":
        path, size = token[1], token[2]
        with open(path, "rb") as fh:
            mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
        _attached["mmap"] = mapped
        view = memoryview(mapped)
    else:  # pragma: no cover - defensive
        raise ConfigError(f"unknown arena token kind {kind!r}")
    _attached["token"] = token
    _attached["view"] = view
    return view


def _untrack_shm(name: str) -> None:
    """Tell this process's resource tracker the segment isn't ours.

    Attaching registers the segment for cleanup-on-exit, but the parent
    owns unlinking; without this, every worker exit would try to unlink
    an already-released segment and log a spurious leak warning.
    """
    try:  # pragma: no cover - depends on tracker internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name.lstrip('/')}", "shared_memory")
    except Exception:
        pass
