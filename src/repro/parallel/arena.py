"""Zero-copy input shipping: write-once byte arenas shared with workers.

Per-task pickling of input splits was the marshalling cost the Xeon Phi
MapReduce work identifies as the first thing a fast runtime eliminates:
the parent serialized every split's bytes into a pipe and each worker
deserialized its own private copy. An arena inverts that: the parent
publishes the job's input bytes **once**, tasks cross the process
boundary as ``(index, start, stop)`` range triples, and each worker
attaches to the arena a single time per job and slices views out of it.

The backing is one temp file per job: the parent writes it, workers
``mmap`` it read-only by path (page-cache backed, so the pages are
shared between processes), and the parent unlinks it when the job's
results are in. It works at every input size, on every host and under
both ``fork`` and ``spawn`` start methods; workers evict their
attachment when the next job's token differs. Tokens are plain
picklable tuples so they ride inside job-setup messages.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from typing import Any

__all__ = [
    "SplitArena",
    "attach_view",
]


class SplitArena:
    """Parent-side handle on one job's published input bytes.

    ``token`` is what workers receive; :func:`attach_view` resolves it
    to a ``memoryview`` in the worker process. ``close()`` unlinks the
    backing file — call it once every task result is home.
    """

    def __init__(self, data: bytes):
        fd, path = tempfile.mkstemp(prefix="repro-arena-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        self._path: str | None = path
        self.token: tuple[str, int] = (path, len(data))

    def close(self) -> None:
        """Unlink the backing file (safe while workers still hold
        attachments — Linux keeps the pages until the last map goes
        away)."""
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
#: pool, so the previous job's mapping is evicted when the token changes.
_attached: dict[str, Any] = {}


def _evict() -> None:
    # Views must release their buffer exports before the backing mmap
    # can close (BufferError otherwise).
    view = _attached.pop("view", None)
    if view is not None:
        view.release()
    mapped = _attached.pop("mmap", None)
    if mapped is not None:
        mapped.close()
    _attached.pop("token", None)


def attach_view(token: tuple[str, int]) -> memoryview:
    """Resolve an arena token to this process's view of the bytes.

    The first call per token maps the file; repeats are a dict hit.
    Works in the parent too — unit tests use the same resolution.
    """
    if _attached.get("token") == token:
        return _attached["view"]
    _evict()
    path, size = token
    with open(path, "rb") as fh:
        mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
    _attached["mmap"] = mapped
    _attached["token"] = token
    _attached["view"] = view = memoryview(mapped)
    return view
