"""Daemon pool mechanics: batching, reuse, crashes, reaping, arenas.

``tests/test_parallel.py`` proves the *jobs* that ride the pool are
byte-identical to serial; this module tests the pool machinery itself —
the properties that make a persistent pool safe to leave running:
batches reassemble in submission order, workers survive across jobs
with their caches, a crashed worker is respawned and its batches
replayed, an idle worker reaps itself cleanly, and the input arena
actually moves bytes without pickling them per task.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.config import RuntimeConfig
from repro.errors import ConfigError, ReproError
from repro.parallel.arena import SplitArena, attach_view
from repro.parallel.daemon import (
    DaemonPool,
    WorkerCrashError,
    get_pool,
    pool_metrics,
    resolve_batch_size,
    shutdown_pool,
)


# -- module-level task functions (pool tasks must pickle) --------------------


def _square(x):
    return x * x


def _pid_of(_x):
    return os.getpid()


def _boom(x):
    raise ValueError(f"task {x} failed")


def _bad_init():
    raise RuntimeError("init exploded")


def _slow_square(x):
    time.sleep(0.02)
    return x * x


def _die_once(marker: str):
    """Crash the worker process the first time only (marker file)."""
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashed")
        os._exit(13)
    return "survived"


def _die_always(_x):
    os._exit(13)


_SETUP: dict[str, int] = {}


def _count_setup(value: int = 1) -> None:
    _SETUP["calls"] = _SETUP.get("calls", 0) + value


def _read_setup(_x) -> int:
    return _SETUP.get("calls", 0)


@pytest.fixture
def pool():
    """A private two-worker-capable pool, torn down hard."""
    p = DaemonPool(idle_timeout=0)
    yield p
    p.shutdown()


# -- batch sizing -------------------------------------------------------------


class TestResolveBatchSize:
    def test_explicit_wins(self):
        assert resolve_batch_size(100, 4, batch_size=3) == 3

    def test_adaptive_targets_batches_per_worker(self):
        # 64 tasks / (4 workers * 4 waves) = 4 per batch
        assert resolve_batch_size(64, 4) == 4
        # small jobs keep per-task dispatch
        assert resolve_batch_size(6, 4) == 1
        assert resolve_batch_size(1, 1) == 1

    def test_adaptive_is_capped(self):
        assert resolve_batch_size(1_000_000, 2) == 64


def test_resolve_start_method_env(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_START", "spawn")
    assert RuntimeConfig.from_env().pool_start == "spawn"
    monkeypatch.setenv("REPRO_POOL_START", "carrier-pigeon")
    with pytest.raises(ConfigError):
        RuntimeConfig.from_env()
    monkeypatch.delenv("REPRO_POOL_START")
    assert RuntimeConfig.from_env().pool_start in ("fork", "spawn")


# -- dispatch and ordering ----------------------------------------------------


def test_run_job_ordered_and_batched(pool):
    results = pool.run_job(2, _square, list(range(50)), batch_size=4)
    assert results == [i * i for i in range(50)]


def test_run_job_empty_payloads(pool):
    assert pool.run_job(2, _square, []) == []


def test_imap_streams_in_submission_order(pool):
    it = pool.imap_job(2, _slow_square, list(range(12)), batch_size=1)
    assert list(it) == [i * i for i in range(12)]


def test_workers_survive_across_jobs(pool):
    first = set(pool.run_job(2, _pid_of, list(range(8)), batch_size=1))
    second = set(pool.run_job(2, _pid_of, list(range(8)), batch_size=1))
    assert first == second  # same processes served both jobs
    assert os.getpid() not in first


def test_setup_runs_once_per_worker_per_job(pool):
    counts = pool.run_job(1, _read_setup, [0, 1, 2],
                          init_fn=_count_setup, batch_size=1)
    assert counts == [1, 1, 1]
    counts = pool.run_job(1, _read_setup, [0, 1],
                          init_fn=_count_setup, batch_size=1)
    assert counts == [2, 2]  # same worker, fresh setup, kept state


def test_abandoned_job_does_not_poison_the_next(pool):
    it = pool.imap_job(2, _slow_square, list(range(20)), batch_size=2)
    assert next(it) == 0
    it.close()  # abandon 19 tasks mid-flight
    assert pool.run_job(2, _square, [5, 6]) == [25, 36]


def test_task_error_propagates_with_type(pool):
    with pytest.raises(ValueError, match="task 3 failed"):
        pool.run_job(2, _boom, [3])


def test_init_error_propagates(pool):
    with pytest.raises(RuntimeError, match="init exploded"):
        pool.run_job(2, _square, [1, 2, 3, 4], init_fn=_bad_init,
                     batch_size=1)


# -- crash handling -----------------------------------------------------------


def test_crashed_worker_respawns_and_batch_replays(pool, tmp_path):
    marker = str(tmp_path / "crashed-once")
    results = pool.run_job(1, _die_once, [marker], batch_size=1)
    assert results == ["survived"]
    assert pool_metrics().snapshot()["counters"]["pool.respawned"] >= 1
    # the pool is still usable afterwards
    assert pool.run_job(1, _square, [9]) == [81]


def test_batch_that_kills_twice_raises(pool):
    with pytest.raises(WorkerCrashError, match="crashed worker slot"):
        pool.run_job(1, _die_always, [0], batch_size=1)
    # the slot was respawned; the pool still works
    assert pool.run_job(1, _square, [3]) == [9]


def test_idle_worker_reaps_itself():
    pool = DaemonPool(idle_timeout=0.2)
    try:
        assert pool.run_job(1, _square, [2]) == [4]
        worker = pool._workers[0]
        worker.proc.join(5.0)
        assert not worker.alive
        assert worker.proc.exitcode == 0  # clean self-reap, not a crash
        # the next job lazily respawns the slot
        assert pool.run_job(1, _square, [3]) == [9]
        assert pool._workers[0].proc.pid != worker.proc.pid
    finally:
        pool.shutdown()


def test_status_and_shutdown(pool):
    pool.run_job(2, _square, [1, 2, 3, 4], batch_size=1)
    status = pool.status()
    assert status.slots == 2
    assert len(status.alive) == 2
    assert status.counters["pool.jobs"] >= 1
    assert pool.shutdown() == 2
    assert pool.status().alive == []


def test_broadcast_reaches_every_worker(pool):
    pids = pool.broadcast(_count_setup, (5,), workers=2)
    assert len(pids) == len(set(pids)) == 2
    counts = pool.run_job(2, _read_setup, [0, 1], batch_size=1)
    assert counts == [5, 5]


# -- the process-global pool ---------------------------------------------------


def test_get_pool_recreates_on_env_change(monkeypatch):
    shutdown_pool()
    monkeypatch.setenv("REPRO_POOL_IDLE", "123")
    first = get_pool()
    assert first.idle_timeout == 123.0
    assert get_pool() is first
    monkeypatch.setenv("REPRO_POOL_IDLE", "456")
    second = get_pool()
    assert second is not first
    assert second.idle_timeout == 456.0
    shutdown_pool()


# -- arenas --------------------------------------------------------------------


@pytest.mark.parametrize("data", [b"tiny", bytes(range(256)) * 300],
                         ids=["tiny", "large"])
def test_arena_roundtrip(data):
    # One backing at every size: a temp file the workers mmap.
    with SplitArena(data) as arena:
        view = attach_view(arena.token)
        assert len(view) == len(data)
        assert bytes(view[0:4]) == data[0:4]
        assert bytes(view[len(data) - 4:len(data)]) == data[-4:]


def test_closed_arena_leaves_no_file():
    arena = SplitArena(b"x" * 70_000)
    path, size = arena.token
    assert os.path.getsize(path) == size == 70_000
    view = attach_view(arena.token)
    arena.close()
    assert not os.path.exists(path)  # unlinked with the arena
    assert bytes(view[:2]) == b"xx"  # an attached worker keeps its pages
    arena.close()  # idempotent


def test_attach_evicts_previous_token():
    a = SplitArena(b"a" * 100)
    b = SplitArena(b"b" * 100)
    try:
        view_a = attach_view(a.token)
        assert bytes(view_a[:1]) == b"a"
        assert attach_view(a.token) is view_a  # cached, not re-mapped
        view_b = attach_view(b.token)
        assert bytes(view_b[:1]) == b"b"
        with pytest.raises(ValueError):
            view_a[:1]  # evicted: the old view was released
    finally:
        a.close()
        b.close()


# -- pool CLI ------------------------------------------------------------------


def test_pool_cli_roundtrip(capsys):
    from repro.cli import main

    assert main(["pool", "warm", "--apps", "WC", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "warmed 2 worker(s) for WC" in out
    assert "alive" in out
    assert main(["pool", "status"]) == 0
    assert main(["pool", "shutdown"]) == 0
    out = capsys.readouterr().out
    assert "stopped 2 worker(s)" in out


def test_pool_cli_warm_rejects_unknown_app():
    from repro.cli import main

    assert main(["pool", "warm", "--apps", "NOPE"]) == 1
