"""Daemon pool mechanics: batching, reuse, crashes, lifetime.

``tests/test_parallel.py`` proves the *jobs* that ride the pool are
byte-identical to serial; this module tests the pool machinery itself —
the properties that make a persistent pool safe to leave running:
batches reassemble in submission order, workers survive across jobs
with their caches, a crashed worker is respawned and its batches
replayed, and the workers of a driver that dies exit with it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.config import RuntimeConfig
from repro.errors import ConfigError, ReproError
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
    p = DaemonPool()
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
    results = list(pool.imap_job(2, _square, list(range(50)), batch_size=4))
    assert results == [i * i for i in range(50)]


def test_run_job_empty_payloads(pool):
    assert list(pool.imap_job(2, _square, [])) == []


def test_imap_streams_in_submission_order(pool):
    it = pool.imap_job(2, _slow_square, list(range(12)), batch_size=1)
    assert list(it) == [i * i for i in range(12)]


def test_workers_survive_across_jobs(pool):
    first = set(pool.imap_job(2, _pid_of, list(range(8)), batch_size=1))
    second = set(pool.imap_job(2, _pid_of, list(range(8)), batch_size=1))
    assert first == second  # same processes served both jobs
    assert os.getpid() not in first


def test_setup_runs_once_per_worker_per_job(pool):
    counts = list(pool.imap_job(1, _read_setup, [0, 1, 2],
                                init_fn=_count_setup, batch_size=1))
    assert counts == [1, 1, 1]
    counts = list(pool.imap_job(1, _read_setup, [0, 1],
                                init_fn=_count_setup, batch_size=1))
    assert counts == [2, 2]  # same worker, fresh setup, kept state


def test_abandoned_job_does_not_poison_the_next(pool):
    it = pool.imap_job(2, _slow_square, list(range(20)), batch_size=2)
    assert next(it) == 0
    it.close()  # abandon 19 tasks mid-flight
    assert list(pool.imap_job(2, _square, [5, 6])) == [25, 36]


def test_task_error_propagates_with_type(pool):
    with pytest.raises(ValueError, match="task 3 failed"):
        list(pool.imap_job(2, _boom, [3]))


def test_init_error_propagates(pool):
    with pytest.raises(RuntimeError, match="init exploded"):
        list(pool.imap_job(2, _square, [1, 2, 3, 4], init_fn=_bad_init,
                           batch_size=1))


# -- crash handling -----------------------------------------------------------


def test_crashed_worker_respawns_and_batch_replays(pool, tmp_path):
    marker = str(tmp_path / "crashed-once")
    results = list(pool.imap_job(1, _die_once, [marker], batch_size=1))
    assert results == ["survived"]
    assert pool_metrics().snapshot()["counters"]["pool.respawned"] >= 1
    # the pool is still usable afterwards
    assert list(pool.imap_job(1, _square, [9])) == [81]


def test_batch_that_kills_twice_raises(pool):
    with pytest.raises(WorkerCrashError, match="crashed worker slot"):
        list(pool.imap_job(1, _die_always, [0], batch_size=1))
    # the slot was respawned; the pool still works
    assert list(pool.imap_job(1, _square, [3])) == [9]


def test_shutdown_stops_every_worker(pool):
    list(pool.imap_job(2, _square, [1, 2, 3, 4], batch_size=1))
    workers = list(pool._workers)
    assert pool.shutdown() == 2
    assert not any(w.alive for w in workers)
    assert pool_metrics().count("pool.jobs") >= 1


# -- the process-global pool ---------------------------------------------------


def test_get_pool_recreates_on_env_change(monkeypatch):
    shutdown_pool()
    monkeypatch.setenv("REPRO_POOL_START", "fork")
    first = get_pool()
    assert first.start_method == "fork"
    assert get_pool() is first
    monkeypatch.setenv("REPRO_POOL_START", "spawn")
    second = get_pool()
    assert second is not first
    assert second.start_method == "spawn"
    shutdown_pool()


# -- worker lifetime ----------------------------------------------------------

#: A driver that warms a two-worker pool, prints the workers' pids and
#: waits to be killed.
DRIVER = textwrap.dedent("""
    import time
    from repro.parallel.daemon import get_pool
    pool = get_pool()
    warm = pool.imap_job(2, abs, [-1, -2, -3, -4], batch_size=1)
    assert list(warm) == [1, 2, 3, 4]
    print(*(w.proc.pid for w in pool.ensure(2)), flush=True)
    time.sleep(600)
""")

SRC = Path(__file__).resolve().parents[1] / "src"


def _running(pid: int) -> bool:
    """Is ``pid`` a live process? An exited worker whose new parent has
    not reaped it yet is a zombie, which counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc").is_dir(),
                    reason="reads process states from /proc")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM],
                         ids=["SIGKILL", "SIGTERM"])
def test_workers_exit_when_their_driver_dies(sig):
    """A killed driver runs no exit handler, so nobody stops its
    workers: each must notice that its parent is gone and exit."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    driver = subprocess.Popen([sys.executable, "-c", DRIVER], env=env,
                              stdout=subprocess.PIPE, text=True)
    pids: list[int] = []
    try:
        pids = [int(pid) for pid in driver.stdout.readline().split()]
        assert len(pids) == 2
        driver.send_signal(sig)
        driver.wait(10)
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        driver.kill()
        driver.wait()
        driver.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
