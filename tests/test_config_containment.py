"""Bad knobs and failed tasks: what must not take the process down.

Two contracts of the runtime that runs the job:

* the two ``REPRO_*`` deployment knobs are read in one place,
  :meth:`repro.config.RuntimeConfig.from_env`, which rejects a bad value
  with one error naming the variable — before anything forks;
* a GPU task that fails at any pipeline stage leaves the job's one
  device clean, so the next task on it is indistinguishable from one on
  a fresh device (paper §5.1's containment, in the pipeline itself).
"""

from __future__ import annotations

import dataclasses
import os
import re
from pathlib import Path

import pytest

from repro.apps import get_app
from repro.apps.wordcount import MAP_SOURCE
from repro.cli import main
from repro.compiler import translate
from repro.config import CLUSTER1, RuntimeConfig
from repro.errors import ConfigError, CRuntimeError, KVStoreOverflow
from repro.gpu.device import GpuDevice
from repro.minic import parse
from repro.parallel import pool_metrics, resolve_workers, shutdown_pool
from repro.runtime.gpu_task import GpuTaskRunner

# -- RuntimeConfig ------------------------------------------------------------

KNOB_NAMES = ("REPRO_WORKERS", "REPRO_POOL_START")


@pytest.fixture
def clean_env(monkeypatch):
    for name in KNOB_NAMES:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def test_exactly_two_fields():
    assert [f.name for f in dataclasses.fields(RuntimeConfig)] == \
        ["workers", "pool_start"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        RuntimeConfig().workers = 4


def test_unset_environment_is_the_defaults(clean_env):
    config = RuntimeConfig.from_env()
    assert config == RuntimeConfig()
    assert config.workers == 1
    assert config.pool_start in ("fork", "spawn")


@pytest.mark.parametrize("name, raw, field, value", [
    ("REPRO_WORKERS", "0", "workers", 0),
    ("REPRO_WORKERS", "2", "workers", 2),
    ("REPRO_WORKERS", " 2 ", "workers", 2),
    ("REPRO_WORKERS", "", "workers", 1),
    ("REPRO_POOL_START", "fork", "pool_start", "fork"),
    ("REPRO_POOL_START", "spawn", "pool_start", "spawn"),
])
def test_good_values(clean_env, name, raw, field, value):
    clean_env.setenv(name, raw)
    # …and the other knob keeps its default.
    assert RuntimeConfig.from_env() == \
        dataclasses.replace(RuntimeConfig(), **{field: value})


@pytest.mark.parametrize("name, raw", [
    ("REPRO_WORKERS", "abc"),
    ("REPRO_WORKERS", "-1"),
    ("REPRO_WORKERS", "1.5"),
    ("REPRO_POOL_START", "carrier-pigeon"),
])
def test_bad_values_name_their_variable(clean_env, name, raw):
    clean_env.setenv(name, raw)
    with pytest.raises(ConfigError, match=name):
        RuntimeConfig.from_env()


def test_zero_workers_resolves_to_the_cpu_count(clean_env):
    clean_env.setenv("REPRO_WORKERS", "0")
    assert resolve_workers() == (os.cpu_count() or 1)


class _RecordingEnviron(dict):
    """An environment that notes every name looked up in it."""

    def __init__(self):
        super().__init__()
        self.read: set[str] = set()

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)


def test_readme_knob_table_is_what_from_env_reads(monkeypatch):
    """The ``REPRO_*`` names in README's knob table are exactly the
    names :meth:`RuntimeConfig.from_env` reads, so a deleted knob cannot
    linger in the docs, nor a new one go undocumented."""
    environ = _RecordingEnviron()
    monkeypatch.setattr(os, "environ", environ)
    RuntimeConfig.from_env()
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    header = lines.index("| knob | default | meaning |")
    table = []
    for line in lines[header + 2:]:
        if not line.startswith("|"):
            break
        table.append(line.split("|")[1])
    documented = {name for cell in table
                  for name in re.findall(r"REPRO_[A-Z_]+", cell)}
    assert documented == environ.read == set(KNOB_NAMES)


@pytest.mark.parametrize("name, raw", [
    ("REPRO_WORKERS", "inf"),
    ("REPRO_WORKERS", "nan"),
    ("REPRO_WORKERS", "-1"),
    ("REPRO_POOL_START", "carrier-pigeon"),
])
@pytest.mark.parametrize("argv", [
    ["run", "WC", "--records", "300", "--cpu-only", "--workers", "2",
     "--split-kb", "2"],
])
def test_cli_rejects_bad_knob_before_forking(clean_env, capsys, name, raw,
                                             argv):
    """A bad knob fails the command with one ``error:`` line naming the
    variable, and no pool worker is ever started."""
    shutdown_pool()
    spawned = pool_metrics().count("pool.spawned")
    clean_env.setenv(name, raw)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name}")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err + captured.out
    assert pool_metrics().count("pool.spawned") == spawned


# -- failed-task containment --------------------------------------------------

#: WC's mapper with a fault a record can trigger: the word ``poison``
#: divides by zero inside the kernel.
POISONED_WC = MAP_SOURCE.replace(
    'printf("%s\\t%d\\n", word, one);',
    'if (strcmp(word, "poison") == 0) one = one / 0;\n'
    '            printf("%s\\t%d\\n", word, one);')

GOOD_SPLIT = get_app("WC").generate(100, seed=1).encode()

FAILURES = {
    # With the kvpairs clause the store is sized from the record count…
    "kernel-error": ("kvpairs(20)", GOOD_SPLIT + b"poison\n", CRuntimeError),
    # …without it the host grabs 90% of free device memory (§3.2), so a
    # leaked store starves every later task.
    "kernel-error-all-free-memory": ("", GOOD_SPLIT + b"poison\n",
                                     CRuntimeError),
    # One 50-word record against 20 pairs/record x 2 headroom.
    "store-overflow": ("kvpairs(20)", b"word " * 50 + b"\n", KVStoreOverflow),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_failed_task_leaves_the_device_clean(case, cluster1_io):
    clause, bad_split, error = FAILURES[case]
    assert "kvpairs(20)" in POISONED_WC and "one / 0" in POISONED_WC
    map_tr = translate(parse(POISONED_WC.replace("kvpairs(20)", clause)))
    assert (map_tr.map_kernel.kvpairs_per_record is None) == (clause == "")

    def runner():
        return GpuTaskRunner(map_tr, get_app("WC").translate_combine(),
                             GpuDevice(CLUSTER1.gpu), cluster1_io,
                             num_reducers=4)

    fresh = runner().run(GOOD_SPLIT)
    survivor = runner()
    with pytest.raises(error):
        survivor.run(bad_split)
    assert survivor.device.memory.used == 0
    again = survivor.run(GOOD_SPLIT)
    assert again.partition_output == fresh.partition_output
    assert repr(again.breakdown.total) == repr(fresh.breakdown.total)
    assert survivor.device.memory.used == 0
