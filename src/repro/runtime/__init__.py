"""HeteroDoop runtime system (paper §5).

* :mod:`repro.runtime.records` — record locator/counter kernel and
  ``getRecord`` support,
* :mod:`repro.runtime.seqfile` — the Hadoop-compatible binary output
  format (SequenceFile) with checksums,
* :mod:`repro.runtime.gpu_task` — the full GPU task pipeline of Fig. 1,
  producing the Fig. 6 per-phase breakdown; a task that fails leaves its
  device clean for the next one (§5.1's containment).
"""

from .records import RecordLocator, locate_records
from .seqfile import SequenceFileReader, SequenceFileWriter
from .gpu_task import GpuTaskResult, GpuTaskRunner

__all__ = [
    "RecordLocator",
    "locate_records",
    "SequenceFileReader",
    "SequenceFileWriter",
    "GpuTaskResult",
    "GpuTaskRunner",
]
