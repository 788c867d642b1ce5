"""Exception hierarchy for the HeteroDoop reproduction.

Every layer raises a subclass of :class:`ReproError` so callers can catch
library failures without swallowing genuine bugs (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MiniCError(ReproError):
    """Base class for mini-C frontend errors."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        loc = f" at line {line}" if line is not None else ""
        loc += f", col {col}" if col is not None else ""
        super().__init__(f"{message}{loc}")


class LexError(MiniCError):
    """Invalid token in mini-C source."""


class ParseError(MiniCError):
    """Syntactically invalid mini-C source."""


class SemanticError(MiniCError):
    """Type errors, undeclared identifiers, bad directive targets."""


class CRuntimeError(ReproError):
    """Raised when interpreting mini-C hits undefined behaviour we detect
    (out-of-bounds access, null dereference, bad format string)."""


class DirectiveError(ReproError):
    """Malformed or semantically invalid ``#pragma mapreduce`` directive."""


class CompilerError(ReproError):
    """Source-to-source translation failure."""


class GpuError(ReproError):
    """GPU simulator errors (e.g. launch misconfiguration)."""


class GpuOutOfMemory(GpuError):
    """Device memory allocation failed (GPUs have no virtual memory)."""

    def __init__(self, requested: int, free: int):
        self.requested = requested
        self.free = free
        super().__init__(
            f"cudaMalloc failed: requested {requested} bytes, {free} free"
        )


class KVStoreOverflow(GpuError):
    """A map thread exhausted its portion of the global KV store."""


class HdfsError(ReproError):
    """HDFS namenode/datanode failures."""


class HadoopError(ReproError):
    """Job/task orchestration errors."""


class ConfigError(ReproError):
    """Invalid cluster/GPU/job configuration."""
