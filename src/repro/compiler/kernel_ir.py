"""Kernel IR — the translated form of a directive region.

A :class:`KernelIR` is this reproduction's stand-in for a generated CUDA
``__global__`` function: a transformed AST whose IO calls have been
replaced with GPU-runtime calls (``getRecord``/``emitKV``/``getKV``/
``storeKV``), plus the variable classification from Algorithm 1 and the
optimization decisions (vector widths, texture placement) the executor's
timing model consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..config import LaunchConfig, OptimizationFlags
from ..directives import Directive, DirectiveKind
from ..minic import cast as A
from ..minic import ctypes as T


class VarClass(enum.Enum):
    """Placement classes from Algorithm 1 (plus the combiner's shared-memory
    private arrays, §4.2)."""

    CONST_SCALAR = "constant"          # sharedRO scalar → constant memory
    GLOBAL_RO_ARRAY = "global_ro"      # sharedRO array → device global memory
    TEXTURE_ARRAY = "texture"          # read-only array → texture memory
    PRIVATE = "private"                # per-thread private (registers/local)
    FIRSTPRIVATE_SCALAR = "fp_scalar"  # initialized via kernel parameter
    FIRSTPRIVATE_ARRAY = "fp_array"    # initialized via device copy + in-kernel memcpy
    SHARED_ARRAY = "shared"            # combiner private array in shared memory


@dataclass
class VarInfo:
    """One variable used by the kernel."""

    name: str
    ctype: T.CType
    klass: VarClass
    kernel_name: str          # renamed inside the kernel (gpu_ prefix)
    initial_from_host: bool = False   # value captured at kernel launch

    @property
    def is_array(self) -> bool:
        return isinstance(self.ctype, T.Array)

    def sizeof(self) -> int:
        return self.ctype.sizeof() if self.is_array else self.ctype.sizeof()


@dataclass
class KernelIR:
    """A translated map or combine kernel."""

    kind: DirectiveKind
    name: str
    body: A.Stmt                      # transformed region (calls GPU runtime)
    variables: dict[str, VarInfo]     # original name → info
    directive: Directive
    launch: LaunchConfig
    opt: OptimizationFlags
    # Emitted KV layout
    key_type: T.CType = T.INT
    value_type: T.CType = T.INT
    key_length: int = 4               # bytes per key slot in the KV store
    value_length: int = 4             # bytes per value slot
    key_is_array: bool = False
    value_is_array: bool = False
    # Optimization decisions
    vector_width: int = 1             # char4-style vector width for KV moves
    kvpairs_per_record: int | None = None  # from the kvpairs clause
    source_text: str = ""             # pretty-printed "CUDA" for humans
    helpers: list[A.FunctionDef] = field(default_factory=list)  # __device__ fns
    #: The untransformed region node in the original program — the host
    #: driver interprets main() up to this point to capture firstprivate/
    #: sharedRO values before launching the kernel.
    original_region: A.Stmt | None = None

    @property
    def is_mapper(self) -> bool:
        return self.kind is DirectiveKind.MAPPER

    @property
    def is_combiner(self) -> bool:
        return self.kind is DirectiveKind.COMBINER

    @property
    def kv_slot_bytes(self) -> int:
        """Bytes one KV pair occupies in the global KV store (key + value +
        index entry)."""
        return self.key_length + self.value_length + 4

    def vars_of(self, *classes: VarClass) -> list[VarInfo]:
        return [v for v in self.variables.values() if v.klass in classes]

    @property
    def shared_mem_bytes(self) -> int:
        """Shared memory used per threadblock: the record-stealing counter
        (mapper) plus per-warp private arrays (combiner)."""
        total = 4 if self.is_mapper else 0
        warps = self.launch.threads // 32
        for var in self.vars_of(VarClass.SHARED_ARRAY):
            total += var.ctype.sizeof() * warps
        return total
