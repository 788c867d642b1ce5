#!/usr/bin/env python3
"""Compiler explorer: translate every Table 2 benchmark and inspect what
the HeteroDoop source-to-source translator produced — variable
classification (Algorithm 1), vectorization decisions, launch geometry,
KV layout, and the generated kernel text.

Run:  python examples/compiler_explorer.py [APP ...]
      (APP in GR HS WC HR LR KM CL BS; default: WC KM)
"""

import sys

from repro.apps import get_app
from repro.compiler.kernel_ir import VarClass


def _kind(is_array: bool) -> str:
    return "array" if is_array else "scalar"


def explore(short: str) -> None:
    app = get_app(short)
    print("=" * 72)
    print(f"{app.name} ({short}) — {app.nature}-intensive, "
          f"combiner: {'yes' if app.has_combiner else 'no'}"
          f"{', map-only' if app.map_only else ''}")
    print("=" * 72)

    translation = app.translate_map()
    kernel = translation.map_kernel
    key = _kind(kernel.key_is_array)
    value = _kind(kernel.value_is_array)
    print(f"map kernel: key {key} x{kernel.key_length}B, "
          f"value {value} x{kernel.value_length}B, "
          f"vector width {kernel.vector_width}, "
          f"launch {kernel.launch.blocks}x{kernel.launch.threads}, "
          f"kvpairs/record {kernel.kvpairs_per_record}")
    placements = {}
    for var in kernel.variables.values():
        placements.setdefault(var.klass, []).append(var.name)
    for klass in VarClass:
        if klass in placements:
            print(f"  {klass.value:10s}: {', '.join(sorted(placements[klass]))}")
    print()
    print(kernel.source_text)

    combine = app.translate_combine()
    if combine is not None:
        ck = combine.combine_kernel
        print(f"\ncombine kernel: vector width {ck.vector_width}, "
              f"shared memory {ck.shared_mem_bytes} B/block")
        print(ck.source_text)
    print()


def main() -> None:
    apps = sys.argv[1:] or ["WC", "KM"]
    for short in apps:
        explore(short.upper())


if __name__ == "__main__":
    main()
