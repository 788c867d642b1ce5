"""PageRank (PR) — one damped power-iteration step, compute-leaning.

Input records are adjacency lists ``src dst1 .. dstm``; the map scatters
``1/m`` of the source's rank mass to each destination and a zero
self-contribution for the source (so dangling nodes still appear in the
output), and the reducer applies the damping update
``rank = 0.15 + 0.85 * sum`` — the standard MapReduce formulation of one
PageRank iteration with uniform starting ranks. Float-valued pairs give
the combiner the same partial-sum shape as LR's Gram products.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from . import datagen
from .base import Application, AppRegistry, ClusterFigures
from .combiners import INT_KEY_FLOAT_SUM

DAMPING = 0.85

MAP_SOURCE = r'''
int main()
{
    char tok[24], *line;
    size_t nbytes = 10000;
    double v, share;
    int dst[32];
    int read, lp, off, k, n, i, first;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(k) value(v) kvpairs(34)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        off = 0;
        first = 1;
        k = 0;
        n = 0;
        while( (lp = getWord(line, off, tok, read, 24)) != -1) {
            off += lp;
            if( first ) {
                k = atoi(tok);       /* leading token is the source id */
                first = 0;
            } else if( n < 32 ) {
                dst[n] = atoi(tok);
                n++;
            }
        }
        if( first == 0 ) {
            v = 0.0;                 /* dangling nodes keep a row */
            printf("%d\t%f\n", k, v);
            if( n > 0 ) {
                share = 1.0 / n;
                for(i = 0; i < n; i++) {
                    k = dst[i];
                    v = share;
                    printf("%d\t%f\n", k, v);
                }
            }
        }
    }
    free(line);
    return 0;
}
'''


def _reference(split_text: str) -> dict[Any, Any]:
    mass: dict[int, float] = defaultdict(float)
    for line in split_text.splitlines():
        parts = line.split()
        if not parts:
            continue
        src = int(parts[0])
        mass[src] += 0.0
        dsts = parts[1:]
        if dsts:
            share = 1.0 / len(dsts)
            for dst in dsts:
                mass[int(dst)] += share
    return {node: (1.0 - DAMPING) + DAMPING * total
            for node, total in mass.items()}


def _reduce(key: Any, values: list[Any]) -> list[tuple[Any, Any]]:
    # Summed left to right: the job golden pins this float's bits, and
    # builtin sum() compensates from Python 3.12 on.
    total = 0.0
    for v in values:
        total += float(v)
    return [(key, (1.0 - DAMPING) + DAMPING * total)]


def _generate(records: int, seed: int) -> str:
    return datagen.adjacency(records, seed)


PAGERANK = AppRegistry.register(
    Application(
        name="pagerank",
        short="PR",
        nature="Compute",
        map_source=MAP_SOURCE,
        combine_source=INT_KEY_FLOAT_SUM,
        reduce_source=None,           # damping needs the complete sum
        reduce_py=_reduce,
        pct_map_combine_active=84,
        cluster1=ClusterFigures(reduce_tasks=16, map_tasks=2880, input_gb=420),
        cluster2=ClusterFigures(reduce_tasks=16, map_tasks=768, input_gb=96),
        generate=_generate,
        reference=_reference,
        record_skew=1.4,
    )
)
