"""Classification (CL) — PUMA benchmark, compute-intensive, no combiner.

'Similar to kmeans; however, there is no clustering involved. The
application ends after classifying the input dataset to respective
centroids in a single iteration' (paper §7.1). One fixed-dimension point
per record; the map emits <centroidId, 1>; the reducer sums populations.
The centroid table is read-only → texture memory (Fig. 7a).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

from . import datagen
from .base import Application, AppRegistry, ClusterFigures
from .combiners import INT_KEY_INT_SUM

K = 24
DIMS = 8

MAP_SOURCE = r'''
int main()
{
    char tok[32], *line;
    size_t nbytes = 100000;
    double cent[192];
    double pt[8];
    double dist, best, diff;
    int read, off, lp, d, c, k, bestc, one;
    line = (char*) malloc(nbytes*sizeof(char));
    for(c = 0; c < 24; c++) {
        for(d = 0; d < 8; d++) {
            cent[c*8 + d] = 10.0*sin(1.7*c + 0.9*d) + 3.0*cos(0.3*c*d);
        }
    }
    #pragma mapreduce mapper key(bestc) value(one) kvpairs(2) \
        texture(cent)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        off = 0;
        one = 1;
        for(d = 0; d < 8; d++) {
            lp = getWord(line, off, tok, read, 32);
            if( lp == -1 )
                break;
            off += lp;
            pt[d] = atof(tok);
        }
        if( d == 8 ) {
            best = 1.0e30;
            bestc = 0;
            for(c = 0; c < 24; c++) {
                dist = 0.0;
                for(k = 0; k < 8; k++) {
                    diff = pt[k] - cent[c*8 + k];
                    dist += diff*diff;
                }
                if( dist < best ) {
                    best = dist;
                    bestc = c;
                }
            }
            printf("%d\t%d\n", bestc, one);
        }
    }
    free(line);
    return 0;
}
'''


def _assign(point: list[float]) -> int:
    cents = [
        [datagen.cluster_center(c, d, K) for d in range(DIMS)] for c in range(K)
    ]
    best, bestc = math.inf, 0
    for c, cent in enumerate(cents):
        dist = sum((p - q) ** 2 for p, q in zip(point, cent))
        if dist < best:
            best, bestc = dist, c
    return bestc


def _reference(split_text: str) -> dict[Any, Any]:
    counts: Counter[int] = Counter()
    for line in split_text.splitlines():
        values = [float(tok) for tok in line.split()]
        if len(values) >= DIMS:
            counts[_assign(values[:DIMS])] += 1
    return dict(counts)


def _generate(records: int, seed: int) -> str:
    return datagen.point_cloud(records, seed, clusters=K)


CLASSIFICATION = AppRegistry.register(
    Application(
        name="classification",
        short="CL",
        nature="Compute",
        map_source=MAP_SOURCE,
        combine_source=None,           # Table 2: no combiner
        reduce_source=INT_KEY_INT_SUM,
        pct_map_combine_active=92,
        cluster1=ClusterFigures(reduce_tasks=16, map_tasks=4800, input_gb=923),
        cluster2=ClusterFigures(reduce_tasks=16, map_tasks=3200, input_gb=72),
        generate=_generate,
        reference=_reference,
        record_skew=1.1,
    )
)
