"""Kmeans (KM) — PUMA benchmark, compute-intensive, no combiner.

One clustering iteration: each point is assigned to its nearest centroid
(the centroid table is read-only → texture memory, Fig. 7a) and the map
emits <centroidId, coordinateSum> per point; the reducer averages to
produce the next iteration's 1-D centroid statistic. Records pack a
variable number of points, so per-record work is skewed — the record-
stealing showcase (paper §4.1).

KM is absent from Cluster2's Fig. 4b: 'the memory requirement exceeds the
capacity of Cluster2' — modelled by ``min_gpu_mem`` larger than an
M2090's 6 GB.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any

from ..config import GB
from . import datagen
from .base import Application, AppRegistry, ClusterFigures
from .combiners import INT_KEY_FLOAT_SUM

K = 16
DIMS = 8

MAP_SOURCE = r'''
int main()
{
    char tok[32], *line;
    size_t nbytes = 100000;
    double cent[128];
    double pt[8];
    double dist, best, diff, csum;
    int read, off, lp, d, c, k, bestc;
    line = (char*) malloc(nbytes*sizeof(char));
    for(c = 0; c < 16; c++) {
        for(d = 0; d < 8; d++) {
            cent[c*8 + d] = 10.0*sin(1.7*c + 0.9*d) + 3.0*cos(0.3*c*d);
        }
    }
    #pragma mapreduce mapper key(bestc) value(csum) kvpairs(16) \
        texture(cent)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        off = 0;
        d = 0;
        while( (lp = getWord(line, off, tok, read, 32)) != -1) {
            off += lp;
            pt[d] = atof(tok);
            d++;
            if( d == 8 ) {
                best = 1.0e30;
                bestc = 0;
                for(c = 0; c < 16; c++) {
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
                csum = 0.0;
                for(k = 0; k < 8; k++) {
                    csum += pt[k];
                }
                printf("%d\t%f\n", bestc, csum);
                d = 0;
            }
        }
    }
    free(line);
    return 0;
}
'''


def centroids() -> list[list[float]]:
    return [
        [datagen.cluster_center(c, d, K) for d in range(DIMS)]
        for c in range(K)
    ]


def _assign(point: list[float], cents: list[list[float]]) -> int:
    best, bestc = math.inf, 0
    for c, cent in enumerate(cents):
        dist = sum((p - q) ** 2 for p, q in zip(point, cent))
        if dist < best:
            best, bestc = dist, c
    return bestc


def _reference(split_text: str) -> dict[Any, Any]:
    cents = centroids()
    sums: dict[int, float] = defaultdict(float)
    for line in split_text.splitlines():
        values = [float(tok) for tok in line.split()]
        for i in range(0, len(values) - DIMS + 1, DIMS):
            point = values[i : i + DIMS]
            sums[_assign(point, cents)] += sum(point)
    return dict(sums)


def _generate(records: int, seed: int) -> str:
    return datagen.point_stream(records, seed)


KMEANS = AppRegistry.register(
    Application(
        name="kmeans",
        short="KM",
        nature="Compute",
        map_source=MAP_SOURCE,
        combine_source=None,           # Table 2: no combiner
        reduce_source=INT_KEY_FLOAT_SUM,
        pct_map_combine_active=89,
        cluster1=ClusterFigures(reduce_tasks=16, map_tasks=4800, input_gb=923),
        cluster2=ClusterFigures(reduce_tasks=16, map_tasks=None, input_gb=None),
        min_gpu_mem=8 * GB,            # exceeds an M2090 (6 GB): NA on Cluster2
        generate=_generate,
        reference=_reference,
        record_skew=5.0,
    )
)
