#!/usr/bin/env python3
"""Iterative k-means as multiple MapReduce rounds — the classic Hadoop
pattern the paper's KM benchmark is one round of.

Each round a *new* directive-annotated map source is generated with the
current centroids baked in (real HeteroDoop jobs ship centroids in the
job jar / distributed cache), translated, and executed on the simulated
GPU; the reduce phase produces per-(cluster, dimension) sums and
per-cluster counts, from which the driver computes the next centroids.
Convergence is measured as total centroid movement per round.

Run:  python examples/kmeans_iterative.py
"""

import math
import random

from repro.apps.base import Application, ClusterFigures
from repro.apps.combiners import INT_KEY_FLOAT_SUM
from repro.hadoop.local import LocalJobRunner

K = 4        # clusters
DIMS = 4     # dimensions
# Key encoding: cluster*DIMS + dim for coordinate sums; 1000+cluster for
# point counts.
COUNT_BASE = 1000

_MAP_TEMPLATE = """
int main()
{{
    char tok[32], *line;
    size_t nbytes = 100000;
    double cent[{table}];
    double pt[{dims}];
    double dist, best, diff, coord;
    int read, off, lp, d, c, k, bestc, one, key;
    line = (char*) malloc(nbytes*sizeof(char));
{init}
    #pragma mapreduce mapper key(key) value(coord) kvpairs({kvpairs}) \\
        texture(cent)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {{
        off = 0;
        one = 1;
        for(d = 0; d < {dims}; d++) {{
            lp = getWord(line, off, tok, read, 32);
            if( lp == -1 )
                break;
            off += lp;
            pt[d] = atof(tok);
        }}
        if( d == {dims} ) {{
            best = 1.0e30;
            bestc = 0;
            for(c = 0; c < {k}; c++) {{
                dist = 0.0;
                for(k = 0; k < {dims}; k++) {{
                    diff = pt[k] - cent[c*{dims} + k];
                    dist += diff*diff;
                }}
                if( dist < best ) {{
                    best = dist;
                    bestc = c;
                }}
            }}
            for(d = 0; d < {dims}; d++) {{
                key = bestc*{dims} + d;
                coord = pt[d];
                printf("%d\\t%f\\n", key, coord);
            }}
            key = {count_base} + bestc;
            coord = 1.0;
            printf("%d\\t%f\\n", key, coord);
        }}
    }}
    free(line);
    return 0;
}}
"""


def make_app(centroids: list[list[float]]) -> Application:
    init = "\n".join(
        f"    cent[{c * DIMS + d}] = {centroids[c][d]!r};"
        for c in range(K) for d in range(DIMS)
    )
    source = _MAP_TEMPLATE.format(
        table=K * DIMS, dims=DIMS, k=K, kvpairs=DIMS + 1,
        count_base=COUNT_BASE, init=init,
    )
    return Application(
        name="kmeans-iterative",
        short="KI",
        nature="Compute",
        map_source=source,
        combine_source=INT_KEY_FLOAT_SUM,
        reduce_source=INT_KEY_FLOAT_SUM,
        cluster1=ClusterFigures(reduce_tasks=4, map_tasks=1, input_gb=0),
    )


def generate_points(n: int, true_centers: list[list[float]],
                    seed: int = 3) -> str:
    rng = random.Random(seed)
    lines = []
    for _ in range(n):
        center = rng.choice(true_centers)
        lines.append(" ".join(f"{rng.gauss(c, 0.5):.4f}" for c in center))
    return "\n".join(lines) + "\n"


def next_centroids(output: dict, old: list[list[float]]) -> list[list[float]]:
    new = []
    for c in range(K):
        count = float(output.get(COUNT_BASE + c, 0.0))
        if count == 0:
            new.append(old[c])  # empty cluster keeps its centroid
            continue
        new.append([
            float(output.get(c * DIMS + d, 0.0)) / count for d in range(DIMS)
        ])
    return new


def main() -> None:
    rng = random.Random(1)
    true_centers = [[rng.uniform(-8, 8) for _ in range(DIMS)] for _ in range(K)]
    text = generate_points(800, true_centers)

    # Deliberately bad initial centroids.
    centroids = [[rng.uniform(-8, 8) for _ in range(DIMS)] for _ in range(K)]

    print(f"k-means: {K} clusters, {DIMS}-D, 800 points, GPU path")
    movements = []
    for round_no in range(1, 7):
        app = make_app(centroids)
        result = LocalJobRunner(app, use_gpu=True, num_reducers=4,
                                split_bytes=16 * 1024).run(text)
        updated = next_centroids(result.output, centroids)
        movement = sum(
            math.dist(a, b) for a, b in zip(centroids, updated)
        )
        movements.append(movement)
        gpu_ms = result.total_map_seconds * 1e3
        print(f"  round {round_no}: centroid movement {movement:8.4f}  "
              f"(simulated GPU map time {gpu_ms:.2f} ms)")
        centroids = updated
        if movement < 1e-3:
            break

    assert movements[-1] < movements[0], "k-means failed to converge"
    print("\nfinal centroids vs ground truth (matched greedily):")
    unmatched = list(true_centers)
    for cent in centroids:
        best = min(unmatched, key=lambda t: math.dist(cent, t))
        unmatched.remove(best)
        print(f"  found {['%.2f' % x for x in cent]}  "
              f"true {['%.2f' % x for x in best]}  "
              f"err {math.dist(cent, best):.3f}")


if __name__ == "__main__":
    main()
