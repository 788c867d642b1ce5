"""Histmovies (HS) — PUMA benchmark, IO-intensive.

Averages the review ratings of each movie and bins the average (paper
§7.1). Input records are ``movieId: r1 r2 r3 ...``; the map emits
<bin, 1> once per movie (few KV pairs per record → IO-bound); combiner
and reducer sum bin populations. Bins are the average rating doubled and
truncated, i.e. half-star resolution (bin = floor(2·avg) ∈ [2, 10]).
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from . import datagen
from .base import Application, AppRegistry, ClusterFigures
from .combiners import INT_KEY_INT_SUM

MAP_SOURCE = r'''
int main()
{
    char tok[32], *line;
    size_t nbytes = 100000;
    int read, off, lp, n, sum, bin, one, first;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(bin) value(one) kvpairs(2)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        off = 0;
        n = 0;
        sum = 0;
        first = 1;
        one = 1;
        while( (lp = getWord(line, off, tok, read, 32)) != -1) {
            off += lp;
            if( first ) {
                first = 0;       /* skip the movieId field */
            } else {
                sum += atoi(tok);
                n++;
            }
        }
        if( n > 0 ) {
            bin = (2 * sum) / n;
            printf("%d\t%d\n", bin, one);
        }
    }
    free(line);
    return 0;
}
'''


def _reference(split_text: str) -> dict[Any, Any]:
    bins: Counter[int] = Counter()
    for line in split_text.splitlines():
        parts = line.split()
        if len(parts) < 2:
            continue
        ratings = [int(tok) for tok in parts[1:]]
        bins[(2 * sum(ratings)) // len(ratings)] += 1
    return dict(bins)


def _generate(records: int, seed: int) -> str:
    return datagen.movie_ratings(records, seed)


HISTMOVIES = AppRegistry.register(
    Application(
        name="histmovies",
        short="HS",
        nature="IO",
        map_source=MAP_SOURCE,
        combine_source=INT_KEY_INT_SUM,
        reduce_source=INT_KEY_INT_SUM,
        pct_map_combine_active=91,
        cluster1=ClusterFigures(reduce_tasks=8, map_tasks=4800, input_gb=1190),
        cluster2=ClusterFigures(reduce_tasks=8, map_tasks=640, input_gb=159),
        generate=_generate,
        reference=_reference,
        record_skew=4.0,
    )
)
