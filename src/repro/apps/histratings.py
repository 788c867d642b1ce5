"""Histratings (HR) — PUMA benchmark, compute-intensive.

Bins every individual review rating of every movie (paper §7.1: 'Since
the combiner receives larger data to operate on, histratings becomes
more compute intensive than histmovies'). Same input as HS; the map
emits <rating, 1> per rating — an order of magnitude more KV pairs, so
combine dominates.
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
    int read, off, lp, rating, one, first;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(rating) value(one) kvpairs(70)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        off = 0;
        first = 1;
        one = 1;
        while( (lp = getWord(line, off, tok, read, 32)) != -1) {
            off += lp;
            if( first ) {
                first = 0;       /* skip the movieId field */
            } else {
                rating = atoi(tok);
                printf("%d\t%d\n", rating, one);
            }
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
        for tok in parts[1:]:
            bins[int(tok)] += 1
    return dict(bins)


def _generate(records: int, seed: int) -> str:
    return datagen.movie_ratings(records, seed)


HISTRATINGS = AppRegistry.register(
    Application(
        name="histratings",
        short="HR",
        nature="Compute",
        map_source=MAP_SOURCE,
        combine_source=INT_KEY_INT_SUM,
        reduce_source=INT_KEY_INT_SUM,
        pct_map_combine_active=92,
        cluster1=ClusterFigures(reduce_tasks=5, map_tasks=4800, input_gb=591),
        cluster2=ClusterFigures(reduce_tasks=5, map_tasks=2560, input_gb=160),
        generate=_generate,
        reference=_reference,
        record_skew=4.0,
    )
)
