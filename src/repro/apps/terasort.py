"""Terasort-style global sort (TS) — sort-dominated, IO-intensive.

Input records lead with a zero-padded decimal sort key; the map emits
<key, 1> and the combiner/reducer sum duplicates, so the job's real work
is the framework's sort/shuffle of mostly-unique wide keys — the
terasort profile (like WC's Fig. 6 sort dominance, but with near-zero
combine payoff). Zero-padded keys deliberately straddle the streaming
type-coercion boundary: ``00421337`` stays a text key while ``42133700``
becomes an int, so every engine's numeric-before-text comparator gets
exercised on realistic mixed runs.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from . import datagen
from .base import Application, AppRegistry, ClusterFigures
from .combiners import STRING_KEY_INT_SUM
from ..kvstore.coerce import coerce_key

MAP_SOURCE = r'''
int main()
{
    char key[16], *line;
    size_t nbytes = 10000;
    int read, lp, one;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(key) value(one) keylength(16) kvpairs(2)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        one = 1;
        lp = getWord(line, 0, key, read, 16);
        if( lp != -1 )
            printf("%s\t%d\n", key, one);
    }
    free(line);
    return 0;
}
'''


def _reference(split_text: str) -> dict[Any, Any]:
    counts: Counter[Any] = Counter()
    for line in split_text.splitlines():
        parts = line.split()
        if parts:
            # Same coercion the streaming paths apply, so leading-zero
            # keys stay text and zero-free keys become ints.
            counts[coerce_key(parts[0])] += 1
    return dict(counts)


def _generate(records: int, seed: int) -> str:
    return datagen.sort_records(records, seed)


TERASORT = AppRegistry.register(
    Application(
        name="terasort",
        short="TS",
        nature="IO",
        map_source=MAP_SOURCE,
        combine_source=STRING_KEY_INT_SUM,
        reduce_source=STRING_KEY_INT_SUM,
        pct_map_combine_active=90,
        cluster1=ClusterFigures(reduce_tasks=48, map_tasks=6144, input_gb=1000),
        cluster2=ClusterFigures(reduce_tasks=32, map_tasks=1152, input_gb=160),
        generate=_generate,
        reference=_reference,
        record_skew=1.0,
    )
)
