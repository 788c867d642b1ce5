"""Wordcount (WC) — the paper's running example (Listings 1–2).

IO-intensive. Emits <word, 1> per word; combiner and reducer sum counts.
Long string keys make the sort phase dominant on the GPU (paper Fig. 6:
'Wordcount shows an interesting case where most of the execution time is
spent in sorting since it emits many long-length keys').
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from . import datagen
from .base import Application, AppRegistry, ClusterFigures
from .combiners import STRING_KEY_INT_SUM

MAP_SOURCE = r'''
int main()
{
    char word[30], *line;
    size_t nbytes = 10000;
    int read, linePtr, offset, one;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(word) value(one) keylength(30) kvpairs(20)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        linePtr = 0;
        offset = 0;
        one = 1;
        while( (linePtr = getWord(line, offset, word, read, 30)) != -1) {
            printf("%s\t%d\n", word, one);
            offset += linePtr;
        }
    }
    free(line);
    return 0;
}
'''


def _reference(split_text: str) -> dict[Any, Any]:
    counts: Counter[str] = Counter()
    for line in split_text.splitlines():
        counts.update(line.split())
    return dict(counts)


def _generate(records: int, seed: int) -> str:
    return datagen.zipf_text(records, seed)


WORDCOUNT = AppRegistry.register(
    Application(
        name="wordcount",
        short="WC",
        nature="IO",
        map_source=MAP_SOURCE,
        combine_source=STRING_KEY_INT_SUM,
        reduce_source=STRING_KEY_INT_SUM,
        pct_map_combine_active=91,
        cluster1=ClusterFigures(reduce_tasks=48, map_tasks=5760, input_gb=844),
        cluster2=ClusterFigures(reduce_tasks=32, map_tasks=1024, input_gb=151),
        generate=_generate,
        reference=_reference,
        record_skew=1.6,
    )
)
