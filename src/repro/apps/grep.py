"""Grep (GR) — PUMA benchmark; the most IO-intensive app (Table 2: 69%).

Counts lines containing a fixed pattern: the map emits <pattern, 1> on a
match; combiner and reducer sum. Very few KV pairs per input byte, so the
task is dominated by reading the split.
"""

from __future__ import annotations

from typing import Any

from . import datagen
from .base import Application, AppRegistry, ClusterFigures
from .combiners import STRING_KEY_INT_SUM

#: The fixed search pattern compiled into the job (PUMA grep takes a
#: regex; we use a literal-substring grep).
PATTERN = "data"

MAP_SOURCE = r'''
int main()
{
    char pattern[16], *line;
    size_t nbytes = 10000;
    int read, one;
    strcpy(pattern, "data");
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(pattern) value(one) keylength(16) \
        kvpairs(2) sharedRO(pattern)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        one = 1;
        if( strstr(line, pattern) != NULL )
            printf("%s\t%d\n", pattern, one);
    }
    free(line);
    return 0;
}
'''


def _generate(records: int, seed: int) -> str:
    # Zipf text whose rare-word tail contains 'data…' tokens, so a realistic
    # minority of lines match the pattern.
    return datagen.zipf_text(records, seed, words_per_line=(8, 24), vocab_size=600)


def _reference(split_text: str) -> dict[Any, Any]:
    matches = sum(1 for line in split_text.splitlines() if PATTERN in line)
    return {PATTERN: matches} if matches else {}


GREP = AppRegistry.register(
    Application(
        name="grep",
        short="GR",
        nature="IO",
        map_source=MAP_SOURCE,
        combine_source=STRING_KEY_INT_SUM,
        reduce_source=STRING_KEY_INT_SUM,
        pct_map_combine_active=69,
        cluster1=ClusterFigures(reduce_tasks=16, map_tasks=7632, input_gb=902),
        cluster2=ClusterFigures(reduce_tasks=16, map_tasks=2880, input_gb=340),
        generate=_generate,
        reference=_reference,
        record_skew=1.5,
    )
)
