"""Linear Regression (LR) — scientific application, compute-intensive.

Curve fitting via the normal equations, the standard MapReduce
formulation: each input row ``y x1 .. x12`` contributes every
cross-product of the Gram matrix upper triangle (xi·xj, i ≤ j) plus the
X^T·y vector (xj·y) as <coefficientId, partialProduct> pairs — 90 pairs
per record, which is what makes the combine phase substantial (paper
Fig. 6: 'HR and LR spend substantial execution time in the combine
operation'). Combiner and reducer sum partials per coefficient.

Coefficient key encoding: ``i*13 + j`` for Gram entry (i,j), and
``156 + j`` for the X^T·y entries.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from . import datagen
from .base import Application, AppRegistry, ClusterFigures
from .combiners import INT_KEY_FLOAT_SUM

REGRESSORS = 12

MAP_SOURCE = r'''
int main()
{
    char tok[32], *line;
    size_t nbytes = 100000;
    double x[12];
    double y, prod;
    int read, off, lp, j, i, coef, n;
    line = (char*) malloc(nbytes*sizeof(char));
    #pragma mapreduce mapper key(coef) value(prod) kvpairs(91)
    while( (read = getline(&line, &nbytes, stdin)) != -1) {
        off = 0;
        n = -1;
        y = 0.0;
        while( (lp = getWord(line, off, tok, read, 32)) != -1) {
            off += lp;
            if( n == -1 ) {
                y = atof(tok);
            } else if( n < 12 ) {
                x[n] = atof(tok);
            }
            n++;
        }
        if( n >= 12 ) {
            for(i = 0; i < 12; i++) {
                for(j = i; j < 12; j++) {
                    prod = x[i] * x[j];
                    coef = i*13 + j;
                    printf("%d\t%f\n", coef, prod);
                }
            }
            for(j = 0; j < 12; j++) {
                prod = x[j] * y;
                coef = 156 + j;
                printf("%d\t%f\n", coef, prod);
            }
        }
    }
    free(line);
    return 0;
}
'''


def _reference(split_text: str) -> dict[Any, Any]:
    sums: dict[int, float] = defaultdict(float)
    for line in split_text.splitlines():
        parts = [float(tok) for tok in line.split()]
        if len(parts) < REGRESSORS + 1:
            continue
        y, xs = parts[0], parts[1 : REGRESSORS + 1]
        for i in range(REGRESSORS):
            for j in range(i, REGRESSORS):
                sums[i * 13 + j] += xs[i] * xs[j]
        for j in range(REGRESSORS):
            sums[156 + j] += xs[j] * y
    return dict(sums)


def _generate(records: int, seed: int) -> str:
    return datagen.regression_rows(records, seed, regressors=REGRESSORS)


LINEAR_REGRESSION = AppRegistry.register(
    Application(
        name="linear_regression",
        short="LR",
        nature="Compute",
        map_source=MAP_SOURCE,
        combine_source=INT_KEY_FLOAT_SUM,
        reduce_source=INT_KEY_FLOAT_SUM,
        pct_map_combine_active=86,
        cluster1=ClusterFigures(reduce_tasks=16, map_tasks=2560, input_gb=714),
        cluster2=ClusterFigures(reduce_tasks=16, map_tasks=3840, input_gb=356),
        generate=_generate,
        reference=_reference,
        record_skew=1.0,
    )
)
