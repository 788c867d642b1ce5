"""Seeded synthetic workload generators.

Substitutes for the PUMA datasets (Wikipedia text, Netflix movie ratings)
and the scientific inputs the paper used — shaped to preserve the
properties the evaluation depends on: word-frequency skew (sort/combine
load), per-record length skew (record stealing), rating distributions
(histogram bins), cluster structure (kmeans/classification), and option
parameter ranges (blackScholes).
"""

from __future__ import annotations

import math
import random
from itertools import accumulate

# A Zipf-ish vocabulary: common words dominate like natural text.
_VOCAB_COMMON = (
    "the of and a to in is was he for it with as his on be at by i this had "
    "not are but from or have an they which one you were her all she there "
    "would their we him been has when who will more no if out so said what"
).split()
_VOCAB_RARE_PREFIXES = (
    "data cluster gpu map reduce stream kernel record shuffle block warp "
    "thread merge sort spill split tracker node task heap cache"
).split()


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


def make_vocabulary(size: int, seed: int = 7) -> list[str]:
    rng = _rng(seed)
    vocab = list(_VOCAB_COMMON)
    while len(vocab) < size:
        prefix = rng.choice(_VOCAB_RARE_PREFIXES)
        vocab.append(f"{prefix}{rng.randint(0, 9999)}")
    return vocab[:size]


def _zipf_cum_weights(n: int) -> list[float]:
    """Running sums of the Zipf weights ``1/rank``, accumulated once per
    input: ``choices(weights=w)`` would redo ``accumulate(w)`` per call,
    and ``choices(cum_weights=...)`` on the same sums draws the same
    words."""
    return list(accumulate(1.0 / (rank + 1) for rank in range(n)))


def zipf_text(records: int, seed: int = 0, words_per_line: tuple[int, int] = (4, 14),
              vocab_size: int = 400) -> str:
    """Zipf-distributed text, one line per record (wordcount/grep input)."""
    rng = _rng(seed)
    vocab = make_vocabulary(vocab_size, seed=seed + 1)
    cum_weights = _zipf_cum_weights(len(vocab))
    lines = []
    for _ in range(records):
        k = rng.randint(*words_per_line)
        words = rng.choices(vocab, cum_weights=cum_weights, k=k)
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def movie_ratings(records: int, seed: int = 0, max_reviews: int = 100,
                  skewed: bool = True) -> str:
    """Netflix-style records: ``movieId: r1 r2 r3 ...`` with a heavy-tailed
    review count per movie ('some records have fewer reviews than others',
    paper §4.1 — the load imbalance record stealing targets)."""
    rng = _rng(seed)
    lines = []
    for movie in range(records):
        if skewed:
            # Pareto-ish review counts: a few blockbusters, many obscure.
            n = min(max_reviews, max(3, int(6 * rng.paretovariate(1.2))))
        else:
            n = max(1, max_reviews // 2)
        ratings = [str(rng.randint(1, 5)) for _ in range(n)]
        lines.append(f"{movie}: " + " ".join(ratings))
    return "\n".join(lines) + "\n"


def point_cloud(records: int, seed: int = 0, dims: int = 8,
                clusters: int = 8, spread: float = 0.6) -> str:
    """Gaussian clusters in ``dims``-D: ``x1 x2 ... xd`` per line
    (kmeans/classification input). Cluster centers are a deterministic
    lattice so the mini-C sources can regenerate them."""
    rng = _rng(seed)
    lines = []
    for i in range(records):
        c = rng.randrange(clusters)
        center = [cluster_center(c, d, clusters) for d in range(dims)]
        coords = [f"{rng.gauss(center[d], spread):.4f}" for d in range(dims)]
        lines.append(" ".join(coords))
    return "\n".join(lines) + "\n"


def cluster_center(cluster: int, dim: int, clusters: int) -> float:
    """Deterministic centroid lattice shared by datagen and the mini-C
    sources (which cannot read auxiliary files)."""
    return 10.0 * math.sin(1.7 * cluster + 0.9 * dim) \
        + 3.0 * math.cos(0.3 * cluster * dim)


def point_stream(records: int, seed: int = 0, dims: int = 8,
                 clusters: int = 8, spread: float = 0.6,
                 max_points_per_record: int = 10) -> str:
    """Kmeans input: each record packs a *variable* number of points
    (``x1 .. x(8m)``), giving the record-length skew that makes record
    stealing matter (paper §4.1's kmeans example)."""
    rng = _rng(seed)
    lines = []
    for _ in range(records):
        m = max(1, min(max_points_per_record, int(rng.paretovariate(1.5))))
        coords: list[str] = []
        for _p in range(m):
            c = rng.randrange(clusters)
            coords.extend(
                f"{rng.gauss(cluster_center(c, d, clusters), spread):.4f}"
                for d in range(dims)
            )
        lines.append(" ".join(coords))
    return "\n".join(lines) + "\n"


def regression_rows(records: int, seed: int = 0, regressors: int = 12) -> str:
    """Rows of ``y x1 .. xk`` with a fixed ground-truth coefficient vector
    plus noise (linear regression input; paper: 12 regressors)."""
    rng = _rng(seed)
    beta = [((j % 5) - 2) * 0.5 + 0.1 for j in range(regressors)]
    lines = []
    for _ in range(records):
        xs = [rng.uniform(-2.0, 2.0) for _ in range(regressors)]
        y = sum(b * x for b, x in zip(beta, xs)) + rng.gauss(0.0, 0.05)
        lines.append(f"{y:.5f} " + " ".join(f"{x:.5f}" for x in xs))
    return "\n".join(lines) + "\n"


def doc_lines(records: int, seed: int = 0, vocab_size: int = 300,
              words_per_doc: tuple[int, int] = (6, 18)) -> str:
    """Inverted-index input: ``docId w1 w2 ...`` per line, Zipf words."""
    rng = _rng(seed)
    vocab = make_vocabulary(vocab_size, seed=seed + 1)
    cum_weights = _zipf_cum_weights(len(vocab))
    lines = []
    for doc in range(records):
        k = rng.randint(*words_per_doc)
        words = rng.choices(vocab, cum_weights=cum_weights, k=k)
        lines.append(f"{doc} " + " ".join(words))
    return "\n".join(lines) + "\n"


def join_rows(records: int, seed: int = 0, keys: int | None = None) -> str:
    """Two-table join input: ``R key payload`` / ``S key payload`` rows.
    Join keys collide across both tables so reducers see real matches."""
    rng = _rng(seed)
    nkeys = keys if keys is not None else max(4, records // 6)
    lines = []
    for _ in range(records):
        side = "R" if rng.random() < 0.55 else "S"
        key = rng.randrange(nkeys)
        lines.append(f"{side} {key} p{rng.randint(0, 9999)}")
    return "\n".join(lines) + "\n"


def sort_records(records: int, seed: int = 0, key_digits: int = 8) -> str:
    """Terasort-style input: zero-padded decimal sort key + payload.
    Leading-zero keys stay *text* under the streaming coercion rules
    while zero-free keys become ints — the mix exercises the numeric-
    before-text comparator exactly where real sort benchmarks do."""
    rng = _rng(seed)
    bound = 10 ** key_digits
    lines = []
    for i in range(records):
        key = rng.randrange(bound)
        lines.append(f"{key:0{key_digits}d} row{i} {rng.randint(0, 9999)}")
    return "\n".join(lines) + "\n"


def adjacency(records: int, seed: int = 0, max_out: int = 8) -> str:
    """PageRank input: ``src dst1 .. dstm`` per line, one line per node.
    Out-degrees are skewed and duplicate edges are allowed (multigraph)."""
    rng = _rng(seed)
    lines = []
    for src in range(records):
        m = max(1, min(max_out, int(rng.paretovariate(1.3))))
        dsts = [str(rng.randrange(records)) for _ in range(m)]
        lines.append(f"{src} " + " ".join(dsts))
    return "\n".join(lines) + "\n"


def option_chain(records: int, seed: int = 0) -> str:
    """BlackScholes input: ``id spot strike years rate volatility``."""
    rng = _rng(seed)
    lines = []
    for i in range(records):
        spot = rng.uniform(10.0, 200.0)
        strike = spot * rng.uniform(0.6, 1.4)
        years = rng.uniform(0.1, 3.0)
        rate = rng.uniform(0.01, 0.08)
        vol = rng.uniform(0.1, 0.6)
        lines.append(
            f"{i} {spot:.4f} {strike:.4f} {years:.4f} {rate:.4f} {vol:.4f}"
        )
    return "\n".join(lines) + "\n"
