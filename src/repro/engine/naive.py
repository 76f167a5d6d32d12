"""A naive top-k reference: enumerate, score, sort.

The ablation counterpart of :func:`repro.engine.search.top_k`.  It
materialises the cross product of the clusters (optionally truncated to
the best ``per_cluster`` entries each — without truncation the product
is exponential), scores every combination, and sorts.  Exact on small
instances, hopeless on big ones; the benchmark suite uses it to show
what the paper's "minimise the number of combinations" strategy (§5)
buys.
"""

from __future__ import annotations

import itertools

from ..paths.intersection import chi
from ..scoring.weights import PAPER_WEIGHTS, ScoringWeights
from .answers import Answer
from .clustering import Cluster
from .preprocess import PreparedQuery
from .search import SearchResult


def naive_top_k(prepared: PreparedQuery, clusters: list[Cluster],
                weights: ScoringWeights = PAPER_WEIGHTS, k: int = 10,
                per_cluster: "int | None" = None,
                max_combinations: int = 2_000_000) -> SearchResult:
    """Top-k by full enumeration (the no-search ablation).

    Raises ``ValueError`` when the (possibly truncated) combination
    space exceeds ``max_combinations`` — the honest way to report that
    enumeration is infeasible, which is itself the ablation's lesson.
    """
    if len(clusters) != len(prepared.paths):
        raise ValueError("need one cluster per query path")
    domains: list[list] = []
    total = 1
    for cluster in clusters:
        entries = cluster.entries
        if per_cluster is not None:
            entries = entries[:per_cluster]
        domain = list(entries) if entries else [None]
        domains.append(domain)
        total *= len(domain)
        if total > max_combinations:
            raise ValueError(
                f"combination space exceeds {max_combinations:,}; "
                f"pass per_cluster to truncate (this blow-up is what the "
                f"guided search avoids)")

    edge_info = [(i, j, weights.conformity * len(shared))
                 for i, j, shared in prepared.ig.edges()]
    scored: list[Answer] = []
    for combination in itertools.product(*domains):
        quality = 0.0
        covered = 0
        for cluster, entry in zip(clusters, combination):
            if entry is None:
                quality += cluster.missing_penalty
            else:
                quality += entry.score
                covered += 1
        if covered == 0:
            continue
        conformity = 0.0
        broken = 0
        for i, j, penalty in edge_info:
            entry_i, entry_j = combination[i], combination[j]
            if entry_i is None or entry_j is None:
                conformity += penalty
                broken += 1
                continue
            common = len(chi(entry_i.path, entry_j.path))
            if common == 0:
                conformity += penalty
                broken += 1
            else:
                conformity += penalty / common
        scored.append(Answer(entries=tuple(combination),
                             query_paths=tuple(prepared.paths),
                             quality=quality, conformity=conformity,
                             broken_pairs=broken))
    scored.sort(key=lambda answer: (answer.score, answer.broken_pairs))
    return SearchResult(answers=scored[:k], expansions=total,
                        generated=len(scored))
