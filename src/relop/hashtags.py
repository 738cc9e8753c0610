"""Hashtag co-occurrence network, edge significance, and opinion labeling."""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations
from typing import Iterable, Optional

import numpy as np


class OpinionLabel(str, Enum):
    PRO_CLINTON = "pro_clinton"
    ANTI_TRUMP = "anti_trump"
    SUPPORT_CLINTON = "support_clinton"
    PRO_TRUMP = "pro_trump"
    ANTI_CLINTON = "anti_clinton"
    SUPPORT_TRUMP = "support_trump"
    MIXED = "mixed"
    UNIDENTIFIED = "unidentified"


# the categories allowed in a training set, in fixed index order
TRAINING_CATEGORIES = (
    OpinionLabel.PRO_CLINTON,
    OpinionLabel.ANTI_TRUMP,
    OpinionLabel.SUPPORT_CLINTON,
    OpinionLabel.PRO_TRUMP,
    OpinionLabel.ANTI_CLINTON,
    OpinionLabel.SUPPORT_TRUMP,
)

DEFAULT_SEEDS = {
    "#maga": OpinionLabel.PRO_TRUMP,
    "#imwithher": OpinionLabel.PRO_CLINTON,
    "#nevertrump": OpinionLabel.ANTI_TRUMP,
    "#neverhillary": OpinionLabel.ANTI_CLINTON,
}


@dataclass
class CoocEdge:
    i: str
    j: str
    k: int
    p: float = 1.0
    s: float = 0.0


@dataclass
class HashtagGraph:
    """Undirected simple graph over hashtags.

    ``counts[h]`` is the number of tweets containing ``h`` (per-tweet dedup),
    ``edges`` is keyed by the sorted hashtag pair, and ``n_tweets`` is the
    total number of tweets the graph was built from.
    """

    counts: dict[str, int] = field(default_factory=dict)
    edges: dict[tuple[str, str], CoocEdge] = field(default_factory=dict)
    n_tweets: int = 0

    def neighbors(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {h: [] for h in self.counts}
        for (a, b) in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj


def build_cooccurrence(corpus: Iterable[Iterable[str]]) -> HashtagGraph:
    """Count hashtags and their per-tweet co-occurrences.

    ``corpus`` yields per-tweet token lists; only '#'-prefixed tokens are
    used, deduplicated within each tweet so a pair counts once per tweet.
    """
    counts: dict[str, int] = {}
    pairs: dict[tuple[str, str], int] = {}
    n_tweets = 0
    for tokens in corpus:
        n_tweets += 1
        tags = sorted({t for t in tokens if t.startswith("#")})
        for tag in tags:
            counts[tag] = counts.get(tag, 0) + 1
        for pair in combinations(tags, 2):
            pairs[pair] = pairs.get(pair, 0) + 1
    edges = {pair: CoocEdge(pair[0], pair[1], k) for pair, k in pairs.items()}
    return HashtagGraph(counts=counts, edges=edges, n_tweets=n_tweets)


def edge_pvalue(n_i: int, n_j: int, k: int, n_total: int) -> float:
    """Probability of observing exactly ``k`` co-occurrences by chance.

    The hypergeometric PMF C(n_i,k)·C(N-n_i,n_j-k)/C(N,n_j), evaluated as a
    sum of log binomials (differences of log-factorials via ``math.lgamma``),
    so each call costs O(1). Clamped to [0,1] only against floating-point
    excursions.
    """
    if not (0 <= k <= min(n_i, n_j)):
        raise ValueError(f"require 0 <= k <= min(n_i, n_j), got k={k}, n_i={n_i}, n_j={n_j}")
    if n_i > n_total or n_j > n_total:
        raise ValueError("occurrence counts cannot exceed the tweet count")
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    if n_j - k > n_total - n_i:
        return 0.0
    log_p = (
        _log_comb(n_i, k)
        + _log_comb(n_total - n_i, n_j - k)
        - _log_comb(n_total, n_j)
    )
    p = math.exp(log_p)
    return min(max(p, 0.0), 1.0)


def _log_comb(n: int, r: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)


def significance_filter(graph: HashtagGraph, p_o: float = 1e-6) -> HashtagGraph:
    """Keep edges whose co-occurrence p-value is strictly below ``p_o``.

    Retained edges get the weight s = ln(p_o / p); all vertices are kept
    even when they become isolated.
    """
    if not (0.0 < p_o < 1.0):
        raise ValueError("p_o must lie in (0, 1)")
    filtered = HashtagGraph(counts=dict(graph.counts), n_tweets=graph.n_tweets)
    for key, edge in graph.edges.items():
        p = edge_pvalue(graph.counts[edge.i], graph.counts[edge.j], edge.k, graph.n_tweets)
        if p < p_o:
            s = math.log(p_o / p) if p > 0.0 else math.inf
            filtered.edges[key] = CoocEdge(edge.i, edge.j, edge.k, p, s)
    return filtered


def propagate_hashtag_labels(
    graph: HashtagGraph,
    seeds: dict[str, OpinionLabel],
    rng: np.random.Generator,
    max_sweeps: int = 100,
    weighted: bool = False,
    tally: Counter | None = None,
) -> dict[str, OpinionLabel]:
    """Spread seed labels over the graph by asynchronous majority vote.

    Vertices are visited in a fresh random order each sweep; every non-seed
    vertex adopts the label carried by most of its labeled neighbors, ties
    broken uniformly at random. Seeds never change. Sweeping stops at a fixed
    point: every non-seed vertex with a labeled neighbor holds one of its
    majority labels. ``weighted`` votes by significance weight instead of
    neighbor count. ``tally``, when given, records the sweeps run
    (``lpa_sweeps``) and whether they reached the fixed point before
    ``max_sweeps`` (``lpa_settled``).
    """
    adjacency = graph.neighbors()
    edge_weight = {key: edge.s for key, edge in graph.edges.items()}
    labels: dict[str, OpinionLabel] = {h: lab for h, lab in seeds.items() if h in graph.counts}
    vertices = sorted(graph.counts)

    def majority(vertex: str) -> Optional[list[OpinionLabel]]:
        tally: Counter[OpinionLabel] = Counter()
        for nb in adjacency[vertex]:
            lab = labels.get(nb)
            if lab is not None:
                key = (vertex, nb) if vertex < nb else (nb, vertex)
                tally[lab] += edge_weight[key] if weighted else 1
        if not tally:
            return None
        top = max(tally.values())
        return sorted((lab for lab, c in tally.items() if c == top), key=lambda l: l.value)

    def settled(vertex: str) -> bool:
        best = majority(vertex)
        return best is None or labels.get(vertex) in best

    sweeps, fixed = 0, False
    while not fixed and sweeps < max_sweeps:
        sweeps += 1
        order = rng.permutation(len(vertices))
        for idx in order:
            vertex = vertices[idx]
            if vertex in seeds:
                continue
            best = majority(vertex)
            if best is None:
                continue
            labels[vertex] = best[0] if len(best) == 1 else best[int(rng.integers(len(best)))]
        fixed = all(settled(vertex) for vertex in vertices if vertex not in seeds)
    if tally is not None:
        tally["lpa_sweeps"] = sweeps
        tally["lpa_settled"] = fixed
    return labels


def prune_labels(
    labels: dict[str, OpinionLabel],
    counts: dict[str, int],
    r: float = 0.001,
) -> dict[str, OpinionLabel]:
    """Drop labeled hashtags rarer than ``r`` times their class maximum."""
    if r <= 0:
        raise ValueError("r must be positive")
    class_max: dict[OpinionLabel, int] = defaultdict(int)
    for tag, lab in labels.items():
        class_max[lab] = max(class_max[lab], counts.get(tag, 0))
    return {
        tag: lab
        for tag, lab in labels.items()
        if counts.get(tag, 0) > r * class_max[lab]
    }


_SUPPORT_PAIRS = {
    frozenset({OpinionLabel.PRO_TRUMP, OpinionLabel.ANTI_CLINTON}): OpinionLabel.SUPPORT_TRUMP,
    frozenset({OpinionLabel.PRO_CLINTON, OpinionLabel.ANTI_TRUMP}): OpinionLabel.SUPPORT_CLINTON,
}


def classify_tweet(hashtags: Iterable[str], labels: dict[str, OpinionLabel]) -> OpinionLabel:
    """Assign a tweet's opinion category from its labeled hashtags.

    A unique most-common label wins; a two-way tie within one side maps to
    the side's Support category; ties across sides are Mixed; tweets with no
    labeled hashtag are Unidentified.
    """
    found = [labels[tag] for tag in hashtags if tag in labels]
    if not found:
        return OpinionLabel.UNIDENTIFIED
    if found.count(found[0]) == len(found):  # one label occurs: it leads alone
        return found[0]
    tally: dict[OpinionLabel, int] = {}
    for lab in found:
        tally[lab] = tally.get(lab, 0) + 1
    top = max(tally.values())
    leaders = frozenset(lab for lab, c in tally.items() if c == top)
    if len(leaders) == 1:
        return next(iter(leaders))
    return _SUPPORT_PAIRS.get(leaders, OpinionLabel.MIXED)


@dataclass
class TrainingSet:
    """Opinion-labeled token sequences ready for embedding training.

    ``examples`` pairs a token list with a 1-based category index into
    ``categories``; only clear opinion categories are included and labeled
    hashtags are removed from the token sequences. ``category_counts``
    covers every assignment, including Mixed/Unidentified, so its values
    sum to the corpus size.
    """

    examples: list[tuple[list[str], int]]
    categories: tuple[str, ...]
    category_counts: dict[str, int]


def label_tweets(
    corpus: Iterable[list[str]],
    labels: dict[str, OpinionLabel],
) -> TrainingSet:
    """Build the training set by categorizing every tweet via its hashtags."""
    category_names = tuple(lab.value for lab in TRAINING_CATEGORIES)
    index = {lab: i + 1 for i, lab in enumerate(TRAINING_CATEGORIES)}
    counts = {lab.value: 0 for lab in OpinionLabel}
    examples: list[tuple[list[str], int]] = []
    for tokens in corpus:
        category = classify_tweet([t for t in tokens if t.startswith("#")], labels)
        counts[category.value] += 1
        if category in index:
            kept = [t for t in tokens if t not in labels]
            examples.append((kept, index[category]))
    return TrainingSet(examples=examples, categories=category_names, category_counts=counts)


def write_label_map(path, labels: dict[str, OpinionLabel], counts: dict[str, int]) -> None:
    """Persist hashtag labels as ``hashtag,label,n_i`` CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("hashtag", "label", "n_i"))
        writer.writerows((tag, labels[tag].value, counts.get(tag, 0)) for tag in sorted(labels))


def read_label_map(path) -> tuple[dict[str, OpinionLabel], dict[str, int]]:
    labels: dict[str, OpinionLabel] = {}
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["hashtag", "label"]:
            raise ValueError(f"unexpected label map header: {header!r}")
        for row in reader:
            if len(row) < 2:
                continue
            labels[row[0]] = OpinionLabel(row[1])
            counts[row[0]] = int(row[2]) if len(row) > 2 else 0
    return labels, counts


def read_seeds(path) -> dict[str, OpinionLabel]:
    """Read a ``hashtag,label`` seed CSV (header row required)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return {row[0]: OpinionLabel(row[1]) for row in reader if len(row) >= 2 and row[0]}


def write_training_set(path, training_set: TrainingSet) -> None:
    """Persist the training set as ``label<TAB>space-joined tokens`` TSV."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, category in training_set.examples:
            name = training_set.categories[category - 1]
            fh.write(f"{name}\t{' '.join(tokens)}\n")


def read_training_set(path) -> TrainingSet:
    categories = tuple(lab.value for lab in TRAINING_CATEGORIES)
    index = {name: i + 1 for i, name in enumerate(categories)}
    examples: list[tuple[list[str], int]] = []
    counts = {name: 0 for name in categories}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            name, _, text = line.partition("\t")
            examples.append((text.split(), index[name]))
            counts[name] += 1
    return TrainingSet(examples=examples, categories=categories, category_counts=counts)
