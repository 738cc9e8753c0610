"""Aggregation of word vectors to tweet, user, and state opinion points."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .ingest import Vocabulary
from .oowe import OoweModel


@dataclass(frozen=True)
class OpinionPoint:
    entity_id: str
    level: str  # tweet | user | state
    vector: np.ndarray
    support_count: int


def _pairwise_sum(arrays: Sequence[np.ndarray]) -> np.ndarray:
    items = list(arrays)
    while len(items) > 1:
        merged = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def exact_mean(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mean of a vector multiset, invariant to ordering and duplication.

    Vectors are grouped by exact bit pattern, multiplicities are divided by
    their gcd, and the weighted sum runs over byte-sorted groups with a fixed
    pairwise reduction tree. Replicating the whole multiset or permuting it
    therefore reproduces the result bit for bit.
    """
    vectors = list(vectors)
    if not vectors:
        raise ValueError("cannot average an empty collection")
    groups: dict[bytes, list] = {}
    for v in vectors:
        key = v.tobytes()
        entry = groups.get(key)
        if entry is None:
            groups[key] = [1, v]
        else:
            entry[0] += 1
    divisor = 0
    for count, _ in groups.values():
        divisor = math.gcd(divisor, count)
    keys = sorted(groups)
    terms = [groups[key][1] * float(groups[key][0] // divisor) for key in keys]
    total = _pairwise_sum(terms)
    return total / float(sum(groups[key][0] // divisor for key in keys))


def tweet_vector(
    model: OoweModel,
    vocab: Vocabulary,
    tokens: Iterable[str],
    exclude: Optional[set[str]] = None,
    tally: Optional[Counter] = None,
) -> Optional[np.ndarray]:
    """Centroid of the tweet's in-vocabulary token embeddings.

    Opinion-labeled hashtags (``exclude``) and out-of-vocabulary tokens are
    skipped; returns None when no usable token remains. ``tally``, when
    given, adds the tokens not excluded (``tokens``) and those of them
    skipped as out of vocabulary (``oov_tokens``).
    """
    exclude = exclude or set()
    kept = [t for t in tokens if t not in exclude]
    rows = [model.embeddings[vocab.index[t]] for t in kept if t in vocab]
    if tally is not None:
        tally["tokens"] += len(kept)
        tally["oov_tokens"] += len(kept) - len(rows)
    if not rows:
        return None
    return exact_mean(rows)


def user_vector(tweet_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mean over a user's tweet vectors: one point per user downstream,
    regardless of how much the user posts."""
    return exact_mean(tweet_vectors)


def state_vector(user_vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Mean over the state's user vectors."""
    return exact_mean(user_vectors)


def state_variation(user_vectors: Sequence[np.ndarray]) -> float:
    """Opinion variation: per-dimension population stddev, averaged over dims."""
    stack = np.vstack(user_vectors)
    return float(np.std(stack, axis=0).mean())


def representativeness(user_count: int, population: Optional[int]) -> Optional[float]:
    """Captured-user share of the population; None when population is unknown."""
    if population is None:
        return None
    if population <= 0:
        raise ValueError("population must be positive")
    return user_count / population


def majority_state(states: Sequence[str]) -> str:
    """Most frequent state, lexicographically smallest on ties."""
    tally = Counter(states)
    top = max(tally.values())
    return min(s for s, c in tally.items() if c == top)


@dataclass
class AggregateResult:
    tweet_points: list[OpinionPoint]
    user_points: list[OpinionPoint]
    state_points: list[OpinionPoint]
    state_user_vectors: dict[str, list[np.ndarray]]
    skipped: int
    oov_rate: float


def aggregate_corpus(
    model: OoweModel,
    vocab: Vocabulary,
    tweets: Sequence[tuple[str, str, Optional[str], list[str]]],
    exclude: Optional[set[str]] = None,
) -> AggregateResult:
    """Roll tweets (id, user_id, state, tokens) up to the three levels.

    ``skipped`` counts tweets with no usable token, and ``oov_rate`` is the
    share of the tweets' tokens outside ``exclude`` that are out of
    vocabulary (0 when there is none). Users are pinned to
    their majority state; users with no resolvable state stay out of the
    state level.
    """
    tweet_points: list[OpinionPoint] = []
    by_user: dict[str, list[np.ndarray]] = {}
    user_states: dict[str, list[str]] = {}
    skipped = 0
    tally: Counter = Counter()
    for tweet_id, user_id, state, tokens in tweets:
        vec = tweet_vector(model, vocab, tokens, exclude, tally)
        if vec is None:
            skipped += 1
            continue
        tweet_points.append(OpinionPoint(tweet_id, "tweet", vec, 1))
        by_user.setdefault(user_id, []).append(vec)
        if state is not None:
            user_states.setdefault(user_id, []).append(state)

    user_points: list[OpinionPoint] = []
    by_state: dict[str, list[np.ndarray]] = {}
    for user_id in sorted(by_user):
        vec = user_vector(by_user[user_id])
        user_points.append(OpinionPoint(user_id, "user", vec, len(by_user[user_id])))
        if user_id in user_states:
            by_state.setdefault(majority_state(user_states[user_id]), []).append(vec)

    state_points = [
        OpinionPoint(state, "state", state_vector(vecs), len(vecs))
        for state, vecs in sorted(by_state.items())
    ]
    oov_rate = tally["oov_tokens"] / tally["tokens"] if tally["tokens"] else 0.0
    return AggregateResult(tweet_points, user_points, state_points, by_state, skipped, oov_rate)


def state_summaries(
    state_user_vectors: dict[str, list[np.ndarray]],
    populations: dict[str, int],
) -> list[dict]:
    """Per-state variation and representativeness rows."""
    rows = []
    for state in sorted(state_user_vectors):
        vecs = state_user_vectors[state]
        rows.append(
            {
                "state": state,
                "user_count": len(vecs),
                "stddev": state_variation(vecs),
                "representativeness": representativeness(
                    len(vecs), populations.get(state)
                ),
            }
        )
    return rows


def write_points(path, points: Iterable[OpinionPoint]) -> None:
    """Persist points as ``level<TAB>entity_id<TAB>count<TAB>v1 v2 ...`` TSV."""
    with open(path, "w", encoding="utf-8") as fh:
        for point in points:
            values = " ".join(repr(float(v)) for v in point.vector)
            fh.write(f"{point.level}\t{point.entity_id}\t{point.support_count}\t{values}\n")


def read_points(path, level: Optional[str] = None) -> list[OpinionPoint]:
    points = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            lvl, entity, count, values = line.split("\t")
            if level is not None and lvl != level:
                continue
            vec = np.array([float(v) for v in values.split()])
            points.append(OpinionPoint(entity, lvl, vec, int(count)))
    return points
