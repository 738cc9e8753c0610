"""Synthetic corpus/manifold generators and independent numeric oracles.

The oracles deliberately avoid the code paths of the components they check:
the hypergeometric PMF is exact integer arithmetic, gradients come from
central differences, reconstruction weights from direct search, and the
label fixed point from iterating the propagation step from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ingest import Post
from .oowe import Gradients, OoweModel, _loss_and_gradients


# ---------------------------------------------------------------------------
# corpus generator


@dataclass
class SynthCorpusConfig:
    classes: int = 2
    lexicon_size: int = 25
    neutral_size: int = 120
    tweets_per_class: int = 500
    tokens_per_tweet: int = 10
    seed_hashtags: tuple[str, ...] = ("#maga", "#imwithher")
    cooc_hashtags_per_class: int = 5
    users_per_class: int = 40
    bot_fraction: float = 0.0
    seed_rate: float = 0.85     # chance a tweet carries its class seed hashtag
    cooc_rate: float = 0.9      # chance of one planted side hashtag
    mixed_rate: float = 0.01    # chance of a deliberately two-sided tweet
    # contaminating other-side hashtags create anti-correlated pairs whose
    # exact-count p-value is also significant (left tail), flipping labels
    # on coin-flip neighbor ties; keep 0 unless that effect is the point
    cross_rate: float = 0.0
    keywords: tuple[str, str] = ("trump", "clinton")
    official_client: str = "Twitter for iPhone"
    bot_client: str = "autopost 3000"
    seed: int = 0

    def __post_init__(self):
        if self.classes < 1:
            raise ValueError("classes must be >= 1")
        if len(self.seed_hashtags) != self.classes:
            raise ValueError("need one seed hashtag per class")
        for name in ("lexicon_size", "neutral_size", "tweets_per_class",
                     "tokens_per_tweet", "cooc_hashtags_per_class", "users_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


# disjoint per-class state pools keep synthetic geography separable
_STATE_POOL = (
    "CA", "NY", "MA", "WA", "OR", "IL", "MD", "VT",
    "WY", "OK", "WV", "NE", "ID", "ND", "SD", "KY",
    "TX", "FL", "OH", "PA", "MI", "WI", "AZ", "GA",
)


@dataclass
class SynthCorpus:
    posts: list[Post]
    tweet_classes: list[int]          # class per post, aligned with posts
    user_classes: dict[str, int]
    user_states: dict[str, str]
    state_classes: dict[str, int]
    lexicons: list[list[str]]         # class -> planted opinion words
    cooc_hashtags: list[list[str]]    # class -> planted co-occurring hashtags
    config: SynthCorpusConfig


def gen_opinion_corpus(config: SynthCorpusConfig) -> SynthCorpus:
    """Generate a planted-opinion corpus.

    Every tweet carries both relevance keywords, its class seed hashtag
    and/or planted side hashtags, class lexicon words, and neutral filler.
    Users (and through them states) are class-pure, so tweet, user and state
    truth labels are all known. Output is a pure function of the seed.
    """
    rng = np.random.default_rng(config.seed)
    lexicons = [
        [f"side{c}word{i}" for i in range(config.lexicon_size)]
        for c in range(config.classes)
    ]
    neutral = [f"filler{i}" for i in range(config.neutral_size)]
    cooc = [
        [f"#side{c}tag{i}" for i in range(config.cooc_hashtags_per_class)]
        for c in range(config.classes)
    ]
    states_per_class = max(1, len(_STATE_POOL) // max(config.classes, 1))
    state_classes: dict[str, int] = {}
    user_classes: dict[str, int] = {}
    user_states: dict[str, str] = {}
    for c in range(config.classes):
        pool = _STATE_POOL[c * states_per_class : (c + 1) * states_per_class]
        if not pool:
            pool = (_STATE_POOL[c % len(_STATE_POOL)],)
        for code in pool:
            state_classes[code] = c
        for u in range(config.users_per_class):
            uid = f"user{c}_{u}"
            user_classes[uid] = c
            user_states[uid] = pool[int(rng.integers(len(pool)))]

    posts: list[Post] = []
    tweet_classes: list[int] = []
    ts = 1_470_000_000
    for c in range(config.classes):
        for _ in range(config.tweets_per_class):
            tokens = list(config.keywords)
            if config.classes > 1 and rng.random() < config.mixed_rate:
                other = (c + 1 + int(rng.integers(config.classes - 1))) % config.classes
                tokens.append(config.seed_hashtags[c])
                tokens.append(config.seed_hashtags[other])
            else:
                if rng.random() < config.seed_rate:
                    tokens.append(config.seed_hashtags[c])
                if rng.random() < config.cooc_rate:
                    pool = cooc[c]
                    tokens.append(pool[int(rng.integers(len(pool)))])
                if config.classes > 1 and rng.random() < config.cross_rate:
                    other = (c + 1 + int(rng.integers(config.classes - 1))) % config.classes
                    tokens.append(cooc[other][int(rng.integers(len(cooc[other])))])
            n_lex = max(1, config.tokens_per_tweet // 3)
            for _ in range(n_lex):
                tokens.append(lexicons[c][int(rng.integers(config.lexicon_size))])
            while len(tokens) < config.tokens_per_tweet:
                tokens.append(neutral[int(rng.integers(config.neutral_size))])
            perm = rng.permutation(len(tokens))
            text = " ".join(tokens[i] for i in perm)
            uid = f"user{c}_{int(rng.integers(config.users_per_class))}"
            client = config.official_client
            if config.bot_fraction > 0 and rng.random() < config.bot_fraction:
                client = config.bot_client
            ts += 1
            posts.append(
                Post(
                    id=f"t{len(posts)}",
                    text=text,
                    user_id=uid,
                    client=client,
                    geo_field=user_states[uid],
                    profile_location=None,
                    timestamp=ts,
                )
            )
            tweet_classes.append(c)
    return SynthCorpus(
        posts=posts,
        tweet_classes=tweet_classes,
        user_classes=user_classes,
        user_states=user_states,
        state_classes=state_classes,
        lexicons=lexicons,
        cooc_hashtags=cooc,
        config=config,
    )


def corpus_to_jsonl(corpus: SynthCorpus) -> str:
    import json

    lines = []
    for post in corpus.posts:
        lines.append(
            json.dumps(
                {
                    "id": post.id,
                    "text": post.text,
                    "user_id": post.user_id,
                    "client": post.client,
                    "geo": post.geo_field,
                    "profile_location": post.profile_location,
                    "ts": post.timestamp,
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# manifold generators


@dataclass
class ManifoldSample:
    points: np.ndarray     # (n, D) observed coordinates
    intrinsic: np.ndarray  # (n, q) coordinates on the underlying manifold
    classes: np.ndarray    # (n,) int ground truth


def _spiral_arc_length(t: np.ndarray) -> np.ndarray:
    # arc length of the curve (t cos t, t sin t): integral of sqrt(1 + t^2)
    return 0.5 * (t * np.sqrt(1.0 + t * t) + np.arcsinh(t))


def gen_manifold(
    kind: str,
    n: int,
    noise: float = 0.0,
    seed: int = 0,
    dim: Optional[int] = None,
) -> ManifoldSample:
    """Sample a standard benchmark manifold with known intrinsic coordinates."""
    if n < 10:
        raise ValueError("n must be >= 10")
    rng = np.random.default_rng(seed)
    if kind == "two_moons":
        n0 = n // 2
        n1 = n - n0
        t0 = rng.uniform(0.0, np.pi, n0)
        t1 = rng.uniform(0.0, np.pi, n1)
        outer = np.column_stack([np.cos(t0), np.sin(t0)])
        inner = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
        points = np.vstack([outer, inner]) + noise * rng.standard_normal((n, 2))
        intrinsic = np.column_stack(
            [np.concatenate([t0, t1]), np.concatenate([np.zeros(n0), np.ones(n1)])]
        )
        classes = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        return ManifoldSample(points, intrinsic, classes)
    if kind == "swiss_roll":
        t = 1.5 * np.pi * (1.0 + 2.0 * rng.uniform(0.0, 1.0, n))
        height = 21.0 * rng.uniform(0.0, 1.0, n)
        points = np.column_stack([t * np.cos(t), height, t * np.sin(t)])
        points = points + noise * rng.standard_normal((n, 3))
        intrinsic = np.column_stack([_spiral_arc_length(t), height])
        classes = (t > 3.0 * np.pi).astype(int)
        return ManifoldSample(points, intrinsic, classes)
    if kind == "blobs":
        d = dim or 2
        centers = np.zeros((2, d))
        centers[1, 0] = 10.0
        classes = rng.integers(0, 2, n)
        points = centers[classes] + noise * rng.standard_normal((n, d))
        return ManifoldSample(points, classes.reshape(-1, 1).astype(float), classes)
    if kind == "flat_grid":
        d = dim or 3
        side = int(math.ceil(math.sqrt(n)))
        xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
        grid = np.column_stack([xs.ravel(), ys.ravel()])[:n]
        embedded = np.zeros((n, d))
        embedded[:, :2] = grid
        rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        points = embedded @ rotation.T + noise * rng.standard_normal((n, d))
        return ManifoldSample(points, grid, np.zeros(n, dtype=int))
    raise ValueError(f"unknown manifold kind: {kind}")


# ---------------------------------------------------------------------------
# oracles


def hypergeom_pmf(n_total: int, n_i: int, n_j: int, k: int) -> float:
    """Exact hypergeometric PMF C(n_i,k)·C(N-n_i,n_j-k)/C(N,n_j).

    Integer combinatorics with a single correctly-rounded division, so the
    result is exact to within half an ulp.
    """
    if k < 0 or k > n_i or k > n_j or n_j - k > n_total - n_i:
        return 0.0
    num = math.comb(n_i, k) * math.comb(n_total - n_i, n_j - k)
    return num / math.comb(n_total, n_j)


def finite_diff_grads(
    model: OoweModel,
    t: np.ndarray,
    t_r: np.ndarray,
    category: int,
    alpha: float,
    eps: float = 1e-5,
) -> Gradients:
    """Dense central-difference gradients of the composite hinge loss."""

    def loss_now() -> float:
        return _loss_and_gradients(model, t, t_r, category, alpha, want_grads=False)[0]

    def diff_array(arr: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = grad.ravel()
        for pos in range(flat.size):
            orig = flat[pos]
            flat[pos] = orig + eps
            hi = loss_now()
            flat[pos] = orig - eps
            lo = loss_now()
            flat[pos] = orig
            gflat[pos] = (hi - lo) / (2.0 * eps)
        return grad

    emb = diff_array(model.embeddings)
    rows = {idx: emb[idx].copy() for idx in range(emb.shape[0])}
    return Gradients(
        w1=diff_array(model.w1),
        b1=diff_array(model.b1),
        w2=diff_array(model.w2),
        b2=diff_array(model.b2),
        embed_rows=rows,
    )


def brute_force_lnp_weights(
    point: np.ndarray,
    neighbors: np.ndarray,
    resolution: float = 0.05,
) -> np.ndarray:
    """Directly minimize |x - sum_j w_j n_j|^2 over the simplex w >= 0,
    sum w = 1.

    k=2 uses golden-section search on the edge [0, 1]. k=3 scans a grid over
    two free parameters in [-2, 3] at ``resolution`` and then refines around
    the best cell (the objective is convex, so refinement is exact); when
    that optimum has a negative weight, the constrained optimum lies on an
    edge of the simplex, and the best of the three edges (each searched as
    k=2) is returned. A grid optimum on the boundary of [-2, 3]^2 always has
    a negative weight, so every instance is certified.
    """
    point = np.asarray(point, dtype=float)
    neighbors = np.asarray(neighbors, dtype=float)
    k = neighbors.shape[0]

    def err(w: np.ndarray) -> np.ndarray:
        return np.sum((point - w @ neighbors) ** 2, axis=-1)

    if k == 2:
        lo, hi = 0.0, 1.0
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(120):
            x1, x2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
            if err(np.array([x1, 1.0 - x1])) <= err(np.array([x2, 1.0 - x2])):
                hi = x2
            else:
                lo = x1
        w1 = (lo + hi) / 2.0
        return np.array([w1, 1.0 - w1])
    if k == 3:
        lo, hi, step = np.full(2, -2.0), np.full(2, 3.0), resolution
        while True:
            axes = [np.arange(lo[i], hi[i] + step / 2, step) for i in range(2)]
            a, b = (axis.ravel() for axis in np.meshgrid(*axes, indexing="ij"))
            grid = np.column_stack([a, b, 1.0 - a - b])
            best_w = grid[np.argmin(err(grid))]
            if step < 1e-9:
                break
            lo, hi, step = best_w[:2] - 2.0 * step, best_w[:2] + 2.0 * step, step / 10.0
        if best_w.min() >= 0.0:
            return best_w
        edges = []
        for pair in ([0, 1], [0, 2], [1, 2]):
            edges.append(np.zeros(3))
            edges[-1][pair] = brute_force_lnp_weights(point, neighbors[pair])
        return min(edges, key=err)
    raise ValueError("brute force supports k in {2, 3}")


def harmonic_iterate(
    neighbor_indices: np.ndarray,
    neighbor_weights: np.ndarray,
    initial_labels: dict[int, int],
    n_classes: int,
    tol: float = 1e-13,
    max_iters: int = 300000,
) -> np.ndarray:
    """Iterate the label update L_u <- W_uu L_u + W_ul L_l from zero until a
    step moves no entry by ``tol``; labeled rows stay one-hot."""
    n = neighbor_indices.shape[0]
    dense = np.zeros((n, n))
    for i in range(n):
        for j, w in zip(neighbor_indices[i], neighbor_weights[i]):
            dense[i, int(j)] += w
    labeled = sorted(initial_labels)
    unlabeled = [i for i in range(n) if i not in initial_labels]
    labels = np.zeros((n, n_classes))
    for i, c in initial_labels.items():
        labels[i, c] = 1.0
    if unlabeled:
        w_uu = dense[np.ix_(unlabeled, unlabeled)]
        bias = dense[np.ix_(unlabeled, labeled)] @ labels[labeled]
        current = np.zeros((len(unlabeled), n_classes))
        for _ in range(max_iters):
            updated = w_uu @ current + bias
            step = float(np.abs(updated - current).max())
            current = updated
            if step < tol:
                break
        else:
            raise ValueError(f"label iteration did not settle within {max_iters} steps")
        labels[unlabeled] = current
    return labels


def procrustes_residual(result: np.ndarray, reference: np.ndarray) -> float:
    """Relative Frobenius residual after optimal rigid alignment.

    Allows translation, rotation and reflection (no scaling); used to compare
    an embedding against a known configuration.
    """
    a = result - result.mean(axis=0)
    b = reference - reference.mean(axis=0)
    if a.shape[1] < b.shape[1]:
        a = np.hstack([a, np.zeros((a.shape[0], b.shape[1] - a.shape[1]))])
    elif b.shape[1] < a.shape[1]:
        b = np.hstack([b, np.zeros((b.shape[0], a.shape[1] - b.shape[1]))])
    u, _, vt = np.linalg.svd(a.T @ b)
    rot = u @ vt
    denom = np.linalg.norm(b)
    if denom == 0.0:
        return float(np.linalg.norm(a @ rot))
    return float(np.linalg.norm(a @ rot - b) / denom)
