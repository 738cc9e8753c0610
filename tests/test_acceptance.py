"""Acceptance gate: every criterion as one test, printing one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
measured values. The two-moons sensitivity protocol is computed once and
shared between the criteria that consume it.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import spearmanr

from relop.aggregate import aggregate_corpus
from relop.hashtags import (
    OpinionLabel,
    TRAINING_CATEGORIES,
    build_cooccurrence,
    edge_pvalue,
    label_tweets,
    propagate_hashtag_labels,
    prune_labels,
    significance_filter,
)
from relop.ingest import build_vocab, content_tokens, tokenize
from relop.lnp import (
    WeightMatrix,
    propagate,
    reconstruction_weights,
    select_k,
    sensitivity_sweep,
    sweep_medians,
    evaluate_fixture,
)
from relop.manifold import (
    classical_mds,
    geodesic_distances,
    pairwise_euclidean,
    smacof_mds,
)
from relop.oowe import OoweConfig, OoweModel, corrupt, forward, gradients, init_model, train
from relop.hashtags import TrainingSet
from relop.pipeline import _read_entity_csv, data_path, run_stage
from relop.synth import (
    SynthCorpusConfig,
    brute_force_lnp_weights,
    finite_diff_grads,
    gen_manifold,
    gen_opinion_corpus,
    harmonic_iterate,
    hypergeom_pmf,
    procrustes_residual,
)


def report(number, name, detail):
    print(f"\nACCEPTANCE {number:2d} {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# shared expensive fixtures

MOONS_SEED = 7
PROTOCOL_SEED = 2024
K_RANGE = range(2, 26)
LABEL_COUNTS = (4, 8, 12, 16)


@pytest.fixture(scope="module")
def moons():
    return gen_manifold("two_moons", 100, noise=0.08, seed=MOONS_SEED)


@pytest.fixture(scope="module")
def sweep_rows(moons):
    return sensitivity_sweep(
        moons.points,
        moons.classes,
        LABEL_COUNTS,
        K_RANGE,
        runs=50,
        seed=PROTOCOL_SEED,
    )


def test_01_hypergeometric_equivalence():
    """edge_pvalue equals the exact hypergeometric PMF on the full N<=60
    grid at relative error < 1e-9, within the 10 s budget."""
    started = time.time()
    worst = 0.0
    checked = 0
    for total in range(1, 61):
        for n_i in range(total + 1):
            for n_j in range(total + 1):
                for k in range(min(n_i, n_j) + 1):
                    got = edge_pvalue(n_i, n_j, k, total)
                    want = hypergeom_pmf(total, n_i, n_j, k)
                    checked += 1
                    if want == 0.0:
                        assert got <= 1e-12
                    else:
                        worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - started
    assert worst < 1e-9
    assert elapsed < 10.0
    report(1, "hypergeometric equivalence",
           f"{checked} tuples, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_02_seed_hashtag_pipeline():
    """1000 synthetic tweets, two planted sides, p_o=1e-6, r=0.001: planted
    side hashtags adopt their side's label in >=95% of cases over 50
    propagation seeds, and only clear categories enter the training set."""
    config = SynthCorpusConfig(tweets_per_class=500, mixed_rate=0.01, seed=2)
    corpus = gen_opinion_corpus(config)
    assert len(corpus.posts) == 1000
    tweets = [content_tokens(tokenize(p.text)) for p in corpus.posts]
    graph = significance_filter(build_cooccurrence(tweets), p_o=1e-6)
    seeds = {
        config.seed_hashtags[0]: OpinionLabel.PRO_TRUMP,
        config.seed_hashtags[1]: OpinionLabel.PRO_CLINTON,
    }
    side_of = {0: OpinionLabel.PRO_TRUMP, 1: OpinionLabel.PRO_CLINTON}
    planted = [(tag, side_of[side]) for side in (0, 1) for tag in corpus.cooc_hashtags[side]]
    hits = 0
    pruned = {}
    for run_seed in range(50):
        labels = propagate_hashtag_labels(graph, seeds, np.random.default_rng(run_seed))
        pruned = prune_labels(labels, graph.counts, r=0.001)
        hits += sum(pruned.get(tag) == want for tag, want in planted)
    accuracy = hits / (50 * len(planted))
    assert accuracy >= 0.95

    training = label_tweets(tweets, pruned)
    used = {training.categories[cat - 1] for _, cat in training.examples}
    allowed = {label.value for label in TRAINING_CATEGORIES}
    assert used <= allowed
    assert training.category_counts["mixed"] > 0  # exclusion rule exercised
    assert sum(training.category_counts.values()) == len(tweets)
    report(2, "seed-hashtag pipeline",
           f"planted-label accuracy {accuracy:.3f} over 50 seeds, "
           f"{len(training.examples)} clear-category examples")


def test_03_gradient_check():
    """Analytic vs central-difference gradients: 10 random models x 20
    random windows, relative error < 1e-4 away from kinks, under 30 s."""
    started = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(10):
        model = init_model(
            12, OoweConfig(window=3, embed_dim=5, hidden_dim=4, categories=3), rng
        )
        model.w1 += rng.standard_normal(model.w1.shape) * 0.5
        model.w2 += rng.standard_normal(model.w2.shape) * 0.5
        model.embeddings += rng.standard_normal(model.embeddings.shape) * 0.5
        checked = 0
        while checked < 20:
            t = rng.integers(0, 12, 3)
            t_r = corrupt(t, 12, rng)
            category = int(rng.integers(1, 4))
            scores_t, scores_r = forward(model, t), forward(model, t_r)
            margins = [1 + scores_r[0] - scores_t[0]] + [
                1 + scores_t[j] - scores_t[category] for j in range(1, 4) if j != category
            ]
            pre_t = model.w1 @ model.embeddings[t].ravel() + model.b1
            pre_r = model.w1 @ model.embeddings[t_r].ravel() + model.b1
            kink = min(np.abs(np.abs(pre_t) - 1).min(), np.abs(np.abs(pre_r) - 1).min())
            if min(abs(m) for m in margins) < 1e-3 or kink < 1e-3:
                continue
            checked += 1
            analytic = gradients(model, t, t_r, category, 0.5)
            numeric = finite_diff_grads(model, t, t_r, category, 0.5)
            for name in ("w1", "b1", "w2", "b2"):
                a, b = getattr(analytic, name), getattr(numeric, name)
                worst = max(
                    worst, np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-6)
                )
            dense_a = np.zeros_like(model.embeddings)
            for idx, row in analytic.embed_rows.items():
                dense_a[idx] += row
            dense_b = np.zeros_like(model.embeddings)
            for idx, row in numeric.embed_rows.items():
                dense_b[idx] += row
            scale = max(np.abs(dense_a).max(), np.abs(dense_b).max(), 1e-6)
            worst = max(worst, np.abs(dense_a - dense_b).max() / scale)
    elapsed = time.time() - started
    assert worst < 1e-4
    assert elapsed < 30.0
    report(3, "gradient check", f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_04_embedding_separation():
    """5k-tweet planted-lexicon corpus, 10 epochs at the stated defaults:
    within-class lexicon cosine beats cross-class by >= 0.2 and the 2-D MDS
    of the planted hashtags is linearly separable by side, under 5 min."""
    started = time.time()
    config = SynthCorpusConfig(classes=2, tweets_per_class=2500, tokens_per_tweet=10, seed=17)
    corpus = gen_opinion_corpus(config)
    tweets = [content_tokens(tokenize(p.text)) for p in corpus.posts]
    examples = [(tokens, side + 1) for tokens, side in zip(tweets, corpus.tweet_classes)]
    training = TrainingSet(
        examples=examples,
        categories=("side0", "side1"),
        category_counts={"side0": 2500, "side1": 2500},
    )
    vocab = build_vocab((tokens for tokens, _ in examples), min_count=5)
    model, _ = train(training, vocab, OoweConfig(categories=2, epochs=10, seed=3))

    def rows(tokens):
        return np.vstack([model.embeddings[vocab.index[t]] for t in tokens if t in vocab])

    def mean_cos(a, b, within):
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        b = b / np.linalg.norm(b, axis=1, keepdims=True)
        sims = a @ b.T
        if within:
            iu = np.triu_indices(len(a), 1)
            return float(sims[iu].mean())
        return float(sims.mean())

    lex0, lex1 = rows(corpus.lexicons[0]), rows(corpus.lexicons[1])
    within = 0.5 * (mean_cos(lex0, lex0, True) + mean_cos(lex1, lex1, True))
    cross = mean_cos(lex0, lex1, False)
    margin = within - cross
    assert margin >= 0.2

    tags = (
        [config.seed_hashtags[0]] + corpus.cooc_hashtags[0]
        + [config.seed_hashtags[1]] + corpus.cooc_hashtags[1]
    )
    sides = [0] * (1 + len(corpus.cooc_hashtags[0])) + [1] * (1 + len(corpus.cooc_hashtags[1]))
    flat = classical_mds(pairwise_euclidean(rows(tags)), 2)
    constraints = []
    for x, side in zip(flat, sides):
        sign = 1.0 if side == 0 else -1.0
        constraints.append([-sign * x[0], -sign * x[1], -sign])
    feasible = linprog(
        c=[0.0, 0.0, 0.0],
        A_ub=constraints,
        b_ub=[-1.0] * len(constraints),
        bounds=[(None, None)] * 3,
        method="highs",
    )
    elapsed = time.time() - started
    assert feasible.success  # a margin-1 separating line exists
    assert elapsed < 300.0
    report(4, "embedding separation",
           f"cosine margin {margin:.3f}, hashtag map separable, {elapsed:.0f}s")


def test_05_aggregation_invariance():
    """Duplicating one user's tweets x10 leaves the state vector bitwise
    unchanged: participation control is exact, not approximate."""
    corpus = [[f"w{i}" for i in range(30)]] * 2
    vocab = build_vocab(corpus, min_count=1)
    rng = np.random.default_rng(1)
    model = init_model(len(vocab), OoweConfig(embed_dim=8, hidden_dim=3, categories=2), rng)
    model.embeddings += rng.standard_normal(model.embeddings.shape)

    def tweet(tid, user, tokens):
        return (tid, user, "CA", tokens)

    base = [
        tweet("t1", "u1", ["w1", "w2", "w3"]),
        tweet("t2", "u1", ["w4", "w5"]),
        tweet("t3", "u2", ["w6", "w7", "w8", "w9"]),
        tweet("t4", "u3", ["w10"]),
    ]
    duplicated = list(base)
    for copy in range(9):
        duplicated += [
            tweet(f"t1c{copy}", "u1", ["w1", "w2", "w3"]),
            tweet(f"t2c{copy}", "u1", ["w4", "w5"]),
        ]
    before = aggregate_corpus(model, vocab, base)
    after = aggregate_corpus(model, vocab, duplicated)
    assert before.state_points[0].vector.tobytes() == after.state_points[0].vector.tobytes()
    report(5, "aggregation invariance", "x10 duplication changes the state vector by 0 bits")


def test_06_mds_fidelity():
    """Classical MDS reconstructs exact Euclidean configurations at
    Procrustes residual < 1e-8 (n up to 100, d 2..10); stress majorization
    never increases the stress on 50 random starts."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for d in range(2, 11):
        n = int(rng.integers(max(12, d + 2), 101))
        pts = rng.standard_normal((n, d)) * 2.0
        coords = classical_mds(pairwise_euclidean(pts), d)
        worst = max(worst, procrustes_residual(coords, pts))
    assert worst < 1e-8

    pts = rng.standard_normal((30, 3))
    dist = pairwise_euclidean(pts)
    for seed in range(50):
        _, history = smacof_mds(dist, 3, np.random.default_rng(seed))
        assert np.all(np.diff(history) <= 0.0)
    report(6, "mds fidelity", f"worst recovery residual {worst:.2e}; 50/50 monotone stress runs")


def test_07_geodesic_superiority():
    """On a 500-point swiss roll the geodesic distances track the intrinsic
    geometry better than straight lines by >= 0.05 Spearman."""
    sample = gen_manifold("swiss_roll", 500, noise=0.0, seed=1)
    geo = geodesic_distances(sample.points)
    euc = pairwise_euclidean(sample.points)
    intrinsic = pairwise_euclidean(sample.intrinsic)
    iu = np.triu_indices(500, 1)
    r_geo = spearmanr(geo[iu], intrinsic[iu]).statistic
    r_euc = spearmanr(euc[iu], intrinsic[iu]).statistic
    assert r_geo >= r_euc + 0.05
    report(7, "geodesic superiority", f"Spearman geo {r_geo:.3f} vs euclidean {r_euc:.3f}")


def test_08_reconstruction_weight_oracle():
    """The local weight solver matches direct search over the simplex
    (golden section on an edge for k=2, refined grid then edges for k=3) to
    1e-6 on 100 instances; all row sums are 1 within 1e-12."""
    rng = np.random.default_rng(8)
    worst = 0.0
    worst_sum = 0.0
    for k, instances in ((2, 60), (3, 40)):
        for _ in range(instances):
            pts = rng.standard_normal((6, k)) * 2.0
            wm = reconstruction_weights(pts, k)
            worst_sum = max(worst_sum, float(np.abs(wm.row_sums() - 1.0).max()))
            oracle = brute_force_lnp_weights(pts[0], pts[wm.indices[0]], resolution=0.25)
            worst = max(worst, float(np.abs(wm.weights[0] - oracle).max()))
    assert worst < 1e-6
    assert worst_sum < 1e-12
    report(8, "reconstruction weights vs oracle",
           f"100 instances, max |dw| {worst:.2e}, max row-sum error {worst_sum:.2e}")


def test_09_propagation_fixed_point():
    """The direct propagation solve agrees with the iterated label update to
    1e-8 on 50 random nonnegative-weight instances (n <= 50)."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 51))
        k = int(rng.integers(2, 6))
        indices = np.array(
            [rng.choice([j for j in range(n) if j != i], size=k, replace=False) for i in range(n)]
        )
        weights = rng.uniform(0.05, 1.0, (n, k))
        weights /= weights.sum(axis=1, keepdims=True)
        wm = WeightMatrix(indices, weights)
        initial = {0: 0, 1: 1}
        iterated = harmonic_iterate(indices, weights, initial, 2, tol=1e-13, max_iters=300000)
        direct = propagate(wm, initial, 2)
        worst = max(worst, float(np.abs(iterated - direct).max()))
    assert worst < 1e-8
    report(9, "propagation fixed point", f"50 instances, max |dL| {worst:.2e}")


def test_10_sensitivity_protocol(sweep_rows):
    """Two-moons protocol (n=100, noise 0.08, 4 label budgets, 50 runs,
    k in [2,25]): (a) the median error is non-increasing in the label budget
    at fixed k for >= 80% of k values per metric; (b) the geodesic variant's
    median error is <= the Euclidean one's for >= 60% of k in [13,25], at
    every label budget and pooled; all inside the 10-minute budget."""
    started = time.time()
    medians = sweep_medians(sweep_rows)
    ks = list(K_RANGE)

    fractions = {}
    for metric in ("euclidean", "geodesic"):
        monotone = 0
        for k in ks:
            chain = [medians[(metric, lc, k)][0] for lc in LABEL_COUNTS]
            monotone += all(chain[i + 1] <= chain[i] for i in range(len(chain) - 1))
        fractions[metric] = monotone / len(ks)
        assert fractions[metric] >= 0.8

    tail = [k for k in ks if 13 <= k <= 25]
    win_detail = []
    for lc in LABEL_COUNTS:
        wins = sum(
            1 for k in tail
            if medians[("geodesic", lc, k)][0] <= medians[("euclidean", lc, k)][0]
        )
        win_detail.append(f"{lc}:{wins}/{len(tail)}")
        assert wins / len(tail) >= 0.6
    pooled: dict[tuple[str, int], list[int]] = {}
    for row in sweep_rows:
        pooled.setdefault((row.metric, row.k), []).append(row.errors)
    pooled_wins = sum(
        1 for k in tail
        if np.median(pooled[("geodesic", k)]) <= np.median(pooled[("euclidean", k)])
    )
    assert pooled_wins / len(tail) >= 0.6
    elapsed = time.time() - started
    assert elapsed < 600.0
    report(
        10,
        "sensitivity protocol",
        f"monotone fractions euclidean {fractions['euclidean']:.2f} / geodesic "
        f"{fractions['geodesic']:.2f}; geodesic wins on [13,25] {' '.join(win_detail)}, "
        f"pooled {pooled_wins}/{len(tail)}",
    )


def test_11_pne_selection(moons, sweep_rows):
    """The PNE-selected k lies in the k-range whose pooled geodesic median
    prediction error is within 2 of the global minimum; each k is judged by
    the embedding its own weight matrix induces."""
    k_star, _ = select_k(moons.points, K_RANGE)

    pooled: dict[int, list[int]] = {}
    for row in sweep_rows:
        if row.metric == "geodesic":
            pooled.setdefault(row.k, []).append(row.errors)
    med_err = {k: float(np.median(v)) for k, v in pooled.items()}
    floor = min(med_err.values())
    good = sorted(k for k, v in med_err.items() if v <= floor + 2.0)
    assert k_star in good
    report(11, "pne selection", f"k*={k_star} inside error-optimal range {good[0]}..{good[-1]}")


def test_12_reference_fixtures():
    """The shipped label files carry exactly the 8- and 12-state settings,
    and the polling fixture evaluates to exactly the seven known misses."""
    eight = _read_entity_csv(data_path("labels_8.csv"))
    twelve = _read_entity_csv(data_path("labels_12.csv"))
    assert {e for e, c in eight.items() if c == "clinton"} == {"CA", "DC", "MA", "NY"}
    assert {e for e, c in eight.items() if c == "trump"} == {"NE", "OK", "WV", "WY"}
    assert {e for e, c in twelve.items() if c == "clinton"} == {
        "CA", "DC", "MA", "NY", "DE", "CT"
    }
    assert {e for e, c in twelve.items() if c == "trump"} == {
        "NE", "OK", "WV", "WY", "KS", "WI"
    }
    polling = _read_entity_csv(data_path("polling_cces_2016.csv"))
    truth = _read_entity_csv(data_path("election_2016.csv"))
    count, misses = evaluate_fixture(polling, truth)
    assert count == 7
    assert misses == ["FL", "IA", "MI", "NC", "OH", "PA", "WI"]
    report(12, "reference fixtures", "8/12-label settings exact; polling shows the 7 known misses")


def test_13_pipeline_determinism(tmp_path):
    """The full synthetic pipeline, run twice with one master seed, writes
    byte-identical artifacts end to end. Dimensions are reduced (250 tweets
    per side, d=10, 2 epochs, 3 sweep runs) but every stage executes."""
    import hashlib

    from relop.config import PipelineConfig

    def run(workdir):
        config = PipelineConfig(workdir=str(workdir), master_seed=77)
        for key, value in dict(
            synth_tweets_per_class=250, synth_users_per_class=12,
            synth_tokens_per_tweet=8, epochs=2, embed_dim=10, hidden_dim=6,
            min_count=3, runs=3, k_min=2, k_max=6, label_counts="4,8",
            lnp_k=5, smacof_iters=150,
        ).items():
            setattr(config, key, value)
        run_stage("all", config)
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir())
            if p.name not in ("runs.jsonl", ".lock")
        }

    first = run(tmp_path / "a")
    second = run(tmp_path / "b")
    assert first == second
    report(13, "pipeline determinism", f"{len(first)} artifacts byte-identical across reruns")
