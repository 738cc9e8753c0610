"""Stage orchestration: artifacts on disk, run manifests, and verification."""

from __future__ import annotations

import csv
import hashlib
import importlib.resources
import json
import os
import resource
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import aggregate as agg
from . import hashtags as ht
from . import lnp
from . import manifold as mf
from . import oowe
from . import plots
from . import synth
from .config import (
    PipelineConfig,
    UsageError,
    config_hash,
    parse_int_list,
    parse_str_list,
    stage_seed,
)
from .ingest import (
    Gazetteer,
    build_vocab,
    content_tokens,
    filter_bots,
    filter_relevant,
    infer_state,
    parse_posts,
    tokenize,
    Vocabulary,
)


class DataError(Exception):
    """Missing or malformed input data."""


class VerificationFailure(Exception):
    """One or more oracle cross-checks failed."""


def data_path(name: str) -> Path:
    return Path(importlib.resources.files("relop") / "data" / name)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _work(config: PipelineConfig, name: str) -> Path:
    return Path(config.workdir) / name


# input artifact -> the config key that relocates it when set
_RELOCATED_BY = {
    "corpus.jsonl": "corpus",
    "initial_labels.csv": "labels_file",
    "state_truth.csv": "truth_file",
    "seeds.csv": "seeds_file",
    "gazetteer.csv": "gazetteer",
    "official_clients.txt": "official_clients_file",
    "population_2016.csv": "population_file",
}
# inputs shipped in relop/data; every other artifact lives in the work directory
_PACKAGED = {"seeds.csv", "gazetteer.csv", "official_clients.txt", "population_2016.csv"}


def input_path(config: PipelineConfig, name: str) -> Path:
    """Where a stage reads artifact ``name``: the path its config key names
    when that key is set, else the packaged data file or the work-directory
    artifact. Outputs always go to the work directory (``_work``)."""
    key = _RELOCATED_BY.get(name)
    if key and getattr(config, key):
        return Path(getattr(config, key))
    return data_path(name) if name in _PACKAGED else _work(config, name)


# ---------------------------------------------------------------------------
# shared artifact IO


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_entity_csv(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return {row[0]: row[1] for row in reader if len(row) >= 2 and row[0]}


def _read_clean_corpus(path: Path) -> Iterator[dict]:
    """The records of ``clean.jsonl``, read one line at a time."""
    decode = json.JSONDecoder().decode
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield decode(line)


def _write_vocab(path: Path, vocab: Vocabulary) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for token, idx in vocab.index.items():
            fh.write(f"{token}\t{idx}\t{vocab.counts[idx]}\n")


def _read_vocab(path: Path) -> Vocabulary:
    counts: dict[str, int] = {}
    order: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            token, idx, count = line.rstrip("\n").split("\t")
            order[token] = int(idx)
            if int(idx) >= 2:
                counts[token] = int(count)
    vocab = Vocabulary(counts)
    if vocab.index != order:
        raise DataError(f"vocabulary file {path} is not in canonical order")
    return vocab


def _class_mapping(labels: dict[str, str]) -> list[str]:
    return sorted(set(labels.values()))


# ---------------------------------------------------------------------------
# stages


def stage_synth(config: PipelineConfig) -> dict:
    seed_names = tuple(ht.DEFAULT_SEEDS)
    classes = config.synth_classes
    hashtag_seeds = tuple(
        seed_names[c] if c < len(seed_names) else f"#seed{c}" for c in range(classes)
    )
    corpus = synth.gen_opinion_corpus(
        synth.SynthCorpusConfig(
            classes=classes,
            lexicon_size=config.synth_lexicon_size,
            neutral_size=config.synth_neutral_size,
            tweets_per_class=config.synth_tweets_per_class,
            tokens_per_tweet=config.synth_tokens_per_tweet,
            seed_hashtags=hashtag_seeds,
            users_per_class=config.synth_users_per_class,
            bot_fraction=config.synth_bot_fraction,
            seed=stage_seed(config, "synth"),
        )
    )
    _work(config, "corpus.jsonl").write_text(synth.corpus_to_jsonl(corpus), encoding="utf-8")
    _write_csv(
        _work(config, "tweet_truth.csv"),
        ("entity", "class"),
        ((p.id, f"c{c}") for p, c in zip(corpus.posts, corpus.tweet_classes)),
    )
    _write_csv(
        _work(config, "user_truth.csv"),
        ("entity", "class"),
        ((u, f"c{c}") for u, c in sorted(corpus.user_classes.items())),
    )
    _write_csv(
        _work(config, "state_truth.csv"),
        ("entity", "class"),
        ((s, f"c{c}") for s, c in sorted(corpus.state_classes.items())),
    )
    rng = np.random.default_rng(stage_seed(config, "synth-labels"))
    occupied = set(corpus.user_states.values())
    picks = []
    for c in range(classes):
        members = sorted(
            s for s, sc in corpus.state_classes.items() if sc == c and s in occupied
        )
        take = min(config.synth_initial_labels_per_class, len(members))
        chosen = rng.choice(len(members), size=take, replace=False)
        picks.extend((members[i], f"c{c}") for i in sorted(chosen))
    _write_csv(_work(config, "initial_labels.csv"), ("entity", "class"), sorted(picks))
    return {"posts": len(corpus.posts), "states": len(corpus.state_classes)}


def stage_ingest(config: PipelineConfig) -> dict:
    # tokens are lowercased, so keywords are too
    group_a, group_b = (
        [kw.lower() for kw in parse_str_list(keywords)]
        for keywords in (config.keywords_a, config.keywords_b)
    )
    if not group_a or not group_b:
        raise UsageError("keywords_a and keywords_b must each name at least one keyword")
    clients_path = input_path(config, "official_clients.txt")
    lines = clients_path.read_text(encoding="utf-8").splitlines()
    clients = {line.strip() for line in lines if line.strip()}
    if not clients:
        raise DataError(f"{clients_path} lists no official client")
    gazetteer = Gazetteer.from_csv(input_path(config, "gazetteer.csv"))
    with open(input_path(config, "corpus.jsonl"), encoding="utf-8") as fh:
        posts, skipped = parse_posts(fh)
    n_relevant = n_official = n_state = 0
    # chunk -> token and token -> keyword groups, shared by every post of this stage only
    memo: dict = {}
    relevance: dict = {}
    encode = json.JSONEncoder(sort_keys=True).encode
    with open(_work(config, "clean.jsonl"), "w", encoding="utf-8") as fh:
        for post in posts:
            tokens = tokenize(post.text, memo)
            if not filter_relevant(tokens, group_a, group_b, relevance):
                continue
            n_relevant += 1
            if not filter_bots(post, clients):
                continue
            n_official += 1
            state = infer_state(post, gazetteer, tokens)
            n_state += state is not None
            record = {
                "id": post.id,
                "user_id": post.user_id,
                "state": state,
                "tokens": content_tokens(tokens),
            }
            fh.write(encode(record) + "\n")
    return {
        "parsed": len(posts),
        "skipped": skipped,
        "relevant": n_relevant,
        "official": n_official,
        "official_fraction": round(n_official / n_relevant if n_relevant else 0.0, 6),
        "with_state": n_state,
        "distinct_chunks": len(memo),
    }


def stage_hashtag_net(config: PipelineConfig) -> dict:
    records = _read_clean_corpus(input_path(config, "clean.jsonl"))
    graph = ht.build_cooccurrence(r["tokens"] for r in records)
    filtered = ht.significance_filter(graph, config.p_o)
    seeds = ht.read_seeds(input_path(config, "seeds.csv"))
    rng = np.random.default_rng(stage_seed(config, "hashtag-net"))
    tally = Counter()
    labels = ht.propagate_hashtag_labels(
        filtered, seeds, rng, config.lpa_max_sweeps, weighted=config.lpa_weighted, tally=tally
    )
    pruned = ht.prune_labels(labels, filtered.counts, config.prune_ratio)
    ht.write_label_map(_work(config, "hashtag_labels.csv"), pruned, filtered.counts)
    return {
        "tweets": graph.n_tweets,
        "vertices": len(graph.counts),
        "edges": len(graph.edges),
        "significant_edges": len(filtered.edges),
        "labeled": len(labels),
        "labeled_after_prune": len(pruned),
        **tally,  # sweeps, and whether spreading reached its fixed point
    }


def stage_label_tweets(config: PipelineConfig) -> dict:
    records = _read_clean_corpus(input_path(config, "clean.jsonl"))
    labels, _ = ht.read_label_map(input_path(config, "hashtag_labels.csv"))
    training = ht.label_tweets((r["tokens"] for r in records), labels)
    ht.write_training_set(_work(config, "training_set.tsv"), training)
    return {"examples": len(training.examples), **training.category_counts}


def stage_train(config: PipelineConfig) -> dict:
    training = ht.read_training_set(input_path(config, "training_set.tsv"))
    vocab = build_vocab((tokens for tokens, _ in training.examples), config.min_count)
    model_config = oowe.OoweConfig(
        window=config.window,
        embed_dim=config.embed_dim,
        hidden_dim=config.hidden_dim,
        learning_rate=config.learning_rate,
        alpha=config.alpha,
        categories=len(training.categories),
        epochs=config.epochs,
        seed=stage_seed(config, "train"),
    )
    model, losses = oowe.train(training, vocab, model_config)
    oowe.save_model(_work(config, "model.bin"), model)
    _write_vocab(_work(config, "vocab.tsv"), vocab)
    _write_csv(
        _work(config, "train_log.csv"),
        ("epoch", "mean_loss"),
        ((i + 1, repr(value)) for i, value in enumerate(losses)),
    )
    return {
        "examples": len(training.examples),
        "vocab_size": len(vocab),
        "window_visits": config.epochs * sum(len(tokens) for tokens, _ in training.examples),
        "final_loss": round(losses[-1], 6),
    }


def stage_embed(config: PipelineConfig) -> dict:
    model = oowe.load_model(input_path(config, "model.bin"))
    vocab = _read_vocab(input_path(config, "vocab.tsv"))
    _work(config, "embeddings.tsv").write_text(
        oowe.export_embeddings(model, vocab), encoding="utf-8"
    )
    return {"tokens": len(vocab), "dim": model.embed_dim}


def stage_aggregate(config: PipelineConfig) -> dict:
    records = _read_clean_corpus(input_path(config, "clean.jsonl"))
    model = oowe.load_model(input_path(config, "model.bin"))
    vocab = _read_vocab(input_path(config, "vocab.tsv"))
    labels, _ = ht.read_label_map(input_path(config, "hashtag_labels.csv"))
    result = agg.aggregate_corpus(
        model,
        vocab,
        [(r["id"], r["user_id"], r["state"], r["tokens"]) for r in records],
        exclude=set(labels),
    )
    agg.write_points(
        _work(config, "points.tsv"),
        result.tweet_points + result.user_points + result.state_points,
    )
    populations = {}
    for entity, value in _read_entity_csv(input_path(config, "population_2016.csv")).items():
        populations[entity] = int(value)
    rows = agg.state_summaries(result.state_user_vectors, populations)
    _write_csv(
        _work(config, "state_summary.csv"),
        ("state", "user_count", "stddev", "representativeness"),
        (
            (
                r["state"],
                r["user_count"],
                repr(r["stddev"]),
                "" if r["representativeness"] is None else repr(r["representativeness"]),
            )
            for r in rows
        ),
    )
    return {
        "tweet_points": len(result.tweet_points),
        "user_points": len(result.user_points),
        "state_points": len(result.state_points),
        "skipped_tweets": result.skipped,
        "oov_rate": round(result.oov_rate, 6),
    }


def _load_problem_points(config: PipelineConfig):
    points = agg.read_points(input_path(config, "points.tsv"), level="state")
    if not points:
        raise DataError("points.tsv holds no state-level points")
    ids = [p.entity_id for p in points]
    coords = np.vstack([p.vector for p in points])
    return ids, coords


def stage_predict(config: PipelineConfig) -> dict:
    ids, coords = _load_problem_points(config)
    raw_labels = _read_entity_csv(input_path(config, "initial_labels.csv"))
    classes = _class_mapping(raw_labels)
    index_of = {name: i for i, name in enumerate(classes)}
    row_of = {entity: i for i, entity in enumerate(ids)}
    unknown = sorted(set(raw_labels) - set(ids))
    if unknown:
        raise DataError(f"labeled entities missing from points: {unknown}")
    initial = {row_of[e]: index_of[c] for e, c in raw_labels.items()}
    k = min(config.lnp_k, len(ids) - 1)
    hits = lnp.MEMO_HITS.copy()
    tally = Counter()
    predicted, soft = lnp.predict(
        coords, initial, len(classes), k, config.lnp_metric, config.propagate_tol,
        config.smacof_iters, config.smacof_tol, tally,
    )
    header = ["entity", "class"] + [f"score_{i + 1}" for i in range(len(classes))]
    _write_csv(
        _work(config, "predictions.csv"),
        header,
        (
            (ids[i], classes[int(predicted[i])], *[repr(float(v)) for v in soft[i]])
            for i in range(len(ids))
        ),
    )
    return {
        "entities": len(ids),
        "k": k,
        "metric": config.lnp_metric,
        "unreached_rows": int((~soft.any(axis=1)).sum()),  # no label reached: all zero
        **tally,  # fallback and unsettled rows, residual, and a geodesic unfold's stop
        **_reuse_counts(hits),
    }


def _reuse_counts(hits: Counter) -> dict:
    """Unfolds and weight matrices taken from ``lnp``'s memo since ``hits``
    (a copy of ``lnp.MEMO_HITS``)."""
    return {
        "reused_unfolds": lnp.MEMO_HITS["unfold"] - hits["unfold"],
        "reused_weights": lnp.MEMO_HITS["reconstruction_weights"] - hits["reconstruction_weights"],
    }


def _usable_ks(config: PipelineConfig, n: int) -> list[int]:
    """The configured k_min..k_max range below the point count."""
    ks = [k for k in range(config.k_min, config.k_max + 1) if 0 < k < n]
    if not ks:
        raise DataError("no usable k in the configured range")
    return ks


def stage_sweep(config: PipelineConfig) -> dict:
    ids, coords = _load_problem_points(config)
    raw = _read_entity_csv(input_path(config, "state_truth.csv"))
    missing = sorted(set(ids) - set(raw))
    if missing:
        raise DataError(f"truth file lacks entities: {missing}")
    index_of = {name: i for i, name in enumerate(_class_mapping(raw))}
    truth = np.array([index_of[raw[e]] for e in ids], dtype=np.int64)
    ks = _usable_ks(config, len(ids))
    label_counts = parse_int_list(config.label_counts)
    if any(count <= truth.max() for count in label_counts):  # draws no labels
        raise UsageError(f"label_counts entries must be at least the class count {truth.max() + 1}")
    hits = lnp.MEMO_HITS.copy()
    tally = Counter()
    rows = lnp.sensitivity_sweep(
        coords,
        truth,
        label_counts,
        ks,
        runs=config.runs,
        seed=stage_seed(config, "sweep"),
        propagate_tol=config.propagate_tol,
        smacof_iters=config.smacof_iters,
        smacof_tol=config.smacof_tol,
        tally=tally,
    )
    _write_csv(
        _work(config, "sweep.csv"),
        ("metric", "label_count", "k", "run", "errors"),
        ((r.metric, r.label_count, r.k, r.run, r.errors) for r in rows),
    )
    return {
        "rows": len(rows),
        "k_values": len(ks),
        "unreached_rows": sum(r.unreached for r in rows),
        **tally,  # fallback and unsettled rows, the unfold's stop, and the residual
        **_reuse_counts(hits),
    }


def stage_metrics(config: PipelineConfig) -> dict:
    ids, coords = _load_problem_points(config)
    if len(ids) < 4:
        raise DataError("need at least 4 state points for the quality sweep")
    ks = _usable_ks(config, len(ids))
    hits = lnp.MEMO_HITS.copy()
    tally = Counter()
    k_star, table = lnp.select_k(
        coords,
        ks,
        smacof_iters=config.smacof_iters,
        smacof_tol=config.smacof_tol,
        tally=tally,
    )
    # the unfolding is deterministic, so each run index repeats its k's row:
    # the file keeps ``runs`` rows per k, the shape perfbench's
    # ``check_metrics`` counts
    _write_csv(
        _work(config, "quality_runs.csv"),
        ("k", "run", "np", "st", "pne"),
        (
            (r["k"], run, repr(r["np"]), repr(r["st"]), repr(r["pne"]))
            for run in range(config.runs)
            for r in table
        ),
    )
    summary = ((r["k"], *map(repr, lnp.median_band([r["pne"]]))) for r in table)
    _write_csv(
        _work(config, "quality_summary.csv"), ("k", "pne_median", "pne_lo", "pne_hi"), summary
    )
    _work(config, "selected_k.txt").write_text(f"{k_star}\n", encoding="utf-8")
    return {
        "k_star": k_star,
        "runs": config.runs,
        **tally,  # fallback and unsettled rows, and the unfold's stop
        **_reuse_counts(hits),
    }


def stage_plot(config: PipelineConfig) -> dict:
    ids, coords = _load_problem_points(config)
    truth_path = input_path(config, "state_truth.csv")
    class_names = _read_entity_csv(truth_path) if truth_path.exists() else {}
    if not class_names.keys() >= set(ids):
        class_names = {}  # every state is drawn as class "state"
    flat = mf.classical_mds(mf.pairwise_euclidean(coords), min(2, len(ids) - 1))
    flat = np.pad(flat, ((0, 0), (0, 2 - flat.shape[1])))  # a cloud of rank below 2
    sizes: dict[str, float] = {}
    summary_path = input_path(config, "state_summary.csv")
    if summary_path.exists():
        column = config.plot_size_channel
        for row in _read_csv(summary_path):
            if row["state"] and row[column]:
                sizes[row["state"]] = float(row[column])
    annotations = [
        {"id": e, "class": class_names.get(e, "state"), "size": sizes.get(e)}
        for e in ids
    ]
    _work(config, "scatter_states.svg").write_text(
        plots.plot_scatter(flat.tolist(), annotations, title="relative opinion space"),
        encoding="utf-8",
    )
    outputs = 1
    sweep_path = input_path(config, "sweep.csv")
    if sweep_path.exists():
        rows = [
            lnp.SweepRow(
                r["metric"], int(r["label_count"]), int(r["k"]), int(r["run"]), int(r["errors"])
            )
            for r in _read_csv(sweep_path)
        ]
        med = lnp.sweep_medians(rows)
        series: dict[str, list] = {}
        for (metric, label_count, k), (mid, lo, hi) in sorted(med.items()):
            if label_count == config.plot_label_count:
                series.setdefault(metric, []).append((k, mid, lo, hi))
        if series:
            _work(config, "error_curves.svg").write_text(
                plots.plot_error_curves(
                    series, title=f"prediction errors, {config.plot_label_count} initial labels"
                ),
                encoding="utf-8",
            )
            outputs += 1
    quality_path = input_path(config, "quality_summary.csv")
    if quality_path.exists():
        curve = [
            (int(r["k"]), float(r["pne_median"]), float(r["pne_lo"]), float(r["pne_hi"]))
            for r in _read_csv(quality_path)
        ]
        if curve:
            _work(config, "pne_curve.svg").write_text(
                plots.plot_error_curves(
                    {"pne": curve}, title="preservation neighborhood error", y_label="PNE"
                ),
                encoding="utf-8",
            )
            outputs += 1
    return {"figures": outputs}


# ---------------------------------------------------------------------------
# verification


def _check_hypergeometric(max_total: int = 45) -> tuple[bool, str]:
    worst = 0.0
    for total in range(1, max_total + 1):
        for n_i in range(total + 1):
            for n_j in range(total + 1):
                for k in range(min(n_i, n_j) + 1):
                    got = ht.edge_pvalue(n_i, n_j, k, total)
                    want = synth.hypergeom_pmf(total, n_i, n_j, k)
                    if want == 0.0:
                        if got > 1e-12:
                            return False, f"expected 0, got {got} at {(total, n_i, n_j, k)}"
                        continue
                    worst = max(worst, abs(got - want) / want)
    return worst < 1e-9, f"max_rel_err={worst:.3e} over N<={max_total}"


def _gradient_error(model, rng, n_ngrams: int = 20) -> float:
    worst = 0.0
    c = model.n_categories
    checked = 0
    while checked < n_ngrams:
        t = rng.integers(0, model.vocab_size, model.window)
        t_r = oowe.corrupt(t, model.vocab_size, rng)
        category = int(rng.integers(1, c + 1))
        scores_t = oowe.forward(model, t)
        scores_r = oowe.forward(model, t_r)
        margins = [1.0 + scores_r[0] - scores_t[0]] + [
            1.0 + scores_t[j] - scores_t[category] for j in range(1, c + 1) if j != category
        ]
        pre_t = model.w1 @ model.embeddings[t].ravel() + model.b1
        pre_r = model.w1 @ model.embeddings[t_r].ravel() + model.b1
        kink_gap = min(
            float(np.abs(np.abs(pre_t) - 1.0).min()),
            float(np.abs(np.abs(pre_r) - 1.0).min()),
        )
        if min(abs(m) for m in margins) < 1e-3 or kink_gap < 1e-3:
            continue
        checked += 1
        analytic = oowe.gradients(model, t, t_r, category, 0.5)
        numeric = synth.finite_diff_grads(model, t, t_r, category, 0.5)
        for name in ("w1", "b1", "w2", "b2"):
            a = getattr(analytic, name)
            b = getattr(numeric, name)
            worst = max(worst, np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-6))
        dense_a = np.zeros_like(model.embeddings)
        for idx, row in analytic.embed_rows.items():
            dense_a[idx] += row
        dense_b = np.zeros_like(model.embeddings)
        for idx, row in numeric.embed_rows.items():
            dense_b[idx] += row
        worst = max(
            worst,
            np.abs(dense_a - dense_b).max()
            / max(np.abs(dense_a).max(), np.abs(dense_b).max(), 1e-6),
        )
    return worst


def _check_gradients(config: PipelineConfig) -> tuple[bool, str]:
    rng = np.random.default_rng(stage_seed(config, "verify-grad"))
    worst = 0.0
    for _ in range(10):
        model_config = oowe.OoweConfig(window=3, embed_dim=5, hidden_dim=4, categories=3)
        model = oowe.init_model(12, model_config, rng)
        model.w1 += rng.standard_normal(model.w1.shape) * 0.5
        model.w2 += rng.standard_normal(model.w2.shape) * 0.5
        model.embeddings += rng.standard_normal(model.embeddings.shape) * 0.5
        worst = max(worst, _gradient_error(model, rng, n_ngrams=20))
    model_path = input_path(config, "model.bin")
    if model_path.exists():
        try:
            saved = oowe.load_model(model_path)
            worst = max(worst, _gradient_error(saved, rng, n_ngrams=5))
        except Exception as exc:
            return False, f"stored model failed the check: {exc}"
    return worst < 1e-4, f"max_rel_err={worst:.3e}"


def _check_weights(config: PipelineConfig) -> tuple[bool, str]:
    rng = np.random.default_rng(stage_seed(config, "verify-weights"))
    worst = 0.0
    worst_sum = 0.0
    for k, instances in ((2, 40), (3, 15)):
        for _ in range(instances):
            pts = rng.standard_normal((6, k)) * 2.0
            wm = lnp.reconstruction_weights(pts, k)
            worst_sum = max(worst_sum, float(np.abs(wm.row_sums() - 1.0).max()))
            oracle = synth.brute_force_lnp_weights(pts[0], pts[wm.indices[0]], resolution=0.25)
            worst = max(worst, float(np.abs(wm.weights[0] - oracle).max()))
    ok = worst < 1e-6 and worst_sum < 1e-12
    return ok, f"max_abs_err={worst:.3e} max_rowsum_err={worst_sum:.3e}"


def _check_harmonic(config: PipelineConfig) -> tuple[bool, str]:
    rng = np.random.default_rng(stage_seed(config, "verify-harmonic"))
    worst = 0.0
    for _ in range(20):
        n, k = 30, 4
        idx = np.array(
            [rng.choice([j for j in range(n) if j != i], size=k, replace=False) for i in range(n)]
        )
        w = rng.uniform(0.05, 1.0, (n, k))
        w /= w.sum(axis=1, keepdims=True)
        wm = lnp.WeightMatrix(idx, w)
        initial = {0: 0, 1: 1, 2: int(rng.integers(2))}
        iterated = synth.harmonic_iterate(idx, w, initial, 2, tol=1e-13, max_iters=200000)
        direct = lnp.propagate(wm, initial, 2)
        worst = max(worst, float(np.abs(iterated - direct).max()))
    return worst < 1e-8, f"max_abs_err={worst:.3e}"


def _check_mds(config: PipelineConfig) -> tuple[bool, str]:
    rng = np.random.default_rng(stage_seed(config, "verify-mds"))
    worst_classical = 0.0
    worst_smacof = 0.0
    monotone = True
    for trial in range(10):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(2, 7))
        pts = rng.standard_normal((n, d)) * 3.0
        dist = mf.pairwise_euclidean(pts)
        recovered = mf.classical_mds(dist, d)
        worst_classical = max(worst_classical, synth.procrustes_residual(recovered, pts))
        if trial < 5:
            # the lowest-stress run of a few random starts, each to tol: one
            # start can stop in a local minimum. tol is against Σd², so the
            # 1e-6 residual bound needs steps of 1e-17 of it
            runs = [mf.smacof_mds(dist, d, rng, iters=20_000, tol=1e-17) for _ in range(3)]
            monotone = monotone and all(bool(np.all(np.diff(h) <= 0.0)) for _, h, _ in runs)
            coords, _, _ = min(runs, key=lambda run: run[1][-1])
            worst_smacof = max(worst_smacof, synth.procrustes_residual(coords, recovered))
    ok = worst_classical < 1e-8 and worst_smacof < 1e-6 and monotone
    return ok, (
        f"classical_residual={worst_classical:.3e} smacof_residual={worst_smacof:.3e} "
        f"monotone={monotone}"
    )


def stage_verify(config: PipelineConfig) -> dict:
    checks = [
        ("hypergeometric_grid", lambda: _check_hypergeometric()),
        ("oowe_gradients", lambda: _check_gradients(config)),
        ("lnp_weights_brute_force", lambda: _check_weights(config)),
        ("harmonic_fixed_point", lambda: _check_harmonic(config)),
        ("mds_procrustes", lambda: _check_mds(config)),
    ]
    lines = []
    failures = 0
    for name, check in checks:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        line = f"{status} {name}: {detail}"
        print(line)
        lines.append(line)
    _work(config, "verify_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if failures:
        raise VerificationFailure(f"{failures} of {len(checks)} checks failed")
    return {"checks": len(checks), "failures": failures}


# ---------------------------------------------------------------------------
# stage registry and runner


def _peak_rss_mib() -> float:
    """The process's peak resident set so far, in MiB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)  # KiB on Linux


class Stage(NamedTuple):
    fn: Callable[[PipelineConfig], dict]
    inputs: tuple[str, ...]  # required; a missing one fails the stage before it runs
    outputs: tuple[str, ...]  # written to the work directory; removed before the stage runs
    optional: tuple[str, ...] = ()  # read and recorded only when present


STAGES: dict[str, Stage] = {
    "synth": Stage(
        stage_synth,
        (),
        ("corpus.jsonl", "tweet_truth.csv", "user_truth.csv", "state_truth.csv",
         "initial_labels.csv"),
    ),
    "ingest": Stage(
        stage_ingest, ("corpus.jsonl", "official_clients.txt", "gazetteer.csv"), ("clean.jsonl",)
    ),
    "hashtag-net": Stage(stage_hashtag_net, ("clean.jsonl", "seeds.csv"), ("hashtag_labels.csv",)),
    "label-tweets": Stage(
        stage_label_tweets, ("clean.jsonl", "hashtag_labels.csv"), ("training_set.tsv",)
    ),
    "train": Stage(stage_train, ("training_set.tsv",), ("model.bin", "vocab.tsv", "train_log.csv")),
    "embed": Stage(stage_embed, ("model.bin", "vocab.tsv"), ("embeddings.tsv",)),
    "aggregate": Stage(
        stage_aggregate,
        ("clean.jsonl", "model.bin", "vocab.tsv", "hashtag_labels.csv", "population_2016.csv"),
        ("points.tsv", "state_summary.csv"),
    ),
    "predict": Stage(stage_predict, ("points.tsv", "initial_labels.csv"), ("predictions.csv",)),
    "sweep": Stage(stage_sweep, ("points.tsv", "state_truth.csv"), ("sweep.csv",)),
    "metrics": Stage(
        stage_metrics,
        ("points.tsv",),
        ("quality_runs.csv", "quality_summary.csv", "selected_k.txt"),
    ),
    "plot": Stage(
        stage_plot,
        ("points.tsv",),
        ("scatter_states.svg", "error_curves.svg", "pne_curve.svg"),
        ("state_truth.csv", "state_summary.csv", "sweep.csv", "quality_summary.csv"),
    ),
    "verify": Stage(stage_verify, (), ("verify_report.txt",), ("model.bin",)),
}

CHAIN = [name for name in STAGES if name != "verify"]


def run_stage(name: str, config: PipelineConfig) -> dict:
    """Run one stage: check inputs, remove its declared outputs, execute,
    clean up on failure (a failed verification keeps its report), and
    append a manifest record (stage, config hash, seed, duration, counts,
    hashes)."""
    if name == "all":
        counts = {}
        for stage in CHAIN:
            counts[stage] = run_stage(stage, config)
        return counts
    if name not in STAGES:
        raise UsageError(f"unknown stage {name!r}; expected one of {sorted(STAGES)} or 'all'")
    stage = STAGES[name]
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    lock_path = workdir / ".lock"
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise DataError(
            f"another invocation holds {lock_path}; remove it if that run is dead"
        ) from None
    try:
        inputs = [input_path(config, n) for n in stage.inputs]
        for path in inputs:
            if not path.exists():
                raise DataError(f"missing input: {path}")
        optional = (input_path(config, n) for n in stage.optional)
        inputs += [path for path in optional if path.exists()]
        outputs = [_work(config, n) for n in stage.outputs]
        # an output this run does not write must not pass for one it did
        for path in outputs:
            path.unlink(missing_ok=True)
        started = time.time()
        try:
            counts = stage.fn(config)
        except VerificationFailure:
            raise  # its report names the failing checks
        except Exception:
            for path in outputs:
                path.unlink(missing_ok=True)
            raise
        duration = time.time() - started
        manifest = {
            "stage": name,
            "config_hash": config_hash(config),
            "seed": stage_seed(config, name),
            "duration_s": round(duration, 3),
            "peak_rss_mib": _peak_rss_mib(),
            "counts": counts,
            "inputs": {str(p): _sha256(p) for p in inputs},
            "outputs": {str(p): _sha256(p) for p in outputs if p.exists()},
        }
        with open(workdir / "runs.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True) + "\n")
        return counts
    finally:
        os.close(lock_fd)
        lock_path.unlink(missing_ok=True)
