"""Output checks, one per stage run.

Each check reads the stage's artifacts and returns a list of ``Problem``.
Expected values come from the benchmark's own generators, from independent
recomputation (plain numpy means, scipy's hypergeometric PMF and NNLS, a
dense harmonic solve), or from properties the method must have. None of
them is a stored copy of an earlier output.

A problem marked ``known`` is the documented numpy-scalar fault: the train
and metrics stages write ``repr()`` of numpy scalars, which numpy >= 2
prints as ``np.float64(0.35...)``. The stage still counts as failed; the
run stays correct as long as no other problem appears.
"""

from __future__ import annotations

import csv
import json
import math
import re
import struct
import xml.etree.ElementTree as ET
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import nnls
from scipy.stats import hypergeom

from perfbench.workloads import mentions

NP_SCALAR_REPR = re.compile(r"^np\.float64\((.*)\)$")
TRAINING_CATEGORIES = ("pro_clinton", "anti_trump", "support_clinton",
                       "pro_trump", "anti_clinton", "support_trump")
OPINION_LABELS = TRAINING_CATEGORIES + ("mixed", "unidentified")
SUPPORT_PAIRS = {frozenset({"pro_trump", "anti_clinton"}): "support_trump",
                 frozenset({"pro_clinton", "anti_trump"}): "support_clinton"}
# the synth stage names class c's seed hashtag after the packaged seeds
CHAIN_SEEDS = ("#maga", "#imwithher", "#nevertrump", "#neverhillary")
# relative tolerance of the aggregation cross-check, in units of the
# vector scale: exact_mean's grouped pairwise sums and np.mean differ by a
# few roundings at each of the three levels
MEAN_ULPS = 64


@dataclass(frozen=True)
class Problem:
    text: str
    known: bool = False


@dataclass
class Context:
    workdir: Path
    config: object  # relop.config.PipelineConfig
    counts: dict  # stage name -> counts returned by run_stage
    data_dir: Path  # the packaged data directory


# ---------------------------------------------------------------------------
# readers (plain csv / json; no program code)


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (rows[0] if rows else []), rows[1:]


def _entity_map(path: Path) -> dict[str, str]:
    return {r[0]: r[1] for r in _rows(path)[1] if len(r) >= 2 and r[0]}


def _jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _number(cell: str, where: str, problems: list[Problem]) -> float:
    """Parse a numeric cell; a numpy-scalar repr is the known fault."""
    try:
        return float(cell)
    except ValueError:
        pass
    match = NP_SCALAR_REPR.match(cell)
    if match:
        problems.append(Problem(f"{where}: numpy scalar repr {cell!r} instead of a number",
                                known=True))
        return float(match.group(1))
    problems.append(Problem(f"{where}: {cell!r} is not a number"))
    return math.nan


def _dedupe(problems: list[Problem]) -> list[Problem]:
    # one line per distinct kind of known-fault cell keeps reports short
    out, seen_known = [], set()
    for p in problems:
        if p.known:
            key = p.text.split(":")[0]
            if key in seen_known:
                continue
            seen_known.add(key)
        out.append(p)
    return out


def read_points(path: Path) -> dict[str, list[tuple[str, int, np.ndarray]]]:
    levels: dict[str, list] = {"tweet": [], "user": [], "state": []}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            level, entity, count, values = line.rstrip("\n").split("\t")
            levels[level].append((entity, int(count), np.array(values.split(), dtype=float)))
    return levels


def read_model(path: Path) -> dict:
    """Parse the documented binary layout without the program's loader."""
    blob = path.read_bytes()
    if blob[:8] != b"RELOPOWE":
        raise ValueError("bad magic")
    version, v, d, h, c = struct.unpack("<5I", blob[8:28])
    payload = np.frombuffer(blob[28:], dtype="<f8")
    fixed = v * d + h + (c + 1) * h + (c + 1)
    window, rest = divmod(payload.size - fixed, h * d)
    if rest or window < 1:
        raise ValueError("payload size does not match the header")
    return {"version": version, "V": v, "d": d, "h": h, "C": c, "window": window,
            "E": payload[: v * d].reshape(v, d)}


# ---------------------------------------------------------------------------
# reference computations


def classify(hashtags: list[str], labels: dict[str, str]) -> str:
    """The documented tweet rule: a unique most frequent label wins, a tie of
    two labels of one side is that side's support category, any other tie
    is mixed, and no labeled hashtag is unidentified."""
    tally = Counter(labels[t] for t in hashtags if t in labels)
    if not tally:
        return "unidentified"
    top = max(tally.values())
    leaders = frozenset(lab for lab, c in tally.items() if c == top)
    if len(leaders) == 1:
        return next(iter(leaders))
    return SUPPORT_PAIRS.get(leaders, "mixed")


def significant_graph(tweets: list[list[str]], p_o: float):
    """Hashtag counts and the adjacency of pairs whose hypergeometric point
    probability is below ``p_o``, counted here from the token lists."""
    counts: Counter[str] = Counter()
    pairs: Counter[tuple[str, str]] = Counter()
    for tokens in tweets:
        tags = sorted({t for t in tokens if t.startswith("#")})
        counts.update(tags)
        for a in range(len(tags)):
            for b in range(a + 1, len(tags)):
                pairs[(tags[a], tags[b])] += 1
    adjacency: dict[str, set[str]] = {t: set() for t in counts}
    if pairs:
        keys = list(pairs)
        k = np.array([pairs[key] for key in keys])
        n_i = np.array([counts[a] for a, _ in keys])
        n_j = np.array([counts[b] for _, b in keys])
        # logpmf is the closed form in log-gamma terms; pmf goes through a
        # far slower series at these sizes
        log_p = hypergeom.logpmf(k, len(tweets), n_i, n_j)
        for (a, b), keep in zip(keys, log_p < math.log(p_o)):
            if keep:
                adjacency[a].add(b)
                adjacency[b].add(a)
    return counts, adjacency


def _reachable(adjacency: dict[str, set[str]], sources) -> set[str]:
    seen = {s for s in sources if s in adjacency}
    queue = deque(seen)
    while queue:
        for nb in adjacency[queue.popleft()]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return seen


def lnp_reference(points: np.ndarray, labeled: dict[int, int], n_classes: int, k: int,
                  ridge: float = 1e-3):
    """Label scores from nonnegative sum-to-one local weights and a dense
    harmonic solve.

    Each point's weights minimize |x_i - sum_j w_j x_j|^2 over w >= 0,
    sum w = 1 on its k Euclidean neighbors, with the documented ridge
    ``ridge * trace(G) / k`` added to the local Gram matrix when k exceeds
    the dimension. scipy's NNLS solves it on [R; M 1'] w ~ [0; M] with
    G = R'R; normalizing the result removes the penalty's bias. Returns
    (scores, W_uu).
    """
    n, dim = points.shape
    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(sq, np.inf)
    neighbors = np.argsort(sq, axis=1, kind="stable")[:, :k]
    dense = np.zeros((n, n))
    for i in range(n):
        diffs = points[i] - points[neighbors[i]]
        gram = diffs @ diffs.T
        scale = np.trace(gram) / k
        if k > dim:
            gram = gram + ridge * scale * np.eye(k)
        evals, evecs = np.linalg.eigh(gram)
        root = np.sqrt(np.clip(evals, 0.0, None))[:, None] * evecs.T
        big = 1e3 * math.sqrt(scale)
        w, _ = nnls(np.vstack([root, big * np.ones((1, k))]), np.r_[np.zeros(k), big])
        dense[i, neighbors[i]] = w / w.sum()
    scores = np.zeros((n, n_classes))
    for i, c in labeled.items():
        scores[i, c] = 1.0
    lab = sorted(labeled)
    unl = [i for i in range(n) if i not in labeled]
    w_uu = dense[np.ix_(unl, unl)]
    rhs = dense[np.ix_(unl, lab)] @ scores[lab]
    scores[unl] = np.linalg.solve(np.eye(len(unl)) - w_uu, rhs)
    return scores, w_uu


# ---------------------------------------------------------------------------
# per-stage checks


def check_synth(ctx: Context) -> list[Problem]:
    cfg, w, out = ctx.config, ctx.workdir, []
    posts = _jsonl(w / "corpus.jsonl")
    want = cfg.synth_classes * cfg.synth_tweets_per_class
    if len(posts) != want:
        out.append(Problem(f"corpus.jsonl has {len(posts)} posts, expected {want}"))
    for post in posts:
        if set(post) != {"id", "text", "user_id", "client", "geo", "profile_location", "ts"}:
            out.append(Problem(f"post {post.get('id')} has fields {sorted(post)}"))
            break
    tweet_truth = _entity_map(w / "tweet_truth.csv")
    if list(tweet_truth) != [p["id"] for p in posts]:
        out.append(Problem("tweet_truth.csv does not list the posts in order"))
    states = _entity_map(w / "state_truth.csv")
    classes = {f"c{c}" for c in range(cfg.synth_classes)}
    if not states or set(states.values()) - classes:
        out.append(Problem(f"state_truth.csv classes {sorted(set(states.values()))}"))
    initial = _entity_map(w / "initial_labels.csv")
    for entity, c in initial.items():
        if states.get(entity) != c:
            out.append(Problem(f"initial label {entity}={c} disagrees with state_truth.csv"))
    per_class = Counter(initial.values())
    if any(v > cfg.synth_initial_labels_per_class for v in per_class.values()) or \
            set(per_class) != classes:
        out.append(Problem(f"initial labels per class {dict(per_class)}"))
    return out


def expected_clean_from_synth(ctx: Context) -> list[dict]:
    """clean.jsonl as the documented ingest rule makes it from synth's posts
    (plain space-separated lowercase text, state code in the geo field)."""
    cfg = ctx.config
    official = set((ctx.data_dir / "official_clients.txt").read_text(encoding="utf-8").split("\n"))
    keys_a = [k.strip() for k in cfg.keywords_a.split(",") if k.strip()]
    keys_b = [k.strip() for k in cfg.keywords_b.split(",") if k.strip()]
    out = []
    for post in _jsonl(ctx.workdir / "corpus.jsonl"):
        tokens = post["text"].split()
        kinds = [(t, "hashtag" if t.startswith("#") else "word") for t in tokens]
        if mentions(kinds, keys_a) and mentions(kinds, keys_b) and post["client"] in official:
            out.append({"id": post["id"], "user_id": post["user_id"],
                        "state": post["geo"], "tokens": tokens})
    return out


def expected_clean_from_planted(ctx: Context) -> list[dict]:
    return [{"id": pid, "user_id": user, "state": state, "tokens": tokens.split()}
            for pid, user, rel, official, state, _side, tokens
            in _jsonl(ctx.workdir / "planted.jsonl") if rel and official]


def check_ingest(ctx: Context) -> list[Problem]:
    out = []
    if (ctx.workdir / "planted.json").exists():
        expected = expected_clean_from_planted(ctx)
        planted = json.loads((ctx.workdir / "planted.json").read_text(encoding="utf-8"))
        got = ctx.counts.get("ingest", {})
        want = {"parsed": planted["posts"], "skipped": planted["malformed"],
                "relevant": planted["relevant"], "official": planted["official"],
                "with_state": planted["with_state"]}
        for key, value in want.items():
            if got.get(key) != value:
                out.append(Problem(f"ingest count {key}={got.get(key)}, planted {value}"))
    else:
        expected = expected_clean_from_synth(ctx)
    records = _jsonl(ctx.workdir / "clean.jsonl")
    if len(records) != len(expected):
        out.append(Problem(f"clean.jsonl has {len(records)} records, expected {len(expected)}"))
    wrong_state = wrong_other = 0
    for rec, want in zip(records, expected):
        if rec.get("state") != want["state"]:
            wrong_state += 1
        if {k: rec.get(k) for k in ("id", "user_id", "tokens")} != \
                {k: want[k] for k in ("id", "user_id", "tokens")}:
            wrong_other += 1
    if wrong_state:
        out.append(Problem(f"{wrong_state} records carry another state than planted"))
    if wrong_other:
        out.append(Problem(f"{wrong_other} records differ in id, user or tokens"))
    return out


def _seeds(ctx: Context) -> dict[str, str]:
    return _entity_map(ctx.data_dir / "seeds.csv")


def _planted_sides(ctx: Context, vertices) -> dict[str, str]:
    """Planted side hashtag -> the label of its side's seed."""
    planted_path = ctx.workdir / "planted.json"
    if planted_path.exists():
        planted = json.loads(planted_path.read_text(encoding="utf-8"))
        return {tag: label for (_, label), tags in zip(planted["sides"], planted["side_tags"])
                for tag in tags}
    seeds = _seeds(ctx)
    side_of = {}
    for tag in vertices:
        match = re.match(r"^#side(\d+)tag\d+$", tag)
        if match and int(match.group(1)) < len(CHAIN_SEEDS):
            side_of[tag] = seeds[CHAIN_SEEDS[int(match.group(1))]]
    return side_of


def read_label_map(path: Path, problems: list[Problem]) -> dict[str, tuple[str, int]]:
    header, rows = _rows(path)
    if header != ["hashtag", "label", "n_i"]:
        problems.append(Problem(f"hashtag_labels.csv header {header}"))
    labels = {}
    for row in rows:
        if len(row) != 3 or row[1] not in OPINION_LABELS:
            problems.append(Problem(f"hashtag_labels.csv row {row}"))
            continue
        labels[row[0]] = (row[1], int(row[2]))
    return labels


def check_hashtag_net(ctx: Context) -> list[Problem]:
    out: list[Problem] = []
    cfg = ctx.config
    tweets = [r["tokens"] for r in _jsonl(ctx.workdir / "clean.jsonl")]
    counts, adjacency = significant_graph(tweets, cfg.p_o)
    labels = read_label_map(ctx.workdir / "hashtag_labels.csv", out)
    seeds = {t: lab for t, lab in _seeds(ctx).items() if t in counts}
    for tag, lab in seeds.items():
        if labels.get(tag, (None,))[0] != lab:
            out.append(Problem(f"seed {tag} lost its label {lab}: {labels.get(tag)}"))
    reach = _reachable(adjacency, seeds)
    for tag, (lab, n_i) in labels.items():
        if tag not in reach:
            out.append(Problem(f"{tag} is labeled {lab} but unreachable from every seed"))
        if n_i != counts.get(tag):
            out.append(Problem(f"{tag} has n_i={n_i}, counted {counts.get(tag)}"))
    # A reachable side hashtag may also be missing from the map: label
    # spreading can stop before it reaches every vertex (see the FOUND note
    # on propagate_hashtag_labels), on some seeds only, so that is not checked.
    wrong = [f"{tag}={labels[tag][0]} (side {side_label})"
             for tag, side_label in _planted_sides(ctx, counts).items()
             if tag in reach and tag in labels and labels[tag][0] != side_label]
    if wrong:
        out.append(Problem(f"{len(wrong)} reachable side hashtags mislabeled: {wrong[:5]}"))
    return out


def check_label_tweets(ctx: Context) -> list[Problem]:
    out: list[Problem] = []
    labels = {t: lab for t, (lab, _) in
              read_label_map(ctx.workdir / "hashtag_labels.csv", out).items()}
    expected, tally = [], Counter()
    for rec in _jsonl(ctx.workdir / "clean.jsonl"):
        tokens = rec["tokens"]
        category = classify([t for t in tokens if t.startswith("#")], labels)
        tally[category] += 1
        if category in TRAINING_CATEGORIES:
            expected.append(f"{category}\t{' '.join(t for t in tokens if t not in labels)}")
    got = (ctx.workdir / "training_set.tsv").read_text(encoding="utf-8").split("\n")
    if got and got[-1] == "":
        got.pop()
    if got != expected:
        diff = sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
        out.append(Problem(f"training_set.tsv differs from the rule on {diff} lines"))
    counts = ctx.counts.get("label-tweets", {})
    for category in OPINION_LABELS:
        if counts.get(category) != tally[category]:
            out.append(Problem(f"{category} count {counts.get(category)}, rule {tally[category]}"))
    return out


def read_vocab(path: Path, problems: list[Problem]) -> list[tuple[str, int]]:
    vocab = []
    with open(path, encoding="utf-8") as fh:
        for pos, line in enumerate(fh):
            token, idx, count = line.rstrip("\n").split("\t")
            if int(idx) != pos:
                problems.append(Problem(f"vocab.tsv line {pos} has index {idx}"))
            vocab.append((token, int(count)))
    return vocab


def check_train(ctx: Context) -> list[Problem]:
    out: list[Problem] = []
    cfg, w = ctx.config, ctx.workdir
    recount: Counter[str] = Counter()
    with open(w / "training_set.tsv", encoding="utf-8") as fh:
        for line in fh:
            recount.update(line.rstrip("\n").partition("\t")[2].split())
    vocab = read_vocab(w / "vocab.tsv", out)
    retained = sorted(((t, c) for t, c in recount.items() if c >= cfg.min_count),
                      key=lambda tc: (-tc[1], tc[0]))
    if vocab[:2] != [("<pad>", 0), ("<unk>", 0)] or vocab[2:] != retained:
        out.append(Problem("vocab.tsv is not the count-ordered vocabulary of training_set.tsv"))
    try:
        model = read_model(w / "model.bin")
        shape = (model["V"], model["d"], model["h"], model["C"], model["window"])
        want = (len(vocab), cfg.embed_dim, cfg.hidden_dim, len(TRAINING_CATEGORIES), cfg.window)
        if model["version"] != 1 or shape != want:
            out.append(Problem(f"model.bin shape {shape}, expected {want}"))
        if not np.isfinite(model["E"]).all():
            out.append(Problem("model.bin holds non-finite embeddings"))
    except ValueError as exc:
        out.append(Problem(f"model.bin: {exc}"))
    header, rows = _rows(w / "train_log.csv")
    if header != ["epoch", "mean_loss"] or len(rows) != cfg.epochs:
        out.append(Problem(f"train_log.csv has header {header} and {len(rows)} rows"))
    for pos, row in enumerate(rows, start=1):
        loss = _number(row[1], "train_log.csv mean_loss", out)
        if row[0] != str(pos) or not loss >= 0.0:
            out.append(Problem(f"train_log.csv row {row}"))
    return _dedupe(out)


def check_embed(ctx: Context) -> list[Problem]:
    out: list[Problem] = []
    vocab = read_vocab(ctx.workdir / "vocab.tsv", out)
    model = read_model(ctx.workdir / "model.bin")
    tokens, rows = [], []
    with open(ctx.workdir / "embeddings.tsv", encoding="utf-8") as fh:
        for line in fh:
            token, _, values = line.rstrip("\n").partition("\t")
            tokens.append(token)
            rows.append([float(v) for v in values.split()])
    if tokens != [t for t, _ in vocab]:
        out.append(Problem("embeddings.tsv tokens differ from vocab.tsv"))
    elif not np.array_equal(np.array(rows), model["E"]):
        out.append(Problem("embeddings.tsv values differ from the rows in model.bin"))
    return out


def _mean_tol(vectors) -> float:
    return MEAN_ULPS * np.finfo(float).eps * max(float(np.abs(v).max()) for v in vectors)


def check_aggregate(ctx: Context) -> list[Problem]:
    """Recompute tweet -> user -> state points with plain np.mean."""
    out: list[Problem] = []
    w = ctx.workdir
    table = {}
    with open(w / "embeddings.tsv", encoding="utf-8") as fh:
        for line in fh:
            token, _, values = line.rstrip("\n").partition("\t")
            table[token] = np.array(values.split(), dtype=float)
    labeled = set(read_label_map(w / "hashtag_labels.csv", out))
    tweets, by_user, user_states = [], {}, {}
    for rec in _jsonl(w / "clean.jsonl"):
        rows = [table[t] for t in rec["tokens"] if t not in labeled and t in table]
        if not rows:
            continue
        vec = np.mean(rows, axis=0)
        tweets.append((rec["id"], 1, vec, rows))
        by_user.setdefault(rec["user_id"], []).append(vec)
        if rec["state"] is not None:
            user_states.setdefault(rec["user_id"], []).append(rec["state"])
    users, by_state = [], {}
    for user in sorted(by_user):
        vec = np.mean(by_user[user], axis=0)
        users.append((user, len(by_user[user]), vec, by_user[user]))
        if user in user_states:
            tally = Counter(user_states[user])
            top = max(tally.values())
            by_state.setdefault(min(s for s, c in tally.items() if c == top), []).append(vec)
    states = [(s, len(v), np.mean(v, axis=0), v) for s, v in sorted(by_state.items())]
    got = read_points(w / "points.tsv")
    for level, want in (("tweet", tweets), ("user", users), ("state", states)):
        have = got[level]
        if [(e, c) for e, c, _ in have] != [(e, c) for e, c, _, _ in want]:
            out.append(Problem(f"{level} points: entities or counts differ from the recomputation"))
            continue
        off = [e for (e, _, v), (_, _, ref, parts) in zip(have, want)
               if np.abs(v - ref).max() > _mean_tol(parts)]
        if off:
            out.append(Problem(f"{len(off)} {level} points differ from np.mean: {off[:3]}"))
    header, rows = _rows(w / "state_summary.csv")
    summary = {r[0]: r for r in rows}
    for state, n_users, _, vecs in states:
        row = summary.get(state)
        if row is None or int(row[1]) != n_users or \
                abs(float(row[2]) - float(np.std(np.vstack(vecs), axis=0).mean())) > 1e-12:
            out.append(Problem(f"state_summary.csv row for {state}: {row}"))
    return out


def _predictions(path: Path, problems: list[Problem]):
    header, rows = _rows(path)
    n_classes = len(header) - 2
    if header[:2] != ["entity", "class"] or \
            header[2:] != [f"score_{i + 1}" for i in range(n_classes)]:
        problems.append(Problem(f"predictions.csv header {header}"))
    entities = [r[0] for r in rows]
    names = [r[1] for r in rows]
    scores = np.array([[float(v) for v in r[2:]] for r in rows])
    return entities, names, scores


def check_predict(ctx: Context) -> list[Problem]:
    """Scores are a distribution per row, labeled rows are one-hot, and the
    argmax recovers the planted truth (chain) or matches the reference
    computation (moons)."""
    out: list[Problem] = []
    cfg, w = ctx.config, ctx.workdir
    entities, names, scores = _predictions(w / "predictions.csv", out)
    points = read_points(w / "points.tsv")["state"]
    if entities != [e for e, _, _ in points]:
        out.append(Problem("predictions.csv rows do not follow the state points"))
        return out
    labels = _entity_map(Path(cfg.labels_file) if cfg.labels_file else w / "initial_labels.csv")
    classes = sorted(set(labels.values()))
    if scores.min() < -1e-12 or scores.max() > 1.0 + 1e-12:
        out.append(Problem(f"scores leave [0, 1]: {scores.min()} .. {scores.max()}"))
    if np.abs(scores.sum(axis=1) - 1.0).max() > 1e-6:
        out.append(Problem(f"score rows sum to {scores.sum(axis=1).min()} .. "
                           f"{scores.sum(axis=1).max()}"))
    for i, entity in enumerate(entities):
        if entity in labels:
            onehot = np.eye(len(classes))[classes.index(labels[entity])]
            if not np.array_equal(scores[i], onehot):
                out.append(Problem(f"labeled row {entity} is not one-hot: {scores[i]}"))
        if names[i] != classes[int(np.argmax(scores[i]))]:
            out.append(Problem(f"class column of {entity} is not the argmax"))
    if cfg.lnp_metric == "euclidean":
        coords = np.vstack([v for _, _, v in points])
        labeled = {i: classes.index(labels[e]) for i, e in enumerate(entities) if e in labels}
        k = min(cfg.lnp_k, len(entities) - 1)
        ref, w_uu = lnp_reference(coords, labeled, len(classes), k)
        # a stop once a step is below tol leaves the iterate within
        # |(I - W_uu)^-1 W_uu|_inf * tol of the fixed point
        gain = np.abs(np.linalg.solve(np.eye(len(w_uu)) - w_uu, w_uu)).sum(axis=1).max()
        tol = 2.0 * gain * cfg.propagate_tol + 1e-9
        gap = float(np.abs(scores - ref).max())
        if gap > tol:
            out.append(Problem(f"scores differ from the reference solve by {gap:.3e} > {tol:.3e}"))
    else:
        truth = _entity_map(Path(cfg.truth_file) if cfg.truth_file else w / "state_truth.csv")
        missed = [e for e, name in zip(entities, names) if truth.get(e) != name]
        if missed:
            out.append(Problem(f"{len(missed)} of {len(entities)} states miss the planted truth: "
                               f"{missed[:5]}"))
    return out


def _usable_ks(cfg, n: int) -> list[int]:
    return [k for k in range(cfg.k_min, cfg.k_max + 1) if k < n]


def check_sweep(ctx: Context) -> list[Problem]:
    out: list[Problem] = []
    cfg, w = ctx.config, ctx.workdir
    n = len(read_points(w / "points.tsv")["state"])
    truth = _entity_map(Path(cfg.truth_file) if cfg.truth_file else w / "state_truth.csv")
    sizes = Counter(truth.values())
    budgets = sorted(int(v) for v in cfg.label_counts.split(","))
    ks = _usable_ks(cfg, n)
    header, rows = _rows(w / "sweep.csv")
    if header != ["metric", "label_count", "k", "run", "errors"]:
        out.append(Problem(f"sweep.csv header {header}"))
    cells = {}
    for row in rows:
        metric, budget, k, run, errors = row[0], int(row[1]), int(row[2]), int(row[3]), int(row[4])
        cells.setdefault((metric, budget, k), []).append(errors)
        labels = sum(min(budget // len(sizes), s) for s in sizes.values())
        if not 0 <= errors <= n - labels:
            out.append(Problem(f"sweep row {row}: errors outside [0, {n - labels}]"))
    want = {(m, b, k) for m in ("euclidean", "geodesic") for b in budgets for k in ks}
    if set(cells) != want or any(len(v) != cfg.runs for v in cells.values()):
        out.append(Problem(f"sweep.csv has {len(rows)} rows, expected {len(want) * cfg.runs} "
                           f"(metric x label count x k x run)"))
    elif cfg.truth_file:  # the moons protocol: the best k must beat chance by far
        for metric in ("euclidean", "geodesic"):
            for budget in budgets:
                labels = sum(min(budget // len(sizes), s) for s in sizes.values())
                best = min(float(np.median(cells[(metric, budget, k)])) for k in ks)
                if best > (n - labels) / 4:  # half the error rate of a coin flip
                    out.append(Problem(f"{metric} with {budget} labels: best-k median "
                                       f"{best} errors of {n - labels}"))
    return out


def check_metrics(ctx: Context) -> list[Problem]:
    out: list[Problem] = []
    cfg, w = ctx.config, ctx.workdir
    ks = _usable_ks(cfg, len(read_points(w / "points.tsv")["state"]))
    header, rows = _rows(w / "quality_runs.csv")
    per_k: dict[int, list[float]] = {}
    if header != ["k", "run", "np", "st", "pne"] or len(rows) != len(ks) * cfg.runs:
        out.append(Problem(f"quality_runs.csv has header {header} and {len(rows)} rows, "
                           f"expected {len(ks) * cfg.runs}"))
    for row in rows:
        nums = [_number(cell, f"quality_runs.csv {col}", out)
                for col, cell in zip(("np", "st", "pne"), row[2:])]
        per_k.setdefault(int(row[0]), []).append(nums[2])
        if not 0.0 <= nums[0] <= 1.0 or not nums[2] >= 0.0:
            out.append(Problem(f"quality_runs.csv row {row} out of range"))
    header, rows = _rows(w / "quality_summary.csv")
    medians = {int(r[0]): float(r[1]) for r in rows}
    if list(medians) != ks:
        out.append(Problem(f"quality_summary.csv covers k={list(medians)}, expected {ks}"))
    for k, values in per_k.items():
        if k in medians and abs(float(np.median(values)) - medians[k]) > 1e-12 * max(1.0, medians[k]):
            out.append(Problem(f"pne_median for k={k} is not the median of its runs"))
    chosen = (w / "selected_k.txt").read_text(encoding="utf-8").strip()
    if medians:
        best = min(medians, key=lambda k: (medians[k], k))
        if chosen != str(best):
            out.append(Problem(f"selected_k.txt says {chosen}, argmin of pne_median is {best}"))
    return _dedupe(out)


def check_plot(ctx: Context) -> list[Problem]:
    out: list[Problem] = []
    w = ctx.workdir
    states = [e for e, _, _ in read_points(w / "points.tsv")["state"]]
    for name in ("scatter_states.svg", "error_curves.svg", "pne_curve.svg"):
        try:
            root = ET.parse(w / name).getroot()
        except (ET.ParseError, FileNotFoundError) as exc:
            out.append(Problem(f"{name}: {exc}"))
            continue
        if not root.tag.endswith("svg"):
            out.append(Problem(f"{name}: root element {root.tag}"))
        if name == "scatter_states.svg":
            texts = {el.text for el in root.iter() if el.tag.endswith("text")}
            missing = [s for s in states if s not in texts]
            if missing:
                out.append(Problem(f"scatter_states.svg lacks labels for {missing[:5]}"))
    return out


CHECKS = {
    "synth": check_synth,
    "ingest": check_ingest,
    "hashtag-net": check_hashtag_net,
    "label-tweets": check_label_tweets,
    "train": check_train,
    "embed": check_embed,
    "aggregate": check_aggregate,
    "predict": check_predict,
    "sweep": check_sweep,
    "metrics": check_metrics,
    "plot": check_plot,
}
