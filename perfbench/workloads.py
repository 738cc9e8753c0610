"""The three workloads: how each makes its inputs from a seed, and which
stages it runs with which configuration.

Inputs are a pure function of (workload, seed, reduced). The generators
here share no code with the program's own synthetic generators, and every
fact a checker needs about the planted inputs is written next to them in
``planted.json`` / ``planted.jsonl``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("chain-default", "corpus-large", "moons-protocol")

# ---------------------------------------------------------------------------
# chain-default: `relop all` at the shipped corpus size

CHAIN_STAGES = (
    "synth", "ingest", "hashtag-net", "label-tweets", "train", "embed",
    "aggregate", "predict", "sweep", "metrics", "plot",
)
# The sweep and quality protocols repeat 50 seeded runs by default, which
# puts one default chain at about 52 s on a 2-core machine. The benchmark
# keeps every shape of the default run (1,000 posts, 24 state points,
# k in [2, 25], four label budgets) and repeats each protocol 20 times, so
# that one run stays near 30 s and a full set of runs near half an hour.
CHAIN_RUNS = 20
CHAIN_REDUCED = dict(
    synth_tweets_per_class=150, synth_users_per_class=10, synth_tokens_per_tweet=8,
    epochs=2, embed_dim=8, hidden_dim=6, min_count=3, runs=2, k_min=2, k_max=6,
    label_counts="4,8", smacof_iters=100,
)

# ---------------------------------------------------------------------------
# corpus-large: a generated post stream through ingest -> hashtag-net ->
# label-tweets

CORPUS_STAGES = ("ingest", "hashtag-net", "label-tweets")
CORPUS_FULL = dict(posts=60_000, tags_per_side=400, shared_tags=80, words=4000, users=8000)
CORPUS_REDUCED = dict(posts=3_000, tags_per_side=30, shared_tags=8, words=400, users=400)
MALFORMED_LINES = 12

# One opinion side per packaged seed hashtag; each side owns a disjoint,
# Zipf-distributed pool of hashtags that co-occur only with each other and
# with the side's seed. Sides never mix inside a post, so no pair of
# hashtags is under-represented (see the FOUND note on edge_pvalue).
SIDES = (
    ("#maga", "pro_trump"),
    ("#imwithher", "pro_clinton"),
    ("#nevertrump", "anti_trump"),
    ("#neverhillary", "anti_clinton"),
)
SIDE_WEIGHTS = (0.3, 0.3, 0.2, 0.2)
KEYWORDS_A = ("trump", "realdonaldtrump", "donaldtrump")  # the configured defaults
KEYWORDS_B = ("hillary", "clinton", "hillaryclinton")
KEYWORD_A_FORMS = (("trump", "word"), ("Trump!", "word"), ("donaldtrump", "word"),
                   ("@realDonaldTrump", "mention"))
KEYWORD_B_FORMS = (("clinton", "word"), ("Hillary,", "word"), ("hillaryclinton", "word"),
                   ("@HillaryClinton", "mention"))
OFFICIAL_CLIENTS = ("Twitter for iPhone", "Twitter for Android", "Twitter Web Client")
BOT_CLIENTS = ("autopost 3000", "IFTTT", "dlvr.it")
# place strings and the region each one names (checked by hand against the
# documented lookup order: whole field, comma segments from the right, then
# a longest-first word scan)
STATE_NAMES = (
    ("Ohio", "OH"), ("Texas", "TX"), ("New York", "NY"), ("California", "CA"),
    ("Florida", "FL"), ("North Carolina", "NC"), ("West Virginia", "WV"), ("Iowa", "IA"),
    ("Oregon", "OR"), ("Georgia", "GA"), ("Virginia", "VA"), ("Pennsylvania", "PA"),
    ("Michigan", "MI"), ("Arizona", "AZ"), ("Minnesota", "MN"), ("New Hampshire", "NH"),
    ("Kentucky", "KY"), ("Nevada", "NV"),
)
CITIES = (
    ("Austin", "TX"), ("Chicago", "IL"), ("Seattle", "WA"), ("Boston", "MA"),
    ("Denver", "CO"), ("Atlanta", "GA"), ("Miami", "FL"), ("Detroit", "MI"),
    ("Phoenix", "AZ"), ("Nashville", "TN"), ("Kansas City", "MO"), ("New Orleans", "LA"),
    ("Salt Lake City", "UT"), ("Los Angeles", "CA"), ("Las Vegas", "NV"),
    ("Philadelphia", "PA"), ("Omaha", "NE"), ("Milwaukee", "WI"), ("Charlotte", "NC"),
    ("Baltimore", "MD"),
)
NOWHERE = ("Planet Earth", "everywhere", "the internet", "Earth")
STATE_NAME_OF = {code: name for name, code in STATE_NAMES}


def mentions(tokens, keywords) -> bool:
    """The documented relevance rule over (surface, kind) tokens: a word
    equals a keyword, a hashtag or mention contains one (the seeds
    #nevertrump / #neverhillary do)."""
    for surface, kind in tokens:
        if kind == "word" and surface in keywords:
            return True
        if kind in ("hashtag", "mention") and any(kw in surface for kw in keywords):
            return True
    return False


def _chunk(raw: str, kind: str) -> tuple[str, str, str]:
    """(text as written, token kind, the token the tokenizer makes of it)"""
    return raw, kind, raw.lower().rstrip("!,.")


def _zipf(size: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** exponent
    return weights / weights.sum()


def _pick(table, u: float):
    return table[int(u * len(table))]


def _geo_string(form: float, u: float) -> tuple[str, str]:
    if form < 1 / 3:
        city, code = _pick(CITIES, u)
        return f"{city}, {code}", code
    name, code = _pick(STATE_NAMES, u)
    return (name, code) if form < 2 / 3 else (code, code)


def _profile_string(form: float, u: float) -> tuple[str, str]:
    if form < 1 / 3:
        city, code = _pick(CITIES, u)
        return f"{city}, {STATE_NAME_OF.get(code, code)}", code
    if form < 2 / 3:
        return _pick(CITIES, u)
    return _pick(STATE_NAMES, u)


def _text_place(form: float, u: float) -> tuple[list[str], str]:
    name, code = _pick(CITIES if form < 0.5 else STATE_NAMES, u)
    return name.split(), code


def generate_corpus(seed: int, workdir: Path, reduced: bool = False) -> None:
    """Write ``posts.jsonl`` (the program's input), ``planted.jsonl`` (one
    line per well-formed post: id, user, relevant, official, state, side and
    content tokens) and ``planted.json`` (counts and side hashtags)."""
    size = CORPUS_REDUCED if reduced else CORPUS_FULL
    rng = np.random.default_rng([seed, 1])
    n_posts = size["posts"]
    side_tags = [[f"#s{s}t{i}" for i in range(size["tags_per_side"])] for s in range(len(SIDES))]
    shared = [f"#news{i}" for i in range(size["shared_tags"])]
    words = [f"w{i}" for i in range(size["words"])]
    p_side = _zipf(size["tags_per_side"], 1.1)
    p_shared = _zipf(size["shared_tags"], 1.0)
    p_words = _zipf(size["words"], 1.0)

    # per-post draws, made up front so the stream does not depend on branches
    keyword_kind = rng.choice(4, size=n_posts, p=[0.85, 0.05, 0.05, 0.05])  # both, A, B, neither
    bot = rng.random(n_posts) < 0.1
    side_of = np.where(
        rng.random(n_posts) < 0.8, rng.choice(len(SIDES), size=n_posts, p=SIDE_WEIGHTS), -1
    )
    with_seed = rng.random(n_posts) < 0.5
    n_side = rng.choice([1, 2, 3], size=n_posts, p=[0.5, 0.3, 0.2])
    side_draws = rng.choice(size["tags_per_side"], size=(n_posts, 3), p=p_side).tolist()
    n_shared = np.minimum(rng.poisson(1.0, n_posts), 3)
    shared_draws = rng.choice(size["shared_tags"], size=(n_posts, 3), p=p_shared).tolist()
    n_words = rng.integers(6, 15, size=n_posts)
    word_ends = np.cumsum(n_words)
    word_draws = rng.choice(size["words"], size=int(word_ends[-1]), p=p_words).tolist()
    loc_mode = rng.choice(4, size=n_posts, p=[0.35, 0.25, 0.15, 0.25]).tolist()  # geo, profile, text, none
    uniforms = rng.random((n_posts, 17)).tolist()  # the remaining per-post choices
    malformed_at = set(int(i) for i in rng.choice(n_posts, size=MALFORMED_LINES, replace=False))

    counts = {"posts": n_posts, "malformed": 0, "relevant": 0, "official": 0, "with_state": 0}
    with open(workdir / "posts.jsonl", "w", encoding="utf-8") as out, \
            open(workdir / "planted.jsonl", "w", encoding="utf-8") as truth:
        for i in range(n_posts):
            if i in malformed_at:
                counts["malformed"] += 1
                bad = ('{"id": "bad%d", "text": ' % i, json.dumps({"id": f"bad{i}", "text": "x"}),
                       json.dumps({"id": f"bad{i}", "text": "  ", "user_id": "u0",
                                   "client": OFFICIAL_CLIENTS[0], "ts": 1}))
                out.write(bad[i % 3] + "\n")
            # every chunk but the keyword forms and the seed hashtags is a
            # synthetic name that contains no keyword, so relevance is decided
            # on those alone
            r = uniforms[i]
            keyed = []
            if keyword_kind[i] in (0, 1):
                keyed.append(_chunk(*_pick(KEYWORD_A_FORMS, r[0])))
            if keyword_kind[i] in (0, 2):
                keyed.append(_chunk(*_pick(KEYWORD_B_FORMS, r[1])))
            side = int(side_of[i])
            if side >= 0 and with_seed[i]:
                keyed.append((SIDES[side][0], "hashtag", SIDES[side][0]))
            surfaces = [(c[2], c[1]) for c in keyed]
            relevant = mentions(surfaces, KEYWORDS_A) and mentions(surfaces, KEYWORDS_B)
            chunks = keyed
            if side >= 0:
                for t in dict.fromkeys(side_draws[i][: n_side[i]]):
                    tag = side_tags[side][t]
                    chunks.append((tag, "hashtag", tag))
            for t in dict.fromkeys(shared_draws[i][: n_shared[i]]):
                chunks.append((shared[t], "hashtag", shared[t]))
            for w in word_draws[word_ends[i] - n_words[i] : word_ends[i]]:
                chunks.append((words[w], "word", words[w]))
            if r[2] < 0.15:
                chunks.append((f"@user{int(r[3] * size['users'])}", "mention", ""))
            if r[4] < 0.1:
                chunks.append((f"https://t.co/x{int(r[5] * 10**6)}", "url", ""))
            chunks = [chunks[j] for j in rng.permutation(len(chunks)).tolist()]

            geo = profile = state = None
            mode = loc_mode[i]
            if mode == 0:
                geo, state = _geo_string(r[6], r[7])
            elif r[6] < 0.3:
                geo = _pick(NOWHERE, r[7])
            if mode == 1:
                profile, state = _profile_string(r[8], r[9])
            elif mode != 0 and r[10] < 0.3:
                profile = _pick(NOWHERE, r[9])
            elif mode == 0 and r[10] < 0.2:
                profile = _profile_string(r[8], r[9])[0]  # outranked by the geo tag
            if mode == 2 or (mode in (0, 1) and r[11] < 0.2):
                place, code = _text_place(r[12], r[13])
                at = int(r[14] * (len(chunks) + 1))
                chunks[at:at] = [_chunk(w, "word") for w in place]
                if mode == 2:
                    state = code
            client = _pick(BOT_CLIENTS, r[15]) if bot[i] else _pick(OFFICIAL_CLIENTS, r[15])
            user = f"u{int(r[16] * size['users'])}"
            out.write(json.dumps({
                "id": f"p{i}", "text": " ".join(c[0] for c in chunks), "user_id": user,
                "client": client, "geo": geo, "profile_location": profile, "ts": 1_470_000_000 + i,
            }) + "\n")
            content = [c[2] for c in chunks if c[1] == "word" or c[1] == "hashtag"]
            truth.write(json.dumps([f"p{i}", user, relevant, not bot[i], state, side,
                                    " ".join(content)]) + "\n")
            counts["relevant"] += relevant
            if relevant and not bot[i]:
                counts["official"] += 1
                counts["with_state"] += state is not None
    summary = {**counts, "sides": [list(s) for s in SIDES], "side_tags": side_tags}
    (workdir / "planted.json").write_text(json.dumps(summary), encoding="utf-8")


# ---------------------------------------------------------------------------
# moons-protocol: two-moons points as state points, swept and scored

MOONS_STAGES = ("sweep", "metrics", "predict")
MOONS_FULL = dict(n=100, noise=0.08, labels_per_class=4, runs=3, k_max=25,
                  label_counts="4,8,12,16")
MOONS_REDUCED = dict(n=40, noise=0.08, labels_per_class=2, runs=1, k_max=8,
                     label_counts="4,8")
MOON_CLASSES = ("moon_a", "moon_b")
# The sweep's cost depends on the noise draw of the cloud itself: at n = 100
# and noise 0.08, one draw sweeps in 15 s and another in 30 s, whatever the
# label draws. So the cloud is one fixed draw, and the seed picks the initial
# labels and, through master_seed, the protocol's label draws and MDS starts.
MOONS_CLOUD_SEED = 0


def generate_moons(seed: int, workdir: Path, reduced: bool = False) -> None:
    """Write two interleaved half circles as state points, with truth and
    initial-label files."""
    size = MOONS_REDUCED if reduced else MOONS_FULL
    n = size["n"]
    half = n // 2
    # evenly spaced along each half circle, as the usual two-moons set is
    upper_angle = np.linspace(0.0, np.pi, half)
    lower_angle = np.linspace(0.0, np.pi, n - half)
    upper = np.column_stack([np.cos(upper_angle), np.sin(upper_angle)])
    lower = np.column_stack([1.0 - np.cos(lower_angle), 0.5 - np.sin(lower_angle)])
    noise = np.random.default_rng([MOONS_CLOUD_SEED, 2]).standard_normal((n, 2))
    points = np.vstack([upper, lower]) + size["noise"] * noise
    rng = np.random.default_rng([seed, 2])
    classes = [0] * half + [1] * (n - half)
    ids = [f"m{i:03d}" for i in range(n)]
    with open(workdir / "points.tsv", "w", encoding="utf-8") as fh:
        for entity, (x, y) in zip(ids, points):
            fh.write(f"state\t{entity}\t1\t{float(x)!r} {float(y)!r}\n")
    with open(workdir / "moons_truth.csv", "w", encoding="utf-8") as fh:
        fh.write("entity,class\n")
        for entity, c in zip(ids, classes):
            fh.write(f"{entity},{MOON_CLASSES[c]}\n")
    labeled = sorted(
        int(i)
        for c, lo, hi in ((0, 0, half), (1, half, n))
        for i in rng.choice(np.arange(lo, hi), size=size["labels_per_class"], replace=False)
    )
    with open(workdir / "moons_labels.csv", "w", encoding="utf-8") as fh:
        fh.write("entity,class\n")
        for i in labeled:
            fh.write(f"{ids[i]},{MOON_CLASSES[classes[i]]}\n")


# ---------------------------------------------------------------------------
# configuration per workload


def make_inputs(workload: str, seed: int, workdir: Path, reduced: bool) -> None:
    """Generate the workload's inputs into ``workdir`` (the set-up phase)."""
    if workload == "corpus-large":
        generate_corpus(seed, workdir, reduced)
    elif workload == "moons-protocol":
        generate_moons(seed, workdir, reduced)
    elif workload != "chain-default":
        raise ValueError(f"unknown workload {workload!r}")


def stages(workload: str) -> tuple[str, ...]:
    return {"chain-default": CHAIN_STAGES, "corpus-large": CORPUS_STAGES,
            "moons-protocol": MOONS_STAGES}[workload]


def config_overrides(workload: str, seed: int, workdir: Path, reduced: bool) -> dict:
    """Configuration keys the workload sets; everything else stays default."""
    if workload == "chain-default":
        extra = CHAIN_REDUCED if reduced else {"runs": CHAIN_RUNS}
        return {"workdir": str(workdir), "master_seed": seed, **extra}
    if workload == "corpus-large":
        return {"workdir": str(workdir), "master_seed": seed,
                "corpus": str(workdir / "posts.jsonl")}
    if workload == "moons-protocol":
        size = MOONS_REDUCED if reduced else MOONS_FULL
        return {"workdir": str(workdir), "master_seed": seed,
                "truth_file": str(workdir / "moons_truth.csv"),
                "labels_file": str(workdir / "moons_labels.csv"),
                "lnp_metric": "euclidean", "runs": size["runs"], "k_max": size["k_max"],
                "label_counts": size["label_counts"]}
    raise ValueError(f"unknown workload {workload!r}")
