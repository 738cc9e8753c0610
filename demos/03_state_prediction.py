"""Aggregate opinions to states and predict outcomes from a few labels.

Runs the library end to end: synthetic corpus -> embedding -> per-state
opinion points -> LNP prediction from two labeled states per side, then
compares against the planted truth and draws the opinion map.
"""

from pathlib import Path

import numpy as np

from relop.aggregate import aggregate_corpus
from relop.hashtags import TrainingSet
from relop.ingest import build_vocab, content_tokens, infer_state, tokenize, Gazetteer
from relop.lnp import evaluate_fixture, predict
from relop.manifold import classical_mds, pairwise_euclidean
from relop.oowe import OoweConfig, train
from relop.pipeline import data_path
from relop.plots import plot_scatter
from relop.synth import SynthCorpusConfig, gen_opinion_corpus

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = SynthCorpusConfig(classes=2, tweets_per_class=1200, users_per_class=50, seed=3)
corpus = gen_opinion_corpus(config)
gazetteer = Gazetteer.from_csv(data_path("gazetteer.csv"))

tweets = []
for post, side in zip(corpus.posts, corpus.tweet_classes):
    tokens = tokenize(post.text)
    state = infer_state(post, gazetteer, tokens)
    tweets.append((post.id, post.user_id, state, content_tokens(tokens), side))

examples = [(tokens, side + 1) for _, _, _, tokens, side in tweets]
training = TrainingSet(
    examples=examples,
    categories=("side0", "side1"),
    category_counts={"side0": config.tweets_per_class, "side1": config.tweets_per_class},
)
vocab = build_vocab((tokens for tokens, _ in examples), min_count=5)
model, _ = train(training, vocab, OoweConfig(categories=2, epochs=5, seed=2))

result = aggregate_corpus(model, vocab, [(i, u, s, t) for i, u, s, t, _ in tweets])
states = [p.entity_id for p in result.state_points]
points = np.vstack([p.vector for p in result.state_points])
truth = {s: f"side{corpus.state_classes[s]}" for s in states}
print(f"{len(result.user_points)} users aggregated into {len(states)} states")

labeled = {}
for side in (0, 1):
    members = sorted(s for s in states if corpus.state_classes[s] == side)[:2]
    for state in members:
        labeled[states.index(state)] = side
print("initial labels:", {states[i]: f"side{c}" for i, c in labeled.items()})

classes, scores = predict(points, labeled, 2, k=min(8, len(states) - 1), metric="geodesic")
predictions = {s: f"side{int(c)}" for s, c in zip(states, classes)}
errors, misses = evaluate_fixture(predictions, truth)
print(f"prediction errors: {errors} {misses if misses else ''}")

coords = classical_mds(pairwise_euclidean(points), 2)
svg = plot_scatter(
    coords.tolist(),
    [
        {"id": s, "class": predictions[s], "size": float(np.linalg.norm(scores[i]))}
        for i, s in enumerate(states)
    ],
    title="state-level relative opinion space (predicted sides)",
)
(OUT / "state_predictions.svg").write_text(svg)
print(f"wrote {OUT / 'state_predictions.svg'}")
