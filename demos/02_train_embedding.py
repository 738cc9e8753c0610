"""Train the opinion-oriented embedding and look at what it learned.

Trains on a planted-lexicon corpus, then reports how the planted opinion
words separate in cosine similarity and draws a 2-D MDS map of the planted
hashtags, which should split cleanly by side.
"""

from pathlib import Path

import numpy as np

from relop.hashtags import TrainingSet
from relop.ingest import build_vocab, content_tokens, tokenize
from relop.manifold import classical_mds, pairwise_euclidean
from relop.oowe import OoweConfig, train
from relop.plots import plot_scatter
from relop.synth import SynthCorpusConfig, gen_opinion_corpus

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = SynthCorpusConfig(classes=2, tweets_per_class=1500, seed=5)
corpus = gen_opinion_corpus(config)
tweets = [content_tokens(tokenize(p.text)) for p in corpus.posts]
examples = [(tokens, c + 1) for tokens, c in zip(tweets, corpus.tweet_classes)]
training = TrainingSet(
    examples=examples,
    categories=("side0", "side1"),
    category_counts={"side0": config.tweets_per_class, "side1": config.tweets_per_class},
)
vocab = build_vocab((tokens for tokens, _ in examples), min_count=5)
print(f"{len(examples)} tweets, vocabulary of {len(vocab)} tokens")

model, losses = train(training, vocab, OoweConfig(categories=2, epochs=6, seed=1))
print("epoch losses:", " ".join(f"{v:.4f}" for v in losses))


def embedding_rows(tokens):
    return np.vstack([model.embeddings[vocab.index[t]] for t in tokens if t in vocab])


def mean_cosine(a, b, within):
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    sims = a @ b.T
    if within:
        iu = np.triu_indices(len(a), 1)
        return float(sims[iu].mean())
    return float(sims.mean())


lex0 = embedding_rows(corpus.lexicons[0])
lex1 = embedding_rows(corpus.lexicons[1])
within = 0.5 * (mean_cosine(lex0, lex0, True) + mean_cosine(lex1, lex1, True))
cross = mean_cosine(lex0, lex1, False)
print(f"planted-lexicon cosine: within={within:.3f} cross={cross:.3f} margin={within - cross:.3f}")

tags = (
    [config.seed_hashtags[0]] + corpus.cooc_hashtags[0]
    + [config.seed_hashtags[1]] + corpus.cooc_hashtags[1]
)
sides = ["side0"] * (1 + len(corpus.cooc_hashtags[0])) + ["side1"] * (1 + len(corpus.cooc_hashtags[1]))
coords = classical_mds(pairwise_euclidean(embedding_rows(tags)), 2)
svg = plot_scatter(
    coords.tolist(),
    [{"id": t, "class": s} for t, s in zip(tags, sides)],
    title="planted hashtags in the learned opinion space",
)
(OUT / "hashtag_space.svg").write_text(svg)
print(f"wrote {OUT / 'hashtag_space.svg'}")
