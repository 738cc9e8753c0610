"""From raw posts to opinion-labeled hashtags and a training set.

Generates a planted two-sided corpus, builds the hashtag co-occurrence
network, keeps only statistically significant edges, spreads the four seed
labels by majority vote, prunes rare stragglers, and finally buckets every
tweet into an opinion category.
"""

from pathlib import Path

import numpy as np

from relop.hashtags import (
    OpinionLabel,
    build_cooccurrence,
    label_tweets,
    propagate_hashtag_labels,
    prune_labels,
    significance_filter,
)
from relop.ingest import content_tokens, tokenize
from relop.synth import SynthCorpusConfig, gen_opinion_corpus

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

config = SynthCorpusConfig(tweets_per_class=500, mixed_rate=0.02, seed=11)
corpus = gen_opinion_corpus(config)
tweets = [content_tokens(tokenize(p.text)) for p in corpus.posts]
print(f"corpus: {len(tweets)} tweets, planted sides with seeds {config.seed_hashtags}")

graph = build_cooccurrence(tweets)
print(f"co-occurrence graph: {len(graph.counts)} hashtags, {len(graph.edges)} edges")

filtered = significance_filter(graph, p_o=1e-6)
print(f"significant edges at p_o=1e-6: {len(filtered.edges)}")
for key, edge in sorted(filtered.edges.items(), key=lambda kv: -kv[1].s)[:5]:
    print(f"  {edge.i} -- {edge.j}: k={edge.k}, p={edge.p:.2e}, s={edge.s:.1f}")

seeds = {
    config.seed_hashtags[0]: OpinionLabel.PRO_TRUMP,
    config.seed_hashtags[1]: OpinionLabel.PRO_CLINTON,
}
labels = propagate_hashtag_labels(filtered, seeds, np.random.default_rng(0))
labels = prune_labels(labels, filtered.counts, r=0.001)
print(f"\nlabeled hashtags after pruning ({len(labels)}):")
for tag in sorted(labels):
    print(f"  {tag:14s} {labels[tag].value:12s} n={filtered.counts[tag]}")

training = label_tweets(tweets, labels)
print("\ntweet categories:")
for name, count in sorted(training.category_counts.items(), key=lambda kv: -kv[1]):
    if count:
        print(f"  {name:14s} {count}")
print(f"training examples (clear categories only): {len(training.examples)}")

with open(OUT / "hashtag_labels.csv", "w") as fh:
    fh.write("hashtag,label,n\n")
    for tag in sorted(labels):
        fh.write(f"{tag},{labels[tag].value},{filtered.counts[tag]}\n")
print(f"\nwrote {OUT / 'hashtag_labels.csv'}")
