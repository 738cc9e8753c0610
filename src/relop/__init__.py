"""relop: relative-opinion measurement from social-media text.

Builds an opinion-labeled corpus from hashtag co-occurrence statistics,
trains an opinion-oriented word embedding, aggregates it to user and
region level, and predicts discrete outcomes with linear neighborhood
propagation over the learned opinion manifold.
"""

__version__ = "0.1.0"

from .aggregate import (
    OpinionPoint,
    aggregate_corpus,
    exact_mean,
    representativeness,
    state_variation,
    state_vector,
    tweet_vector,
    user_vector,
)
from .hashtags import (
    HashtagGraph,
    OpinionLabel,
    TrainingSet,
    build_cooccurrence,
    classify_tweet,
    edge_pvalue,
    label_tweets,
    propagate_hashtag_labels,
    prune_labels,
    significance_filter,
)
from .ingest import (
    Gazetteer,
    Post,
    Token,
    Vocabulary,
    build_vocab,
    filter_bots,
    filter_relevant,
    infer_state,
    parse_posts,
    tokenize,
)
from .lnp import (
    WeightMatrix,
    evaluate_fixture,
    predict,
    propagate,
    reconstruction_weights,
    select_k,
    sensitivity_sweep,
    unfold,
)
from .manifold import (
    classical_mds,
    geodesic_distances,
    neighborhood_preservation,
    pairwise_euclidean,
    pne,
    smacof_mds,
    stress_measure,
)
from .oowe import OoweConfig, OoweModel, corrupt, forward, gradients, loss, train
