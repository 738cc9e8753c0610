"""Spans around relop's public functions, and the per-layer metrics they give.

The tracer replaces a function with a wrapper in the namespace its callers
look it up in (``relop.pipeline`` imports the ingest functions by name,
``relop.lnp`` imports the manifold functions by name, everything else goes
through module attributes). Each call records one span: name, start, end
and parent. Spans stay in memory until the round ends; a layer's self time
is its spans' time minus the time of their child spans.

Functions that only read or write artifacts are left unwrapped, so their
time is the pipeline's own (``pipeline.self_s``). The synth and plot stages
are timed only as whole stages.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from perfbench.workloads import CHAIN_STAGES

# (module path where callers look the name up, attribute, span name)
SPANS = (
    ("relop.pipeline", "parse_posts", "ingest.parse_posts"),
    ("relop.pipeline", "filter_relevant", "ingest.filter_relevant"),
    ("relop.pipeline", "filter_bots", "ingest.filter_bots"),
    ("relop.pipeline", "infer_state", "ingest.infer_state"),
    ("relop.pipeline", "tokenize", "ingest.tokenize"),
    ("relop.pipeline", "content_tokens", "ingest.content_tokens"),
    ("relop.pipeline", "build_vocab", "ingest.build_vocab"),
    ("relop.ingest", "tokenize", "ingest.tokenize"),
    ("relop.hashtags", "build_cooccurrence", "hashtags.build_cooccurrence"),
    ("relop.hashtags", "significance_filter", "hashtags.significance_filter"),
    ("relop.hashtags", "propagate_hashtag_labels", "hashtags.propagate_labels"),
    ("relop.hashtags", "prune_labels", "hashtags.prune_labels"),
    ("relop.hashtags", "label_tweets", "hashtags.label_tweets"),
    ("relop.oowe", "train", "oowe.train"),
    ("relop.aggregate", "aggregate_corpus", "aggregate.aggregate_corpus"),
    ("relop.aggregate", "state_summaries", "aggregate.state_summaries"),
    ("relop.lnp", "predict", "lnp.predict"),
    ("relop.lnp", "sensitivity_sweep", "lnp.sensitivity_sweep"),
    ("relop.lnp", "reconstruction_weights", "lnp.reconstruction_weights"),
    ("relop.lnp", "propagate", "lnp.propagate"),
    ("relop.lnp", "unfold", "lnp.unfold"),
    ("relop.lnp", "lle_embedding", "lnp.lle_embedding"),
    ("relop.lnp", "sweep_medians", "lnp.sweep_medians"),
    ("relop.lnp", "geodesic_distances", "manifold.geodesic_distances"),
    ("relop.lnp", "smacof_mds", "manifold.smacof_mds"),
    ("relop.lnp", "pairwise_euclidean", "manifold.pairwise_euclidean"),
    ("relop.manifold", "geodesic_distances", "manifold.geodesic_distances"),
    ("relop.manifold", "smacof_mds", "manifold.smacof_mds"),
    ("relop.manifold", "pairwise_euclidean", "manifold.pairwise_euclidean"),
    ("relop.manifold", "classical_mds", "manifold.classical_mds"),
    ("relop.manifold", "neighborhood_preservation", "manifold.neighborhood_preservation"),
    ("relop.manifold", "stress_measure", "manifold.stress_measure"),
    ("relop.manifold", "pne", "manifold.pne"),
)
# calls counted without a span: (module, attribute, counter, layer the caller must be in)
COUNTERS = (
    ("relop.hashtags", "edge_pvalue", "hashtags.edges_tested", None),
    ("relop.oowe", "corrupt", "oowe.window_visits", None),
    ("numpy.linalg", "solve", "lnp.solve_calls", "lnp"),
)
# counts taken from a traced call's result
RESULT_COUNTS = {
    "ingest.parse_posts": ("ingest.posts", lambda r: len(r[0])),
    "lnp.reconstruction_weights": ("lnp.weight_rows", lambda r: r.indices.shape[0]),
    "manifold.smacof_mds": ("manifold.smacof_iters", lambda r: len(r[1]) - 1),
}
# stages whose whole time is their own metric, outside pipeline.self_s
UNTRACED_STAGES = ("synth", "plot")
LAYERS = ("ingest", "hashtags", "oowe", "aggregate", "lnp", "manifold")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent
        self.stack: list[tuple[int, str]] = [(-1, "")]  # open (span id, layer)
        self.next_id = 0
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, int, int]:
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0]
        self.stack.append((span_id, name.partition(".")[0]))
        return span_id, parent, time.perf_counter_ns()

    def _close(self, name: str, span_id: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append((span_id, name, start, end, parent))

    def run_span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span_id, parent, start = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, span_id, parent, start)

    def _span_wrapper(self, fn, name: str):
        on_result = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            span_id, parent, start = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, span_id, parent, start)
            if on_result is not None:
                self.counts[on_result[0]] += on_result[1](result)
            return result

        return wrapper

    def _count_wrapper(self, fn, counter: str, layer):
        counts, stack = self.counts, self.stack

        def wrapper(*args, **kwargs):
            if layer is None or stack[-1][1] == layer:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        import importlib

        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._span_wrapper(getattr(module, attr), name))
        for module_name, attr, counter, layer in COUNTERS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, self._count_wrapper(getattr(module, attr), counter, layer))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one round, in seconds, counts and us."""
        child = defaultdict(int)
        for _, _, start, end, parent in self.spans:
            child[parent] += end - start
        total = Counter()  # inclusive ns per span name
        calls = Counter()
        self_ns = Counter()  # self ns per layer; pipeline = stage spans
        for span_id, name, start, end, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            layer, _, rest = name.partition(".")
            own = end - start - child[span_id]
            if layer == "stage":
                if rest not in UNTRACED_STAGES:
                    self_ns["pipeline"] += own
            else:
                self_ns[layer] += own

        def sec(name: str) -> float:
            return total[name] / 1e9

        def per(numerator_s: float, count: float) -> float:
            return numerator_s * 1e6 / count if count else 0.0

        c = self.counts
        out = {f"stage.{s}_s": sec(f"stage.{s}") for s in CHAIN_STAGES}
        out["pipeline.self_s"] = self_ns["pipeline"] / 1e9
        out.update({f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS})
        out.update({
            "ingest.parse_posts_s": sec("ingest.parse_posts"),
            "ingest.filter_relevant_s": sec("ingest.filter_relevant"),
            "ingest.infer_state_s": sec("ingest.infer_state"),
            "ingest.tokenize_calls": calls["ingest.tokenize"],
            "ingest.tokenize_per_post": (calls["ingest.tokenize"] / c["ingest.posts"]
                                         if c["ingest.posts"] else 0.0),
            "hashtags.build_cooccurrence_s": sec("hashtags.build_cooccurrence"),
            "hashtags.significance_filter_s": sec("hashtags.significance_filter"),
            "hashtags.edges_tested": c["hashtags.edges_tested"],
            "hashtags.edge_us": per(sec("hashtags.significance_filter"),
                                    c["hashtags.edges_tested"]),
            "hashtags.propagate_labels_s": sec("hashtags.propagate_labels"),
            "hashtags.label_tweets_s": sec("hashtags.label_tweets"),
            "oowe.train_s": sec("oowe.train"),
            "oowe.window_visits": c["oowe.window_visits"],
            "oowe.window_us": per(sec("oowe.train"), c["oowe.window_visits"]),
            "aggregate.aggregate_corpus_s": sec("aggregate.aggregate_corpus"),
            "lnp.reconstruction_weights_s": sec("lnp.reconstruction_weights"),
            "lnp.weight_rows": c["lnp.weight_rows"],
            "lnp.row_us": per(sec("lnp.reconstruction_weights"), c["lnp.weight_rows"]),
            "lnp.solve_calls": c["lnp.solve_calls"],
            "lnp.propagate_s": sec("lnp.propagate"),
            "lnp.propagate_calls": calls["lnp.propagate"],
            "lnp.lle_embedding_s": sec("lnp.lle_embedding"),
            "manifold.quality_s": sec("manifold.neighborhood_preservation")
            + sec("manifold.stress_measure") + sec("manifold.pne"),
            "manifold.geodesic_distances_s": sec("manifold.geodesic_distances"),
            "manifold.geodesic_calls": calls["manifold.geodesic_distances"],
            "manifold.smacof_s": sec("manifold.smacof_mds"),
            "manifold.smacof_calls": calls["manifold.smacof_mds"],
            "manifold.smacof_iters": c["manifold.smacof_iters"],
            "trace.spans": len(self.spans),
        })
        return out
