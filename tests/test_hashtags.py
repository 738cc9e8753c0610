import itertools
import math
from collections import Counter

import numpy as np
import pytest

from relop.hashtags import (
    DEFAULT_SEEDS,
    OpinionLabel,
    build_cooccurrence,
    classify_tweet,
    edge_pvalue,
    label_tweets,
    propagate_hashtag_labels,
    prune_labels,
    read_label_map,
    read_seeds,
    read_training_set,
    significance_filter,
    write_label_map,
    write_training_set,
)
from relop.pipeline import data_path
from relop.synth import hypergeom_pmf


class TestCooccurrence:
    def test_direct_counts(self):
        graph = build_cooccurrence([["#a", "#b"], ["#a"]])
        assert graph.counts == {"#a": 2, "#b": 1}
        assert graph.edges[("#a", "#b")].k == 1
        assert graph.n_tweets == 2

    def test_within_tweet_dedup(self):
        graph = build_cooccurrence([["#a", "#a", "#b"]])
        assert graph.counts["#a"] == 1
        assert graph.edges[("#a", "#b")].k == 1

    def test_non_hashtags_ignored(self):
        graph = build_cooccurrence([["word", "#a", "@m"]])
        assert set(graph.counts) == {"#a"}

    def test_against_brute_force_pair_counter(self):
        """400 random tweets mixing words, mentions and repeated hashtags
        versus a count of every hashtag pair, tweet by tweet."""
        rng = np.random.default_rng(17)
        pool = [f"#t{i}" for i in range(12)] + ["word", "@m", "t3", "#"]
        tweets = [[pool[i] for i in rng.integers(0, len(pool), rng.integers(0, 9))]
                  for _ in range(400)]
        graph = build_cooccurrence(tweets)
        tags = sorted({t for tweet in tweets for t in tweet if t.startswith("#")})
        for a, b in itertools.combinations(tags, 2):
            k = sum(a in tweet and b in tweet for tweet in tweets)
            edge = graph.edges.get((a, b))
            assert (edge.k if edge else 0) == k
            if edge:
                assert (edge.i, edge.j, edge.p, edge.s) == (a, b, 1.0, 0.0)
        assert graph.counts == {tag: sum(tag in tweet for tweet in tweets) for tag in tags}
        assert graph.n_tweets == 400


class TestEdgePvalue:
    def test_zero_occurrences_gives_one(self):
        assert edge_pvalue(0, 5, 0, 10) == 1.0

    def test_hand_case(self):
        # C(3,1) C(7,1) / C(10,2) = 21/45
        assert edge_pvalue(3, 2, 1, 10) == pytest.approx(21.0 / 45.0, rel=1e-12)

    def test_large_balanced_case(self):
        want = hypergeom_pmf(100, 50, 50, 50)
        assert edge_pvalue(50, 50, 50, 100) == pytest.approx(want, rel=1e-9)

    def test_grid_equivalence_small(self):
        # the full N<=60 sweep lives in the acceptance suite
        for total in range(1, 26):
            for n_i in range(total + 1):
                for n_j in range(total + 1):
                    for k in range(min(n_i, n_j) + 1):
                        want = hypergeom_pmf(total, n_i, n_j, k)
                        got = edge_pvalue(n_i, n_j, k, total)
                        if want == 0.0:
                            assert got <= 1e-12
                        else:
                            assert got == pytest.approx(want, rel=1e-9)

    def test_argument_violations(self):
        with pytest.raises(ValueError):
            edge_pvalue(3, 2, 3, 10)
        with pytest.raises(ValueError):
            edge_pvalue(11, 2, 1, 10)


class TestSignificanceFilter:
    def test_insignificant_edge_dropped(self):
        # a 1-of-1 co-occurrence among frequent tags is pure chance
        tweets = [["#a", "#b"]] + [["#a"]] * 5 + [["#b"]] * 5
        graph = build_cooccurrence(tweets)
        filtered = significance_filter(graph, 1e-6)
        assert filtered.edges == {}
        assert set(filtered.counts) == {"#a", "#b"}  # vertices survive

    def test_weight_formula(self):
        tweets = [["#a", "#b"]] * 40 + [["#c"]] * 400
        graph = build_cooccurrence(tweets)
        filtered = significance_filter(graph, 1e-6)
        edge = filtered.edges[("#a", "#b")]
        assert edge.p < 1e-6
        assert edge.s == pytest.approx(math.log(1e-6 / edge.p), rel=1e-12)
        assert edge.s >= 0.0

    def test_tenfold_margin_is_ln_ten(self):
        # analytic identity used by the weight: s = ln(p_o/p)
        assert math.log(1e-6 / 1e-7) == pytest.approx(2.302585093, abs=1e-9)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(5)
        tweets = [sorted({f"#t{rng.integers(12)}" for _ in range(rng.integers(1, 5))}) for _ in range(400)]
        graph = build_cooccurrence(tweets)
        loose = set(significance_filter(graph, 1e-3).edges)
        tight = set(significance_filter(graph, 1e-9).edges)
        assert tight <= loose


def star_graph(center="#maga", leaves=8):
    tweets = [[center, f"#leaf{i}"] for i in range(leaves)] * 30
    tweets += [["#noise"]] * 300
    return build_cooccurrence(tweets)


class TestLabelPropagation:
    def test_star_adopts_center_label(self):
        graph = significance_filter(star_graph(), 1e-6)
        labels = propagate_hashtag_labels(
            graph, {"#maga": OpinionLabel.PRO_TRUMP}, np.random.default_rng(0)
        )
        for leaf in range(8):
            assert labels[f"#leaf{leaf}"] == OpinionLabel.PRO_TRUMP

    def test_seeds_never_relabeled(self):
        graph = significance_filter(star_graph(), 1e-6)
        seeds = {"#maga": OpinionLabel.PRO_TRUMP, "#leaf0": OpinionLabel.PRO_CLINTON}
        labels = propagate_hashtag_labels(graph, seeds, np.random.default_rng(1))
        assert labels["#maga"] == OpinionLabel.PRO_TRUMP
        assert labels["#leaf0"] == OpinionLabel.PRO_CLINTON

    def test_labels_reachable_from_seeds(self):
        graph = significance_filter(star_graph(), 1e-6)
        labels = propagate_hashtag_labels(
            graph, {"#maga": OpinionLabel.PRO_TRUMP}, np.random.default_rng(2)
        )
        adjacency = graph.neighbors()
        reachable = {"#maga"}
        frontier = ["#maga"]
        while frontier:
            node = frontier.pop()
            for nb in adjacency[node]:
                if nb not in reachable:
                    reachable.add(nb)
                    frontier.append(nb)
        assert set(labels) <= reachable
        assert "#noise" not in labels  # isolated vertices stay unlabeled

    def test_two_cliques_planted_partition(self):
        """Each clique should take its own seed's label almost always."""
        tweets = []
        for base, size in (("a", 10), ("b", 10)):
            for i, j in itertools.combinations(range(size), 2):
                tweets.extend([[f"#{base}{i}", f"#{base}{j}"]] * 8)
        tweets.extend([["#a0", "#b0"]])  # single weak bridge
        tweets.extend([["#pad"]] * 20000)
        graph = significance_filter(build_cooccurrence(tweets), 1e-6)
        assert ("#a0", "#b0") not in graph.edges
        seeds = {"#a0": OpinionLabel.PRO_TRUMP, "#b0": OpinionLabel.PRO_CLINTON}
        hits = total = 0
        for seed in range(50):
            labels = propagate_hashtag_labels(graph, seeds, np.random.default_rng(seed))
            for i in range(1, 10):
                total += 2
                hits += labels.get(f"#a{i}") == OpinionLabel.PRO_TRUMP
                hits += labels.get(f"#b{i}") == OpinionLabel.PRO_CLINTON
        assert hits / total >= 0.95

    def test_weighted_variant_follows_strong_edges(self):
        """Optional mode: votes carry the significance weight, so one strong
        neighbor can outvote two weak ones."""
        from relop.hashtags import CoocEdge, HashtagGraph

        graph = HashtagGraph(
            counts={"#mid": 5, "#a": 5, "#b": 5, "#c": 5},
            edges={
                ("#a", "#mid"): CoocEdge("#a", "#mid", 3, 1e-9, 5.0),
                ("#b", "#mid"): CoocEdge("#b", "#mid", 3, 1e-7, 1.0),
                ("#c", "#mid"): CoocEdge("#c", "#mid", 3, 1e-7, 1.0),
            },
            n_tweets=20,
        )
        seeds = {
            "#a": OpinionLabel.PRO_TRUMP,
            "#b": OpinionLabel.PRO_CLINTON,
            "#c": OpinionLabel.PRO_CLINTON,
        }
        plain = propagate_hashtag_labels(graph, seeds, np.random.default_rng(0))
        heavy = propagate_hashtag_labels(graph, seeds, np.random.default_rng(0), weighted=True)
        assert plain["#mid"] == OpinionLabel.PRO_CLINTON  # two neighbors beat one
        assert heavy["#mid"] == OpinionLabel.PRO_TRUMP    # weight 5 beats 1+1

    def test_spreads_past_a_vertex_labeled_late_in_the_sweep(self):
        """On a seed-a-b path, b's only neighbor a may be labeled after b was
        visited in the same sweep; spreading must still reach b."""
        from relop.hashtags import CoocEdge, HashtagGraph

        graph = HashtagGraph(
            counts={"#seed": 5, "#a": 5, "#b": 5},
            edges={
                ("#a", "#seed"): CoocEdge("#a", "#seed", 3, 1e-9, 1.0),
                ("#a", "#b"): CoocEdge("#a", "#b", 3, 1e-9, 1.0),
            },
            n_tweets=20,
        )
        seeds = {"#seed": OpinionLabel.PRO_TRUMP}
        for seed in range(40):
            labels = propagate_hashtag_labels(graph, seeds, np.random.default_rng(seed))
            assert labels == dict.fromkeys(("#seed", "#a", "#b"), OpinionLabel.PRO_TRUMP)

    def test_tally_reports_sweeps_and_the_fixed_point(self):
        """On the seed-a-b path one sweep settles only when a is visited
        before b; otherwise a second sweep reaches the fixed point."""
        from relop.hashtags import CoocEdge, HashtagGraph

        graph = HashtagGraph(
            counts={"#seed": 5, "#a": 5, "#b": 5},
            edges={
                ("#a", "#seed"): CoocEdge("#a", "#seed", 3, 1e-9, 1.0),
                ("#a", "#b"): CoocEdge("#a", "#b", 3, 1e-9, 1.0),
            },
            n_tweets=20,
        )
        seeds = {"#seed": OpinionLabel.PRO_TRUMP}
        outcomes = set()
        for seed in range(40):
            capped, full = Counter(), Counter()
            labels = propagate_hashtag_labels(
                graph, seeds, np.random.default_rng(seed), max_sweeps=1, tally=capped
            )
            propagate_hashtag_labels(graph, seeds, np.random.default_rng(seed), tally=full)
            assert capped == {"lpa_sweeps": 1, "lpa_settled": "#b" in labels}
            assert full == {"lpa_sweeps": 1 if capped["lpa_settled"] else 2, "lpa_settled": True}
            outcomes.add(capped["lpa_settled"])
        assert outcomes == {True, False}

    def test_tie_breaks_uniformly(self):
        """A vertex with equal-count neighbors lands ~50/50 over many seeds."""
        tweets = [["#left", "#mid"]] * 40 + [["#right", "#mid"]] * 40 + [["#pad"]] * 400
        graph = significance_filter(build_cooccurrence(tweets), 1e-6)
        assert ("#left", "#mid") in graph.edges and ("#mid", "#right") in graph.edges
        seeds = {
            "#left": OpinionLabel.PRO_TRUMP,
            "#right": OpinionLabel.PRO_CLINTON,
        }
        outcomes = Counter()
        for seed in range(1000):
            labels = propagate_hashtag_labels(graph, seeds, np.random.default_rng(seed))
            outcomes[labels["#mid"]] += 1
        share = outcomes[OpinionLabel.PRO_TRUMP] / 1000
        assert 0.45 <= share <= 0.55


class TestPruneLabels:
    def test_boundary_arithmetic(self):
        labels = {
            "#big": OpinionLabel.PRO_TRUMP,
            "#low": OpinionLabel.PRO_TRUMP,
            "#ok": OpinionLabel.PRO_TRUMP,
        }
        counts = {"#big": 10000, "#low": 10, "#ok": 11}
        pruned = prune_labels(labels, counts, r=0.001)
        assert "#low" not in pruned and "#ok" in pruned and "#big" in pruned

    def test_singleton_class_survives(self):
        labels = {"#only": OpinionLabel.ANTI_CLINTON}
        assert prune_labels(labels, {"#only": 3}, r=0.5) == labels

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        all_labels = list(OpinionLabel)[:4]
        labels = {f"#t{i}": all_labels[int(rng.integers(4))] for i in range(60)}
        counts = {tag: int(rng.integers(1, 5000)) for tag in labels}
        r = 0.01
        expected = {}
        for tag, lab in labels.items():
            class_max = max(counts[t] for t, l in labels.items() if l == lab)
            if counts[tag] > r * class_max:
                expected[tag] = lab
        assert prune_labels(labels, counts, r) == expected


LABELS = {
    "#maga": OpinionLabel.PRO_TRUMP,
    "#neverhillary": OpinionLabel.ANTI_CLINTON,
    "#imwithher": OpinionLabel.PRO_CLINTON,
    "#nevertrump": OpinionLabel.ANTI_TRUMP,
}


class TestTweetLabeling:
    def test_strict_majority(self):
        assert classify_tweet(["#maga", "#maga", "#neverhillary"], LABELS) == OpinionLabel.PRO_TRUMP

    def test_support_pair(self):
        assert classify_tweet(["#maga", "#neverhillary"], LABELS) == OpinionLabel.SUPPORT_TRUMP
        assert classify_tweet(["#imwithher", "#nevertrump"], LABELS) == OpinionLabel.SUPPORT_CLINTON

    def test_cross_side_mixed(self):
        assert classify_tweet(["#maga", "#imwithher"], LABELS) == OpinionLabel.MIXED

    def test_no_labeled_hashtags(self):
        assert classify_tweet(["#other"], LABELS) == OpinionLabel.UNIDENTIFIED
        assert classify_tweet([], LABELS) == OpinionLabel.UNIDENTIFIED

    def test_three_way_tie_across_sides_is_mixed(self):
        tags = ["#maga", "#neverhillary", "#imwithher"]
        assert classify_tweet(tags, LABELS) == OpinionLabel.MIXED

    def test_agrees_with_the_tie_rules_on_random_tweets(self):
        """Single-label tweets (the shortcut) and multi-label tweets versus
        the rules written out: a unique leader wins, a tie of one side's two
        labels is that side's Support, any other tie is Mixed."""
        opinions = (OpinionLabel.PRO_TRUMP, OpinionLabel.ANTI_CLINTON,
                    OpinionLabel.PRO_CLINTON, OpinionLabel.ANTI_TRUMP)
        labels = {f"#{lab.value}{i}": lab for lab in opinions for i in range(2)}
        support = {
            frozenset(opinions[:2]): OpinionLabel.SUPPORT_TRUMP,
            frozenset(opinions[2:]): OpinionLabel.SUPPORT_CLINTON,
        }

        def rules(tags):
            tally = Counter(labels[t] for t in tags if t in labels)
            if not tally:
                return OpinionLabel.UNIDENTIFIED
            top = max(tally.values())
            leaders = frozenset(lab for lab, c in tally.items() if c == top)
            if len(leaders) == 1:
                return next(iter(leaders))
            return support.get(leaders, OpinionLabel.MIXED)

        rng = np.random.default_rng(21)
        seen = set()
        for _ in range(2000):
            kinds = rng.choice(sorted(labels), size=rng.integers(1, 4), replace=False)
            tags = [str(t) for t in rng.choice([*kinds, "#other", "#x"], size=rng.integers(0, 7))]
            expected = rules(tags)
            seen.add(expected)
            assert classify_tweet(tags, labels) == expected, tags
            assert classify_tweet(iter(tags), labels) == expected, tags
        assert seen == set(OpinionLabel)

    def test_training_set_excludes_ambiguous(self):
        corpus = [
            ["#maga", "rally"],
            ["#maga", "#imwithher"],
            ["nothing"],
            ["#imwithher", "#nevertrump", "go"],
        ]
        training = label_tweets(corpus, LABELS)
        assert len(training.examples) == 2
        assert sum(training.category_counts.values()) == len(corpus)
        assert training.category_counts["mixed"] == 1
        assert training.category_counts["unidentified"] == 1

    def test_labeled_hashtags_removed_from_tokens(self):
        training = label_tweets([["#maga", "rally", "#other"]], LABELS)
        tokens, category = training.examples[0]
        assert tokens == ["rally", "#other"]
        assert training.categories[category - 1] == "pro_trump"

    def test_counts_sum_is_pure_function(self):
        rng = np.random.default_rng(3)
        pool = list(LABELS) + ["#x", "#y", "word"]
        corpus = [
            [pool[int(rng.integers(len(pool)))] for _ in range(rng.integers(1, 5))]
            for _ in range(300)
        ]
        t1 = label_tweets(corpus, LABELS)
        t2 = label_tweets(corpus, LABELS)
        assert t1.examples == t2.examples
        assert sum(t1.category_counts.values()) == 300


class TestSerialization:
    def test_label_map_roundtrip(self, tmp_path):
        counts = {"#maga": 100, "#x": 5}
        labels = {"#maga": OpinionLabel.PRO_TRUMP, "#x": OpinionLabel.ANTI_TRUMP}
        path = tmp_path / "labels.csv"
        write_label_map(path, labels, counts)
        got_labels, got_counts = read_label_map(path)
        assert got_labels == labels and got_counts == counts

    def test_label_map_quotes_a_hashtag_with_a_comma(self, tmp_path):
        # the tokenizer keeps "#maga,#trump2016" as one hashtag
        labels = {"#maga,#trump2016": OpinionLabel.PRO_TRUMP, "#x": OpinionLabel.ANTI_TRUMP}
        counts = {"#maga,#trump2016": 3, "#x": 5}
        path = tmp_path / "labels.csv"
        write_label_map(path, labels, counts)
        assert '"#maga,#trump2016",pro_trump,3' in path.read_text().splitlines()
        assert read_label_map(path) == (labels, counts)

    def test_training_set_roundtrip(self, tmp_path):
        training = label_tweets([["#maga", "rally", "tonight"]], LABELS)
        path = tmp_path / "train.tsv"
        write_training_set(path, training)
        loaded = read_training_set(path)
        assert loaded.examples == training.examples
        assert path.read_text().startswith("pro_trump\trally tonight")

    def test_packaged_seed_file(self):
        seeds = read_seeds(data_path("seeds.csv"))
        assert seeds == DEFAULT_SEEDS
