import math
from fractions import Fraction

import numpy as np
import pytest

from relop.ingest import parse_posts
from relop.synth import (
    ManifoldSample,
    SynthCorpusConfig,
    _spiral_arc_length,
    brute_force_lnp_weights,
    corpus_to_jsonl,
    finite_diff_grads,
    gen_manifold,
    gen_opinion_corpus,
    harmonic_iterate,
    hypergeom_pmf,
    procrustes_residual,
)


class TestOpinionCorpus:
    def test_minimal_two_class_config(self):
        corpus = gen_opinion_corpus(SynthCorpusConfig(tweets_per_class=20, users_per_class=4))
        assert len(corpus.posts) == 40
        assert set(corpus.tweet_classes) == {0, 1}
        assert set(corpus.user_classes.values()) == {0, 1}

    def test_seed_determinism(self):
        cfg = SynthCorpusConfig(tweets_per_class=30, seed=5)
        a = gen_opinion_corpus(cfg)
        b = gen_opinion_corpus(cfg)
        assert corpus_to_jsonl(a) == corpus_to_jsonl(b)
        assert corpus_to_jsonl(a) != corpus_to_jsonl(
            gen_opinion_corpus(SynthCorpusConfig(tweets_per_class=30, seed=6))
        )

    def test_jsonl_round_trips_through_parser(self):
        corpus = gen_opinion_corpus(SynthCorpusConfig(tweets_per_class=10))
        posts, skipped = parse_posts(corpus_to_jsonl(corpus).splitlines())
        assert skipped == 0
        assert len(posts) == len(corpus.posts)
        assert posts[0] == corpus.posts[0]

    def test_bot_fraction(self):
        cfg = SynthCorpusConfig(tweets_per_class=300, bot_fraction=0.25, seed=1)
        corpus = gen_opinion_corpus(cfg)
        bots = sum(1 for p in corpus.posts if p.client == cfg.bot_client)
        assert 0.18 < bots / len(corpus.posts) < 0.32

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthCorpusConfig(classes=3)  # needs three seed hashtags
        with pytest.raises(ValueError):
            SynthCorpusConfig(tweets_per_class=0)


class TestManifoldGenerators:
    def test_noise_free_swiss_roll_lies_on_surface(self):
        sample = gen_manifold("swiss_roll", 100, noise=0.0, seed=0)
        x, y, z = sample.points.T
        t = np.sqrt(x * x + z * z)
        np.testing.assert_allclose(x, t * np.cos(t), atol=1e-9)
        np.testing.assert_allclose(z, t * np.sin(t), atol=1e-9)
        np.testing.assert_allclose(sample.intrinsic[:, 0], _spiral_arc_length(t), atol=1e-9)
        np.testing.assert_allclose(sample.intrinsic[:, 1], y, atol=1e-12)

    def test_far_blobs_are_linearly_separable(self):
        sample = gen_manifold("blobs", 200, noise=1.0, seed=1)
        projection = sample.points[:, 0]  # centers differ along axis 0 by 10 sigma
        left = projection[sample.classes == 0]
        right = projection[sample.classes == 1]
        assert left.max() < right.min()

    def test_two_moons_classes_balanced(self):
        sample = gen_manifold("two_moons", 101, noise=0.05, seed=2)
        assert sample.points.shape == (101, 2)
        assert {0, 1} == set(sample.classes.tolist())
        assert abs(int((sample.classes == 0).sum()) - 50) <= 1

    def test_seed_determinism(self):
        a = gen_manifold("two_moons", 50, noise=0.1, seed=9)
        b = gen_manifold("two_moons", 50, noise=0.1, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.classes, b.classes)

    def test_minimum_size_and_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_manifold("two_moons", 5)
        with pytest.raises(ValueError):
            gen_manifold("klein_bottle", 50)


class TestHypergeomOracle:
    def test_hand_count(self):
        # one marked ball of two, draw one: P(hit) = 1/2
        assert hypergeom_pmf(2, 1, 1, 1) == pytest.approx(0.5)

    def test_sums_to_one(self):
        for total, n_i, n_j in ((20, 7, 11), (33, 20, 5), (10, 10, 3)):
            acc = sum(hypergeom_pmf(total, n_i, n_j, k) for k in range(n_j + 1))
            assert acc == pytest.approx(1.0, rel=1e-12)

    def test_exact_fraction_agrees(self):
        value = Fraction(math.comb(12, 4) * math.comb(18, 5), math.comb(30, 9))
        assert float(value) == pytest.approx(hypergeom_pmf(30, 12, 9, 4), rel=1e-15)

    def test_out_of_support_is_zero(self):
        assert hypergeom_pmf(10, 9, 9, 0) == 0.0  # 18 occurrences force overlap


class TestFiniteDifferences:
    def test_zero_at_loss_plateau(self):
        from relop.oowe import OoweModel

        model = OoweModel(
            embeddings=np.array([[2.0], [2.0], [0.5], [-1.5]]),
            w1=np.full((1, 3), 0.2),
            b1=np.zeros(1),
            w2=np.array([[2.0], [3.0], [-3.0]]),
            b2=np.zeros(3),
            window=3,
        )
        grads = finite_diff_grads(model, np.array([1, 0, 2]), np.array([1, 3, 2]), 1, 0.5)
        assert np.abs(grads.w1).max() < 1e-10
        assert all(np.abs(row).max() < 1e-10 for row in grads.embed_rows.values())

    def test_central_difference_is_exact_on_linear_regions(self):
        """Away from kinks the loss is locally linear in each parameter, so
        the O(eps^2) truncation term vanishes and only rounding remains."""
        from relop.oowe import OoweConfig, gradients, init_model

        rng = np.random.default_rng(3)
        model = init_model(8, OoweConfig(window=3, embed_dim=3, hidden_dim=2, categories=2), rng)
        model.w1 += 0.3
        model.w2 += 0.4
        model.embeddings += 0.2
        t, t_r = np.array([1, 2, 3]), np.array([1, 5, 3])
        numeric = finite_diff_grads(model, t, t_r, 1, 0.7)
        analytic = gradients(model, t, t_r, 1, 0.7)
        np.testing.assert_allclose(numeric.b2, analytic.b2, atol=1e-9)


class TestBruteForceWeights:
    def test_symmetric_pair(self):
        point = np.zeros(2)
        neighbors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(brute_force_lnp_weights(point, neighbors), [0.5, 0.5], atol=1e-8)

    def test_coincident_neighbor(self):
        point = np.array([2.0, 2.0])
        neighbors = np.array([[2.0, 2.0], [0.0, 0.0]])
        weights = brute_force_lnp_weights(point, neighbors)
        assert weights[0] == pytest.approx(1.0, abs=1e-7)

    def test_k3_grid_refinement(self):
        point = np.array([0.2, -0.1, 0.4])
        neighbors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        weights = brute_force_lnp_weights(point, neighbors, resolution=0.5)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        err = np.sum((point - weights @ neighbors) ** 2)
        for delta in np.eye(3)[:2] * 1e-4:
            w = weights + delta - np.array([0, 0, delta.sum()])
            assert np.sum((point - w @ neighbors) ** 2) >= err - 1e-12

    def test_k2_clamps_to_the_edge(self):
        """Beyond neighbor 0 the unconstrained optimum is w = (3, -2); over
        the simplex it is neighbor 0 alone."""
        neighbors = np.array([[1.0, 0.0], [0.0, 0.0]])
        weights = brute_force_lnp_weights(np.array([3.0, 0.0]), neighbors)
        np.testing.assert_allclose(weights, [1.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize(
        "point, expected",
        [
            ([1.0, 1.0, -1.0], [0.5, 0.5, 0.0]),  # optimum on an edge
            ([10.0, -5.0, -4.0], [1.0, 0.0, 0.0]),  # beyond the [-2, 3] grid
        ],
    )
    def test_k3_projects_onto_the_simplex(self, point, expected):
        """With the unit vectors as neighbors the weights are the Euclidean
        projection of the point onto the simplex."""
        weights = brute_force_lnp_weights(np.array(point), np.eye(3), resolution=0.5)
        np.testing.assert_allclose(weights, expected, atol=1e-7)

    def test_unsupported_k(self):
        with pytest.raises(ValueError):
            brute_force_lnp_weights(np.zeros(2), np.zeros((4, 2)))


class TestHarmonicSolve:
    def test_all_labeled_identity(self):
        indices = np.array([[1], [0]])
        weights = np.ones((2, 1))
        labels = harmonic_iterate(indices, weights, {0: 0, 1: 1}, 2)
        np.testing.assert_array_equal(labels, [[1.0, 0.0], [0.0, 1.0]])

    def test_single_unlabeled_is_convex_combination(self):
        indices = np.array([[1, 2], [0, 2], [0, 1]])
        weights = np.array([[0.3, 0.7], [0.5, 0.5], [0.5, 0.5]])
        labels = harmonic_iterate(indices, weights, {1: 0, 2: 1}, 2)
        np.testing.assert_allclose(labels[0], [0.3, 0.7], atol=1e-12)


class TestProcrustes:
    def test_rigid_motion_is_invisible(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((20, 3))
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        moved = pts @ rot.T + np.array([5.0, -2.0, 0.5])
        assert procrustes_residual(moved, pts) < 1e-12

    def test_detects_distortion(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((20, 3))
        warped = pts.copy()
        warped[:, 0] *= 3.0
        assert procrustes_residual(warped, pts) > 0.1

    def test_pads_dimension_mismatch(self):
        pts = np.random.default_rng(6).standard_normal((10, 2))
        lifted = np.hstack([pts, np.zeros((10, 2))])
        assert procrustes_residual(lifted, pts) < 1e-12
