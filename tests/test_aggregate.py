import numpy as np
import pytest

from relop.aggregate import (
    OpinionPoint,
    aggregate_corpus,
    exact_mean,
    majority_state,
    read_points,
    representativeness,
    state_summaries,
    state_variation,
    state_vector,
    tweet_vector,
    user_vector,
    write_points,
)
from relop.ingest import build_vocab
from relop.oowe import OoweConfig, init_model


@pytest.fixture(scope="module")
def model_and_vocab():
    corpus = [[f"w{i}" for i in range(20)]] * 2
    vocab = build_vocab(corpus, min_count=1)
    rng = np.random.default_rng(0)
    model = init_model(len(vocab), OoweConfig(embed_dim=6, hidden_dim=3, categories=2), rng)
    model.embeddings += rng.standard_normal(model.embeddings.shape)
    return model, vocab


class TestTweetVector:
    def test_single_token(self, model_and_vocab):
        model, vocab = model_and_vocab
        vec = tweet_vector(model, vocab, ["w3"])
        np.testing.assert_array_equal(vec, model.embeddings[vocab.index["w3"]])

    def test_symmetric_cancellation(self):
        vocab = build_vocab([["up", "down"]], min_count=1)
        model = init_model(len(vocab), OoweConfig(embed_dim=3, hidden_dim=2, categories=2),
                           np.random.default_rng(1))
        model.embeddings[vocab.index["up"]] = [1.0, -2.0, 3.0]
        model.embeddings[vocab.index["down"]] = [-1.0, 2.0, -3.0]
        np.testing.assert_array_equal(tweet_vector(model, vocab, ["up", "down"]), np.zeros(3))

    def test_matches_brute_force_mean(self, model_and_vocab):
        model, vocab = model_and_vocab
        tokens = [f"w{i}" for i in (0, 3, 5, 5, 9, 12, 1, 7, 7, 7)]
        got = tweet_vector(model, vocab, tokens)
        want = sum(model.embeddings[vocab.index[t]] for t in tokens) / len(tokens)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_exclusions_and_oov(self, model_and_vocab):
        model, vocab = model_and_vocab
        assert tweet_vector(model, vocab, ["#labeled"], exclude={"#labeled"}) is None
        assert tweet_vector(model, vocab, ["unseen-token"]) is None
        vec = tweet_vector(model, vocab, ["w1", "#labeled", "unseen"], exclude={"#labeled"})
        np.testing.assert_array_equal(vec, model.embeddings[vocab.index["w1"]])


class TestParticipationControl:
    def test_single_tweet_user(self):
        v = np.array([0.5, -1.5])
        np.testing.assert_array_equal(user_vector([v]), v)

    def test_thousand_identical_tweets(self):
        v = np.array([0.123456789, -9.87654321, 3.0])
        np.testing.assert_array_equal(user_vector([v] * 1000), v)

    def test_state_unchanged_by_tweet_duplication(self):
        """Multiplying one user's tweets x10 must not move the state point
        at all: the user still contributes exactly one downstream point."""
        rng = np.random.default_rng(2)
        user_a = [rng.standard_normal(5) for _ in range(3)]
        user_b = [rng.standard_normal(5) for _ in range(7)]
        before = state_vector([user_vector(user_a), user_vector(user_b)])
        after = state_vector([user_vector(user_a * 10), user_vector(user_b)])
        assert before.tobytes() == after.tobytes()

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        vectors = [rng.standard_normal(4) for _ in range(11)]
        baseline = exact_mean(vectors)
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(len(vectors))
            assert exact_mean([vectors[i] for i in order]).tobytes() == baseline.tobytes()

    def test_nesting_counterexample(self):
        """State = mean of user means, which differs from the mean of all
        tweets when users post unequal volumes; the inequality pins the
        participation-control semantics."""
        heavy = [np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([1.0])]
        light = [np.array([-1.0])]
        by_user = state_vector([user_vector(heavy), user_vector(light)])
        by_tweet = exact_mean(heavy + light)
        assert by_user[0] == pytest.approx(0.0)
        assert by_tweet[0] == pytest.approx(0.6)
        assert abs(by_user[0] - by_tweet[0]) > 0.5

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            exact_mean([])


class TestStateVariation:
    def test_identical_users(self):
        v = np.array([1.0, 2.0])
        assert state_variation([v, v.copy(), v.copy()]) == 0.0

    def test_symmetric_pair_1d(self):
        assert state_variation([np.array([1.0]), np.array([-1.0])]) == pytest.approx(1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(4)
        users = [rng.standard_normal(6) for _ in range(20)]
        got = state_variation(users)
        stack = np.vstack(users)
        want = 0.0
        for dim in range(6):
            mean = sum(stack[:, dim]) / 20
            var = sum((x - mean) ** 2 for x in stack[:, dim]) / 20
            want += np.sqrt(var)
        want /= 6
        assert got == pytest.approx(want, abs=1e-10)


class TestRepresentativeness:
    def test_zero_users(self):
        assert representativeness(0, 1_000_000) == 0.0

    def test_simple_ratio(self):
        assert representativeness(100, 1_000_000) == pytest.approx(1e-4)

    def test_missing_population(self):
        assert representativeness(5, None) is None

    def test_nonpositive_population_rejected(self):
        with pytest.raises(ValueError):
            representativeness(5, 0)

    def test_summary_rows_match_spreadsheet(self):
        rng = np.random.default_rng(5)
        vectors = {"CA": [rng.standard_normal(3) for _ in range(4)],
                   "WY": [rng.standard_normal(3) for _ in range(2)]}
        rows = state_summaries(vectors, {"CA": 1000, "WY": 50})
        assert [r["state"] for r in rows] == ["CA", "WY"]
        assert rows[0]["representativeness"] == pytest.approx(4 / 1000)
        assert rows[1]["user_count"] == 2


class TestHelpers:
    def test_majority_state_tiebreak(self):
        assert majority_state(["NY", "TX", "NY"]) == "NY"
        assert majority_state(["TX", "NY"]) == "NY"  # lexicographic on ties

    def test_points_roundtrip(self, tmp_path):
        points = [
            OpinionPoint("t1", "tweet", np.array([0.1, -0.25]), 1),
            OpinionPoint("CA", "state", np.array([1e-17, 3.5]), 12),
        ]
        path = tmp_path / "points.tsv"
        write_points(path, points)
        loaded = read_points(path)
        assert [(p.entity_id, p.level, p.support_count) for p in loaded] == [
            ("t1", "tweet", 1),
            ("CA", "state", 12),
        ]
        np.testing.assert_array_equal(loaded[1].vector, points[1].vector)
        states = read_points(path, level="state")
        assert len(states) == 1 and states[0].entity_id == "CA"

    def test_aggregate_corpus_levels(self, model_and_vocab):
        model, vocab = model_and_vocab
        tweets = [
            ("t1", "u1", "CA", ["w1", "w2"]),
            ("t2", "u1", "CA", ["w3"]),
            ("t3", "u2", "NY", ["w4"]),
            ("t4", "u3", None, ["w5"]),
            ("t5", "u4", "CA", ["totally-unknown"]),
        ]
        result = aggregate_corpus(model, vocab, tweets)
        assert result.skipped == 1
        assert [p.entity_id for p in result.user_points] == ["u1", "u2", "u3"]
        assert [p.entity_id for p in result.state_points] == ["CA", "NY"]
        ca = result.state_points[0]
        assert ca.support_count == 1  # u3 has no state, u4 was skipped
        np.testing.assert_array_equal(
            ca.vector, user_vector([tweet_vector(model, vocab, ["w1", "w2"]),
                                    tweet_vector(model, vocab, ["w3"])])
        )

    def test_oov_rate_counts_tokens_outside_exclude(self, model_and_vocab):
        model, vocab = model_and_vocab
        tweets = [
            ("t1", "u1", "CA", ["w1", "unseen", "#labeled", "#labeled"]),
            ("t2", "u2", None, ["#labeled"]),
            ("t3", "u3", "NY", ["gone", "gone", "w2"]),
        ]
        result = aggregate_corpus(model, vocab, tweets, exclude={"#labeled"})
        assert result.oov_rate == 3 / 5  # "unseen" and "gone" twice, of 5 tokens kept
        assert result.skipped == 1
        assert aggregate_corpus(model, vocab, tweets[1:2], exclude={"#labeled"}).oov_rate == 0.0
        assert aggregate_corpus(model, vocab, tweets).oov_rate == 6 / 8
