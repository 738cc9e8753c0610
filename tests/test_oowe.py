import itertools

import numpy as np
import pytest

import relop.oowe
from relop.hashtags import TrainingSet
from relop.ingest import build_vocab
from relop.oowe import (
    OoweConfig,
    OoweModel,
    adagrad_step,
    corrupt,
    export_embeddings,
    forward,
    gradients,
    init_model,
    load_model,
    loss,
    save_model,
    train,
    windows_for_indices,
)
from relop.synth import finite_diff_grads


def zero_model(vocab_size=6, d=2, h=3, c=2, window=3):
    return OoweModel(
        embeddings=np.zeros((vocab_size, d)),
        w1=np.zeros((h, window * d)),
        b1=np.zeros(h),
        w2=np.zeros((c + 1, h)),
        b2=np.zeros(c + 1),
        window=window,
    )


def random_model(rng, vocab_size=10, d=4, h=3, c=3, window=3, spread=0.5):
    model = init_model(vocab_size, OoweConfig(window=window, embed_dim=d, hidden_dim=h, categories=c), rng)
    model.w1 += rng.standard_normal(model.w1.shape) * spread
    model.w2 += rng.standard_normal(model.w2.shape) * spread
    model.embeddings += rng.standard_normal(model.embeddings.shape) * spread
    return model


def away_from_kinks(model, t, t_r, category, gap=1e-3):
    scores_t = forward(model, t)
    scores_r = forward(model, t_r)
    c = model.n_categories
    margins = [1 + scores_r[0] - scores_t[0]] + [
        1 + scores_t[j] - scores_t[category] for j in range(1, c + 1) if j != category
    ]
    pre_t = model.w1 @ model.embeddings[t].ravel() + model.b1
    pre_r = model.w1 @ model.embeddings[t_r].ravel() + model.b1
    kink = min(np.abs(np.abs(pre_t) - 1).min(), np.abs(np.abs(pre_r) - 1).min())
    return min(abs(m) for m in margins) > gap and kink > gap


class TestForward:
    def test_zero_model_outputs_zero(self):
        model = zero_model()
        out = forward(model, [1, 2, 3])
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_hand_arithmetic(self):
        # d=1, h=1, C=1, all weights one, embeddings one: hidden pre-activation
        # is 3, hard-tanh caps it at 1, both outputs are 1
        model = OoweModel(
            embeddings=np.ones((4, 1)),
            w1=np.ones((1, 3)),
            b1=np.zeros(1),
            w2=np.ones((2, 1)),
            b2=np.zeros(2),
            window=3,
        )
        np.testing.assert_allclose(forward(model, [0, 1, 2]), [1.0, 1.0])

    def test_matches_straight_line_reimplementation(self):
        """Duplicate-path oracle written as plain loops."""
        rng = np.random.default_rng(0)
        for _ in range(10):
            model = random_model(rng)
            idx = rng.integers(0, 10, 3)
            got = forward(model, idx)
            x = np.concatenate([model.embeddings[i] for i in idx])
            hidden = []
            for row in range(model.w1.shape[0]):
                z = model.b1[row] + sum(model.w1[row, col] * x[col] for col in range(x.size))
                hidden.append(max(-1.0, min(1.0, z)))
            want = [
                model.b2[row] + sum(model.w2[row, col] * hidden[col] for col in range(len(hidden)))
                for row in range(model.w2.shape[0])
            ]
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_model_not_mutated(self):
        model = random_model(np.random.default_rng(1))
        before = model.embeddings.copy()
        forward(model, [0, 1, 2])
        np.testing.assert_array_equal(model.embeddings, before)


class TestCorrupt:
    def test_forced_replacement(self):
        rng = np.random.default_rng(0)
        out = corrupt(np.array([0, 0, 0]), 2, rng)
        assert out[1] == 1

    def test_differs_in_exactly_center(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = rng.integers(0, 50, 5)
            t_r = corrupt(t, 50, rng)
            diff = np.flatnonzero(t != t_r)
            assert diff.tolist() == [2]

    def test_uniform_over_alternatives(self):
        from scipy.stats import chisquare

        rng = np.random.default_rng(2)
        v = 7
        counts = np.zeros(v)
        for _ in range(10**5):
            counts[corrupt(np.array([1, 3, 5]), v, rng)[1]] += 1
        assert counts[3] == 0
        observed = np.delete(counts, 3)
        assert chisquare(observed).pvalue > 0.01


class TestCorruptionStream:
    @pytest.mark.parametrize("vocab_size", [2, 3, 174, 2**31, 2**32 + 5])
    def test_epoch_draws_equal_scalar_draws(self, vocab_size):
        """What ``train`` relies on: after an epoch's permutation, one
        ``integers(V - 1, size=n)`` call yields the n scalar draws of a
        visit-by-visit loop and leaves the generator in the same state."""
        n = 37
        for seed in range(20):
            batch, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            assert batch.permutation(n).tolist() == scalar.permutation(n).tolist()
            drawn = batch.integers(vocab_size - 1, size=n).tolist()
            assert drawn == [int(scalar.integers(vocab_size - 1)) for _ in range(n)]
            assert batch.bit_generator.state == scalar.bit_generator.state

    def test_stack_matches_window_by_window(self):
        windows = np.random.default_rng(3).integers(0, 50, (40, 5))
        stacked = corrupt(windows, 50, np.random.default_rng(4))
        one = np.random.default_rng(4)
        assert stacked.tolist() == [corrupt(t, 50, one).tolist() for t in windows]


def quiet_model():
    """A model whose language and opinion hinges are both strictly inactive
    for the window pair ([1,0,2], [1,3,2]) with gold category 1."""
    model = zero_model(vocab_size=4, d=1, h=1, c=2)
    model.w1[:] = 0.2
    model.w2[:] = [[2.0], [3.0], [-3.0]]
    model.embeddings[:] = [[2.0], [2.0], [0.5], [-1.5]]
    return model


class TestLoss:
    def test_inactive_hinges_zero(self):
        model = quiet_model()
        t, t_r = np.array([1, 0, 2]), np.array([1, 3, 2])
        s_t, s_r = forward(model, t), forward(model, t_r)
        assert 1 + s_r[0] - s_t[0] < 0 and 1 + s_t[2] - s_t[1] < 0
        assert loss(model, t, t_r, 1, 0.5) == 0.0

    def test_hand_case(self):
        # C=2, opinion scores (0.2, 0.5), alpha=1: loss = 1/(C-1)*max(0, 1+0.5-0.2)
        model = zero_model(c=2)
        model.b2[:] = [0.0, 0.2, 0.5]
        value = loss(model, [0, 1, 2], [0, 3, 2], 1, 1.0)
        assert value == pytest.approx(1.3)

    def test_alpha_zero_is_language_hinge(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_model(rng)
            t = rng.integers(0, 10, 3)
            t_r = corrupt(t, 10, rng)
            s_t, s_r = forward(model, t), forward(model, t_r)
            want = max(0.0, 1.0 + s_r[0] - s_t[0])
            assert loss(model, t, t_r, 2, 0.0) == pytest.approx(want, rel=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            model = random_model(rng)
            t = rng.integers(0, 10, 3)
            assert loss(model, t, corrupt(t, 10, rng), int(rng.integers(1, 4)), 0.5) >= 0.0

    def test_single_category_alpha_error(self):
        model = zero_model(c=1)
        with pytest.raises(ValueError):
            loss(model, [0, 1, 2], [0, 3, 2], 1, 0.5)


def grad_group_error(analytic, numeric, model):
    worst = 0.0
    for name in ("w1", "b1", "w2", "b2"):
        a, b = getattr(analytic, name), getattr(numeric, name)
        worst = max(worst, np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), 1e-6))
    dense_a = np.zeros_like(model.embeddings)
    for idx, row in analytic.embed_rows.items():
        dense_a[idx] += row
    dense_b = np.zeros_like(model.embeddings)
    for idx, row in numeric.embed_rows.items():
        dense_b[idx] += row
    scale = max(np.abs(dense_a).max(), np.abs(dense_b).max(), 1e-6)
    return max(worst, np.abs(dense_a - dense_b).max() / scale), dense_a


class TestGradients:
    def test_zero_loss_zero_gradients(self):
        model = quiet_model()
        assert loss(model, [1, 0, 2], [1, 3, 2], 1, 0.5) == 0.0
        grads = gradients(model, [1, 0, 2], [1, 3, 2], 1, 0.5)
        assert not grads.w1.any() and not grads.w2.any()
        assert not grads.b1.any() and not grads.b2.any()
        assert all(not row.any() for row in grads.embed_rows.values())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 15:
            model = random_model(rng)
            t = rng.integers(0, 10, 3)
            t_r = corrupt(t, 10, rng)
            category = int(rng.integers(1, 4))
            if not away_from_kinks(model, t, t_r, category):
                continue
            analytic = gradients(model, t, t_r, category, 0.5)
            numeric = finite_diff_grads(model, t, t_r, category, 0.5)
            err, _ = grad_group_error(analytic, numeric, model)
            assert err < 1e-4
            checked += 1

    def test_embedding_gradient_sparsity(self):
        """Only rows used by the two windows may receive gradient."""
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 10:
            model = random_model(rng)
            t = rng.integers(0, 10, 3)
            t_r = corrupt(t, 10, rng)
            if not away_from_kinks(model, t, t_r, 1):
                continue
            analytic = gradients(model, t, t_r, 1, 0.5)
            touched = set(t.tolist()) | set(t_r.tolist())
            assert set(analytic.embed_rows) <= touched
            numeric = finite_diff_grads(model, t, t_r, 1, 0.5)
            for idx in range(10):
                if idx not in touched:
                    np.testing.assert_allclose(numeric.embed_rows[idx], 0.0, atol=1e-9)
            checked += 1


class TestAdagrad:
    def test_constant_gradient_steps(self):
        model = zero_model()
        from relop.oowe import Gradients

        grads = Gradients(
            w1=np.ones_like(model.w1),
            b1=np.zeros_like(model.b1),
            w2=np.zeros_like(model.w2),
            b2=np.zeros_like(model.b2),
            embed_rows={},
        )
        adagrad_step(model, grads, 0.1)
        first = -model.w1[0, 0]
        adagrad_step(model, grads, 0.1)
        second = -model.w1[0, 0] - first
        assert first == pytest.approx(0.1, rel=1e-6)
        assert second == pytest.approx(0.1 / np.sqrt(2.0), rel=1e-6)

    def test_zero_gradient_is_noop(self):
        model = random_model(np.random.default_rng(0))
        from relop.oowe import Gradients

        grads = Gradients(
            w1=np.zeros_like(model.w1),
            b1=np.zeros_like(model.b1),
            w2=np.zeros_like(model.w2),
            b2=np.zeros_like(model.b2),
            embed_rows={},
        )
        before = model.w1.copy()
        acc_before = model.g_w1.copy()
        adagrad_step(model, grads, 0.1)
        np.testing.assert_array_equal(model.w1, before)
        np.testing.assert_array_equal(model.g_w1, acc_before)

    def test_quadratic_descent_is_monotone(self):
        """Scalar oracle: AdaGrad on f(x) = (x-3)^2 keeps improving."""
        x, acc = 10.0, 0.0
        values = []
        for _ in range(100):
            values.append((x - 3.0) ** 2)
            g = 2.0 * (x - 3.0)
            acc += g * g
            x -= 0.5 * g / (np.sqrt(acc) + 1e-8)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)


def toy_training_set(n=40, seed=0):
    rng = np.random.default_rng(seed)
    lex = (["red", "crimson", "scarlet"], ["blue", "azure", "navy"])
    examples = []
    for i in range(n):
        c = i % 2
        tokens = [lex[c][int(rng.integers(3))] for _ in range(6)]
        tokens += [f"noise{rng.integers(5)}"]
        examples.append((tokens, c + 1))
    return TrainingSet(examples=examples, categories=("side_a", "side_b"),
                       category_counts={"side_a": n // 2, "side_b": n - n // 2})


def oracle_training_set(categories, seed=0):
    """Short and long examples, a token repeated through a whole window, and
    a one-off token that falls to UNK under ``min_count=2``."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(8)]
    examples = [(["once"], 1), (["w0"] * 5, categories), (["w1", "w2", "w1"], 2)]
    for i in range(14):
        size = int(rng.integers(1, 7))
        examples.append(([words[int(rng.integers(8))] for _ in range(size)], i % categories + 1))
    names = tuple(f"c{j}" for j in range(categories))
    return TrainingSet(examples=examples, categories=names, category_counts={})


def reference_train(training_set, vocab, config):
    """The visit-by-visit loop that ``train`` must equal bit for bit: one
    permutation per epoch, then per visit ``corrupt``, ``loss`` and
    ``gradients``, and ``adagrad_step`` when the loss is positive."""
    windows, cats = [], []
    for tokens, category in training_set.examples:
        if tokens:
            win = windows_for_indices([vocab.lookup(t) for t in tokens], config.window)
            windows.extend(win)
            cats.extend([category] * len(win))
    rng = np.random.default_rng(config.seed)
    model = init_model(len(vocab), config, rng)
    losses = []
    for _ in range(config.epochs):
        total = 0.0
        for pos in rng.permutation(len(windows)):
            t = windows[pos]
            t_r = corrupt(t, len(vocab), rng)
            value = loss(model, t, t_r, cats[pos], config.alpha)
            grads = gradients(model, t, t_r, cats[pos], config.alpha)
            total += value
            if value > 0.0:
                adagrad_step(model, grads, config.learning_rate)
        losses.append(total / len(windows))
    return model, losses


class TestTrain:
    def test_loss_decreases(self):
        training = toy_training_set()
        vocab = build_vocab((t for t, _ in training.examples), min_count=1)
        config = OoweConfig(window=3, embed_dim=8, hidden_dim=5, categories=2, epochs=5, seed=1)
        _, losses = train(training, vocab, config)
        assert losses[-1] < losses[0]

    def test_bitwise_determinism(self):
        training = toy_training_set()
        vocab = build_vocab((t for t, _ in training.examples), min_count=1)
        config = OoweConfig(window=3, embed_dim=6, hidden_dim=4, categories=2, epochs=2, seed=9)
        m1, l1 = train(training, vocab, config)
        m2, l2 = train(training, vocab, config)
        assert l1 == l2
        assert m1.embeddings.tobytes() == m2.embeddings.tobytes()

    @pytest.mark.parametrize(
        "window,alpha,categories", list(itertools.product((1, 3, 5), (0.0, 0.5, 1.0), (2, 6, 8)))
    )
    def test_matches_reference_loop_bitwise(self, window, alpha, categories):
        """With 8 categories up to 7 opinion hinges fire at once; from 6 on,
        subtracting ``unit`` one hinge at a time differs from ``count * unit``."""
        training = oracle_training_set(categories)
        vocab = build_vocab((t for t, _ in training.examples), min_count=2)
        config = OoweConfig(
            window=window, embed_dim=4, hidden_dim=3, learning_rate=0.5, alpha=alpha,
            categories=categories, epochs=3, seed=window + categories,
        )
        got, got_losses = train(training, vocab, config)
        want, want_losses = reference_train(training, vocab, config)
        for name in ("embeddings", "w1", "b1", "w2", "b2"):
            for field in (name, "g_" + name):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert np.array(got_losses).tobytes() == np.array(want_losses).tobytes()

    def test_category_out_of_range_fails_before_any_update(self, monkeypatch):
        visits = []
        monkeypatch.setattr(relop.oowe, "corrupt", lambda *args: visits.append(args))
        training = toy_training_set(n=6)
        training.examples.append((["red", "blue"], 3))
        vocab = build_vocab((t for t, _ in training.examples), min_count=1)
        with pytest.raises(ValueError, match=r"category must be in 1\.\.2"):
            train(training, vocab, OoweConfig(categories=2, epochs=1))
        assert visits == []

    def test_single_category_needs_alpha_zero(self, monkeypatch):
        training = TrainingSet(examples=[(["a", "b", "c"], 1)] * 3, categories=("only",),
                               category_counts={})
        vocab = build_vocab((t for t, _ in training.examples), min_count=1)
        model, _ = train(training, vocab, OoweConfig(categories=1, alpha=0.0, epochs=1))
        assert model.n_categories == 1
        visits = []
        monkeypatch.setattr(relop.oowe, "corrupt", lambda *args: visits.append(args))
        with pytest.raises(ValueError, match="single category"):
            train(training, vocab, OoweConfig(categories=1, alpha=0.5, epochs=1))
        assert visits == []

    def test_one_token_vocabulary_rejected(self):
        """No different index exists to corrupt a window with."""

        class OneToken:
            def __len__(self):
                return 1

            def lookup(self, token):
                return 0

        training = toy_training_set(n=4)
        with pytest.raises(ValueError, match="at least 2"):
            train(training, OneToken(), OoweConfig(categories=2, epochs=1))

    def test_single_example_margin_saturates(self):
        """With alpha=1 the opinion margin grows until the hinge goes quiet."""
        training = TrainingSet(
            examples=[(["only", "tokens", "here"], 1)],
            categories=("a", "b"),
            category_counts={"a": 1, "b": 0},
        )
        vocab = build_vocab((t for t, _ in training.examples), min_count=1)
        config = OoweConfig(
            window=3, embed_dim=4, hidden_dim=3, categories=2, epochs=60, seed=2, alpha=1.0
        )
        model, losses = train(training, vocab, config)
        indices = [vocab.lookup(t) for t in ["only", "tokens", "here"]]
        scores = forward(model, windows_for_indices(indices, 3)[1])
        assert scores[1] - scores[2] >= 1.0 - 1e-9
        assert losses[-1] == pytest.approx(0.0, abs=1e-12)

    def test_alpha_zero_leaves_opinion_head_unchanged(self):
        training = toy_training_set()
        vocab = build_vocab((t for t, _ in training.examples), min_count=1)
        config = OoweConfig(window=3, embed_dim=6, hidden_dim=4, categories=2, epochs=2, seed=3, alpha=0.0)
        model, _ = train(training, vocab, config)
        fresh = init_model(len(vocab), config, np.random.default_rng(config.seed))
        np.testing.assert_array_equal(model.w2[1:], fresh.w2[1:])
        np.testing.assert_array_equal(model.b2[1:], fresh.b2[1:])

    def test_empty_training_set_errors(self):
        vocab = build_vocab([["x"]], min_count=1)
        empty = TrainingSet(examples=[], categories=("a", "b"), category_counts={})
        with pytest.raises(ValueError):
            train(empty, vocab, OoweConfig(categories=2))

    def test_argmax_invariant_under_uniform_bias_shift(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        idx = rng.integers(0, 10, 3)
        base = forward(model, idx)[1:]
        model.b2[1:] += 17.5
        shifted = forward(model, idx)[1:]
        assert np.argmax(base) == np.argmax(shifted)


class TestModelFile:
    def test_roundtrip_bitwise(self, tmp_path):
        model = random_model(np.random.default_rng(6), vocab_size=12, d=5, h=4, c=3)
        path = tmp_path / "model.bin"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.window == model.window
        for name in ("embeddings", "w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_model(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = random_model(np.random.default_rng(6))
        path = tmp_path / "model.bin"
        save_model(path, model)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(ValueError):
            load_model(path)

    def test_export_embeddings(self):
        training = toy_training_set(n=10)
        vocab = build_vocab((t for t, _ in training.examples), min_count=1)
        config = OoweConfig(window=3, embed_dim=4, hidden_dim=3, categories=2, epochs=1, seed=0)
        model, _ = train(training, vocab, config)
        lines = export_embeddings(model, vocab).splitlines()
        assert len(lines) == len(vocab)
        token, values = lines[2].split("\t")
        assert len(values.split()) == 4
