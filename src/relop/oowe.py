"""Opinion-oriented word embedding: a window lookup network with a language
ranking hinge plus a multi-class opinion hinge, trained with AdaGrad."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
import numpy as np

from .hashtags import TrainingSet
from .ingest import Vocabulary

ADAGRAD_EPS = 1e-8

MODEL_MAGIC = b"RELOPOWE"
MODEL_VERSION = 1


@dataclass
class OoweConfig:
    window: int = 3
    embed_dim: int = 50
    hidden_dim: int = 20
    learning_rate: float = 0.1
    alpha: float = 0.5
    categories: int = 6
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError("window must be an odd integer >= 1")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("embed_dim and hidden_dim must be >= 1")


@dataclass
class OoweModel:
    """Parameters plus AdaGrad accumulators.

    Scores have length C+1: index 0 is the language-model score, indices
    1..C are the per-category opinion scores.
    """

    embeddings: np.ndarray  # (V, d)
    w1: np.ndarray          # (h, window*d)
    b1: np.ndarray          # (h,)
    w2: np.ndarray          # (C+1, h)
    b2: np.ndarray          # (C+1,)
    window: int
    g_embeddings: np.ndarray = field(repr=False, default=None)
    g_w1: np.ndarray = field(repr=False, default=None)
    g_b1: np.ndarray = field(repr=False, default=None)
    g_w2: np.ndarray = field(repr=False, default=None)
    g_b2: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.g_embeddings is None:
            self.g_embeddings = np.zeros_like(self.embeddings)
            self.g_w1 = np.zeros_like(self.w1)
            self.g_b1 = np.zeros_like(self.b1)
            self.g_w2 = np.zeros_like(self.w2)
            self.g_b2 = np.zeros_like(self.b2)

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def n_categories(self) -> int:
        return self.w2.shape[0] - 1


@dataclass
class Gradients:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    embed_rows: dict[int, np.ndarray]


def init_model(vocab_size: int, config: OoweConfig, rng: np.random.Generator) -> OoweModel:
    d, h, c, w = config.embed_dim, config.hidden_dim, config.categories, config.window
    emb = rng.uniform(-0.01, 0.01, size=(vocab_size, d))
    w1 = rng.uniform(-1.0, 1.0, size=(h, w * d)) / np.sqrt(w * d)
    w2 = rng.uniform(-1.0, 1.0, size=(c + 1, h)) / np.sqrt(h)
    return OoweModel(emb, w1, np.zeros(h), w2, np.zeros(c + 1), window=w)


def _forward_pass(model: OoweModel, indices: np.ndarray):
    x = model.embeddings[indices].ravel()
    z = model.w1 @ x + model.b1
    a = np.clip(z, -1.0, 1.0)
    scores = model.w2 @ a + model.b2
    return scores, a, z, x


def forward(model: OoweModel, indices) -> np.ndarray:
    """Score a window of token indices; returns the (C+1,) output vector."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.shape != (model.window,):
        raise ValueError(f"expected {model.window} indices, got shape {indices.shape}")
    return _forward_pass(model, indices)[0]


def corrupt(indices: np.ndarray, vocab_size: int, rng: np.random.Generator) -> np.ndarray:
    """Replace the center token with a uniformly random different index."""
    if vocab_size < 2:
        raise ValueError("corruption needs a vocabulary of at least 2")
    out = np.array(indices, dtype=np.int64)
    center = len(out) // 2
    draw = int(rng.integers(vocab_size - 1))
    out[center] = draw + 1 if draw >= out[center] else draw
    return out


def _loss_and_gradients(
    model: OoweModel,
    t: np.ndarray,
    t_r: np.ndarray,
    category: int,
    alpha: float,
    want_grads: bool,
):
    c = model.n_categories
    if not (1 <= category <= c):
        raise ValueError(f"category must be in 1..{c}")
    if c == 1 and alpha > 0.0:
        raise ValueError("opinion hinge undefined for a single category")

    scores_t, a_t, z_t, x_t = _forward_pass(model, t)
    scores_r, a_r, z_r, x_r = _forward_pass(model, t_r)

    lang_margin = 1.0 + scores_r[0] - scores_t[0]
    lang_active = lang_margin > 0.0
    total = (1.0 - alpha) * max(0.0, lang_margin)

    g_t = np.zeros(c + 1)
    g_r = np.zeros(c + 1)
    if lang_active:
        g_t[0] -= 1.0 - alpha
        g_r[0] += 1.0 - alpha
    if alpha > 0.0 and c > 1:
        unit = alpha / (c - 1)
        opin = 0.0
        for j in range(1, c + 1):
            if j == category:
                continue
            margin = 1.0 + scores_t[j] - scores_t[category]
            if margin > 0.0:
                opin += margin
                g_t[j] += unit
                g_t[category] -= unit
        total += unit * opin

    if not want_grads:
        return total, None

    grads = Gradients(
        w1=np.zeros_like(model.w1),
        b1=np.zeros_like(model.b1),
        w2=np.zeros_like(model.w2),
        b2=np.zeros_like(model.b2),
        embed_rows={},
    )
    d = model.embed_dim
    for indices, g_s, a, z, x in ((t, g_t, a_t, z_t, x_t), (t_r, g_r, a_r, z_r, x_r)):
        if not g_s.any():
            continue
        grads.w2 += np.outer(g_s, a)
        grads.b2 += g_s
        g_a = model.w2.T @ g_s
        g_z = np.where((z > -1.0) & (z < 1.0), g_a, 0.0)
        grads.w1 += np.outer(g_z, x)
        grads.b1 += g_z
        g_x = (model.w1.T @ g_z).reshape(model.window, d)
        for pos, idx in enumerate(indices):
            idx = int(idx)
            row = grads.embed_rows.get(idx)
            if row is None:
                grads.embed_rows[idx] = g_x[pos].copy()
            else:
                row += g_x[pos]
    return total, grads


def loss(model: OoweModel, t, t_r, category: int, alpha: float) -> float:
    """Composite hinge loss for an original/corrupted window pair."""
    t = np.asarray(t, dtype=np.int64)
    t_r = np.asarray(t_r, dtype=np.int64)
    return _loss_and_gradients(model, t, t_r, category, alpha, want_grads=False)[0]


def gradients(model: OoweModel, t, t_r, category: int, alpha: float) -> Gradients:
    """Exact subgradients of the composite hinge loss.

    Hinges at their kink and hard-tanh outside (-1, 1) contribute zero,
    so a zero loss always yields all-zero gradients.
    """
    t = np.asarray(t, dtype=np.int64)
    t_r = np.asarray(t_r, dtype=np.int64)
    return _loss_and_gradients(model, t, t_r, category, alpha, want_grads=True)[1]


def adagrad_step(model: OoweModel, grads: Gradients, learning_rate: float) -> OoweModel:
    """Apply one AdaGrad update in place; returns the model for chaining."""
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    for g, acc, param in (
        (grads.w1, model.g_w1, model.w1),
        (grads.b1, model.g_b1, model.b1),
        (grads.w2, model.g_w2, model.w2),
        (grads.b2, model.g_b2, model.b2),
    ):
        acc += g * g
        param -= learning_rate * g / (np.sqrt(acc) + ADAGRAD_EPS)
    for idx, g in grads.embed_rows.items():
        acc = model.g_embeddings[idx]
        acc += g * g
        model.embeddings[idx] -= learning_rate * g / (np.sqrt(acc) + ADAGRAD_EPS)
    return model


def windows_for_indices(indices: list[int], window: int) -> np.ndarray:
    """All padded windows of a token-index sequence, one per center position."""
    pad = (window - 1) // 2
    padded = [Vocabulary.PAD] * pad + list(indices) + [Vocabulary.PAD] * pad
    return np.array(
        [padded[i : i + window] for i in range(len(indices))], dtype=np.int64
    ).reshape(len(indices), window)


def train(
    training_set: TrainingSet,
    vocab: Vocabulary,
    config: OoweConfig,
) -> tuple[OoweModel, list[float]]:
    """Train the embedding over shuffled windows; returns (model, epoch losses).

    One corruption is drawn per window visit. Training is a sequential
    single-writer loop, so results are bitwise reproducible for a fixed seed.
    """
    if not training_set.examples:
        raise ValueError("training set is empty")
    if len(training_set.categories) != config.categories:
        raise ValueError(
            f"config.categories={config.categories} but training set has "
            f"{len(training_set.categories)} categories"
        )
    ngram_list = []
    cat_list = []
    for tokens, category in training_set.examples:
        if not tokens:
            continue
        win = windows_for_indices([vocab.lookup(t) for t in tokens], config.window)
        ngram_list.append(win)
        cat_list.extend([category] * win.shape[0])
    if not ngram_list:
        raise ValueError("training set has no usable tokens")
    ngrams = np.vstack(ngram_list)
    cats = np.array(cat_list, dtype=np.int64)

    rng = np.random.default_rng(config.seed)
    model = init_model(len(vocab), config, rng)
    vocab_size = len(vocab)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(ngrams.shape[0])
        total = 0.0
        for pos in order:
            t = ngrams[pos]
            t_r = corrupt(t, vocab_size, rng)
            value, grads = _loss_and_gradients(
                model, t, t_r, int(cats[pos]), config.alpha, want_grads=True
            )
            total += value
            if value > 0.0:
                adagrad_step(model, grads, config.learning_rate)
        epoch_losses.append(total / ngrams.shape[0])
    return model, epoch_losses


def save_model(path, model: OoweModel) -> None:
    """Write the binary model file.

    Layout: 8-byte magic, then uint32 version, V, d, h, C (little-endian),
    then E, W1, b1, W2, b2 as row-major little-endian float64.
    """
    header = MODEL_MAGIC + struct.pack(
        "<IIIII",
        MODEL_VERSION,
        model.vocab_size,
        model.embed_dim,
        model.w1.shape[0],
        model.n_categories,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in (model.embeddings, model.w1, model.b1, model.w2, model.b2):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path) -> OoweModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MODEL_MAGIC:
        raise ValueError("not a model file (bad magic)")
    version, v, d, h, c = struct.unpack("<IIIII", blob[8:28])
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model version {version}")
    payload = np.frombuffer(blob[28:], dtype="<f8")
    fixed = v * d + h + (c + 1) * h + (c + 1)
    if payload.size <= fixed or (payload.size - fixed) % (h * d) != 0:
        raise ValueError("model payload size inconsistent with header")
    window = (payload.size - fixed) // (h * d)
    offset = 0

    def take(shape):
        nonlocal offset
        size = int(np.prod(shape))
        out = payload[offset : offset + size].reshape(shape).astype(np.float64)
        offset += size
        return out

    emb = take((v, d))
    w1 = take((h, window * d))
    b1 = take((h,))
    w2 = take((c + 1, h))
    b2 = take((c + 1,))
    return OoweModel(emb, w1, b1, w2, b2, window=int(window))


def export_embeddings(model: OoweModel, vocab: Vocabulary) -> str:
    """Embedding table as ``token<TAB>v1 v2 ... vd`` lines."""
    lines = []
    for token, idx in vocab.index.items():
        values = " ".join(repr(float(v)) for v in model.embeddings[idx])
        lines.append(f"{token}\t{values}")
    return "\n".join(lines) + "\n"
