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
    """Replace the center token of a window, or of each row of an (m, w)
    stack of windows, with a uniformly random different index. A stack
    takes its m draws in one ``rng.integers`` call, which yields the same
    stream as m single-window calls."""
    if vocab_size < 2:
        raise ValueError("corruption needs a vocabulary of at least 2")
    out = np.array(indices, dtype=np.int64)
    center = out.shape[-1] // 2
    draw = rng.integers(vocab_size - 1, size=out.shape[:-1])
    out[..., center] = draw + (draw >= out[..., center])
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


def _fused_step(model: OoweModel, alpha: float, learning_rate: float):
    """Return ``step(t, t_r, category) -> loss`` for the training loop.

    One call does what ``loss`` and ``gradients`` followed, when the loss is
    positive, by ``adagrad_step`` do, with the same floating-point operations
    in the same order, so the result is bitwise equal. ``w1``, ``b1``, ``w2``
    and ``b2`` become views of a flat buffer; a step copies the embedding
    rows it touches in behind them, runs one AdaGrad update of seven
    in-place ufunc calls over the lot and writes the rows back. The forward
    and backward passes write into preallocated buffers and the hinges run
    on Python floats.
    """
    w, d, c = model.window, model.embed_dim, model.n_categories
    h, wd = model.w1.shape
    names, shapes = ("w1", "b1", "w2", "b2"), ((h, wd), (h,), (c + 1, h), (c + 1,))
    sizes = [int(np.prod(shape)) for shape in shapes]
    dense = sum(sizes)
    # [w1 | b1 | w2 | b2 | up to 2 * window embedding rows]
    params, accs, grad_t, grad_r, tmp, tmp2 = (np.zeros(dense + 2 * w * d) for _ in range(6))

    def views(flat):
        ends = np.cumsum(sizes)
        return [flat[end - n : end].reshape(shape) for shape, n, end in zip(shapes, sizes, ends)]

    for name, param, acc in zip(names, views(params), views(accs)):
        param[...] = getattr(model, name)
        acc[...] = getattr(model, "g_" + name)
        setattr(model, name, param)
        setattr(model, "g_" + name, acc)
    grads_t, grads_r = views(grad_t), views(grad_r)
    # the AdaGrad operands of a step that touches k distinct embedding rows
    spans = [
        tuple(buf[: dense + k * d] for buf in (params, accs, grad_t, tmp, tmp2))
        + tuple(buf[dense : dense + k * d].reshape(k, d) for buf in (params, accs, grad_t))
        for k in range(2 * w + 1)
    ]
    dense_t, dense_r = grad_t[:dense], grad_r[:dense]
    emb, g_emb = model.embeddings, model.g_embeddings
    w1, b1, w2, b2 = model.w1, model.b1, model.w2, model.b2
    w1_t, w2_t = w1.T, w2.T
    # row 0 holds the original window, row 1 the corrupted one; elementwise
    # work covers both rows in one call, each matrix product stays a gemv
    x, z, a, scores = np.empty((2, wd)), np.empty((2, h)), np.empty((2, h)), np.empty((2, c + 1))
    (x_t, x_r), (z_t, z_r), (a_t, a_r), (scores_t, scores_r) = x, z, a, scores
    x_t_rows, x_r_rows = x_t.reshape(w, d), x_r.reshape(w, d)
    g_a = np.empty(h)
    live = np.empty(h, dtype=bool)
    g_x = np.empty((2, wd))
    g_x_t, g_x_r = g_x
    g_x_rows = g_x.reshape(2 * w, d)
    g_t = np.zeros(c + 1)
    keep = 1.0 - alpha
    g_r = np.zeros(c + 1)
    g_r[0] = keep  # the corrupted window only ever carries the language hinge
    opinion = alpha > 0.0 and c > 1
    unit = alpha / (c - 1) if opinion else 0.0
    # the reference subtracts ``unit`` once per active opinion hinge
    g_true = [0.0]
    for _ in range(c):
        g_true.append(g_true[-1] - unit)

    def backward(g_s, x_s, z_s, a_s, grads, g_x_out):
        """Gradients of the dense parameters into ``grads``, of x into ``g_x_out``."""
        gw1, gb1, gw2, gb2 = grads
        np.multiply(g_s[:, None], a_s, out=gw2)
        np.copyto(gb2, g_s)
        np.dot(w2_t, g_s, out=g_a)
        np.abs(z_s, out=gb1)
        np.less(gb1, 1.0, out=live)
        np.copyto(gb1, 0.0)
        np.copyto(gb1, g_a, where=live)
        np.multiply(gb1[:, None], x_s, out=gw1)
        np.dot(w1_t, gb1, out=g_x_out)

    def step(t, t_r, category: int) -> float:
        emb.take(t, 0, x_t_rows, "clip")  # indices come from the vocabulary
        emb.take(t_r, 0, x_r_rows, "clip")
        np.dot(w1, x_t, out=z_t)
        np.dot(w1, x_r, out=z_r)
        np.add(z, b1, out=z)
        np.maximum(z, -1.0, out=a)
        np.minimum(a, 1.0, out=a)
        np.dot(w2, a_t, out=scores_t)
        np.dot(w2, a_r, out=scores_r)
        np.add(scores, b2, out=scores)
        st, sr = scores.tolist()
        lang_margin = 1.0 + sr[0] - st[0]
        total = keep * max(0.0, lang_margin)
        active = []
        if opinion:
            opin = 0.0
            for j in range(1, c + 1):
                if j == category:
                    continue
                margin = 1.0 + st[j] - st[category]
                if margin > 0.0:
                    opin += margin
                    active.append(j)
            total += unit * opin
        if not total > 0.0:
            return total

        g_t.fill(0.0)
        if lang_margin > 0.0:
            g_t[0] = 0.0 - keep
        for j in active:
            g_t[j] = unit
        g_t[category] = g_true[len(active)]
        backward(g_t, x_t, z_t, a_t, grads_t, g_x_t)
        keys = t.tolist()
        if lang_margin > 0.0 and keep != 0.0:
            backward(g_r, x_r, z_r, a_r, grads_r, g_x_r)
            np.add(dense_t, dense_r, out=dense_t)
            keys += t_r.tolist()

        # one gradient row per distinct index, summed in position order: t, then t_r
        slot: dict[int, int] = {}
        first, dups = [], []
        for pos, idx in enumerate(keys):
            s = slot.setdefault(idx, len(first))
            if s == len(first):
                first.append(pos)
            else:
                dups.append((s, pos))
        rows = np.array(list(slot))
        param, acc, g, t1, t2, p_emb, a_emb, g_emb_rows = spans[len(rows)]
        g_x_rows.take(first, 0, g_emb_rows, "clip")
        for s, pos in dups:
            g_emb_rows[s] += g_x_rows[pos]
        emb.take(rows, 0, p_emb, "clip")
        g_emb.take(rows, 0, a_emb, "clip")
        np.multiply(g, g, out=t1)
        np.add(acc, t1, out=acc)
        np.sqrt(acc, out=t1)
        np.add(t1, ADAGRAD_EPS, out=t1)
        np.multiply(g, learning_rate, out=t2)
        np.divide(t2, t1, out=t2)
        np.subtract(param, t2, out=param)
        emb[rows] = p_emb
        g_emb[rows] = a_emb
        return total

    return step


def train(
    training_set: TrainingSet,
    vocab: Vocabulary,
    config: OoweConfig,
) -> tuple[OoweModel, list[float]]:
    """Train the embedding over shuffled windows; returns (model, epoch losses).

    One corruption is drawn per window visit; each epoch draws its
    corruptions in one ``corrupt`` call after its permutation, the same
    stream as one call per visit. Training is a sequential single-writer
    loop of fused steps (``_fused_step``), bitwise equal to ``gradients``,
    ``loss`` and ``adagrad_step`` applied visit by visit, so results are
    reproducible for a fixed seed.
    """
    if not training_set.examples:
        raise ValueError("training set is empty")
    c = config.categories
    if len(training_set.categories) != c:
        raise ValueError(
            f"config.categories={c} but training set has "
            f"{len(training_set.categories)} categories"
        )
    if any(not (1 <= category <= c) for _, category in training_set.examples):
        raise ValueError(f"category must be in 1..{c}")
    if c == 1 and config.alpha > 0.0:
        raise ValueError("opinion hinge undefined for a single category")
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

    rng = np.random.default_rng(config.seed)
    model = init_model(len(vocab), config, rng)
    step = _fused_step(model, config.alpha, config.learning_rate)
    vocab_size = len(vocab)
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        order = rng.permutation(ngrams.shape[0])
        corrupted = corrupt(ngrams[order], vocab_size, rng)
        total = 0.0
        for pos, t_r in zip(order.tolist(), corrupted):
            total += step(ngrams[pos], t_r, cat_list[pos])
        # numpy scalars, as the reference loop returns (train_log.csv writes their repr)
        epoch_losses.append(np.float64(total) / ngrams.shape[0])
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
