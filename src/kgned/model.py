"""Small transformer-encoder binary classifier over assembled inputs.

The encoder is written directly in numpy (float64 throughout) with
hand-derived backward passes, which keeps training bitwise-deterministic
under a fixed seed and lets the finite-difference gradient check compare
two genuinely independent computations.

Input embeddings are the sum of token, position, and segment tables; each
encoder layer is multi-head self-attention and a two-layer feed-forward
block, both with residual connections and post-layer-norm.  The
classification head is a linear map over the first (CLS) position followed
by a sigmoid, modeling the probability that the candidate entity matches
the mention.

Since the head reads only the CLS row, the last layer takes keys and
values from every position but computes queries, attention, the output
projection, both layer norms and the feed-forward block for position 0
alone, and its backward pass starts from that one row.  The other rows
would never reach the head, so the logits equal the all-positions
encoder's up to rounding: the matrix products see other shapes and may
round differently in the last bits.

The kernels work in place to avoid a fresh array per operation, and run
the same floating-point operations in the same order as the allocating
formulas, so results are bit-identical to them.  ``_softmax`` overwrites
the array it is given and returns it; ``_softmax_backward`` overwrites
its gradient argument.  Adam in :func:`train` updates only the rows of
``tok_emb`` that some batch has used so far.  That is exact, not lazy
Adam: a row no batch has used has a zero gradient and zero moments, so
its Adam step is exactly 0, and once used a row stays in every update.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .assembly import AssembledInput, Mention
from .candidates import CandidateSet
from .context import ContextConfig
from .tokenizer import Vocab

_LN_EPS = 1e-5
_MASK_BIAS = -1e9
_PROB_EPS = 1e-12
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

CHECKPOINT_FORMAT = "kgned-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    pass


class TrainingAborted(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    ffn_dim: int = 128
    n_segments: int = 17
    max_seq_len: int = 512
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.vocab_size, self.d_model, self.n_heads, self.ffn_dim,
               self.n_segments, self.max_seq_len) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.n_layers < 0:
            raise ValueError("n_layers must be >= 0")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 10
    seed: int = 0
    clip_norm: float = 1.0

    def __post_init__(self):
        # learning_rate 0 is allowed so frozen-model diagnostics can run.
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if self.clip_norm < 0:
            raise ValueError("clip_norm must be >= 0 (0 disables clipping)")


def sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_loss(probability: float, label: int) -> float:
    """Binary cross-entropy for one example, clamped away from log(0)."""
    p = min(max(float(probability), _PROB_EPS), 1.0 - _PROB_EPS)
    y = float(label)
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def _losses_from_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # log(1 + e^z) - y*z, computed without overflow.
    return np.logaddexp(0.0, z) - y * z


def _layer_norm_forward(x, gamma, beta):
    # x - mean is taken once and serves both the variance (the operations
    # np.var runs) and xhat, which is then normalized in place.
    xhat = x - x.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    var = out.sum(axis=-1, keepdims=True) / x.shape[-1]
    var += _LN_EPS
    inv = 1.0 / np.sqrt(var, out=var)
    xhat *= inv
    np.multiply(gamma, xhat, out=out)
    out += beta
    return out, (xhat, inv, gamma)


def _layer_norm_backward(dy, cache):
    # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), built in
    # the buffer of dxhat = dy * gamma, with one scratch array.
    xhat, inv, gamma = cache
    tmp = dy * xhat
    dgamma = tmp.sum(axis=(0, 1))
    dbeta = dy.sum(axis=(0, 1))
    dx = dy * gamma
    m1 = dx.mean(axis=-1, keepdims=True)
    m2 = np.multiply(dx, xhat, out=tmp).mean(axis=-1, keepdims=True)
    dx -= m1
    dx -= np.multiply(xhat, m2, out=tmp)
    dx *= inv
    return dx, dgamma, dbeta


def _softmax(x):
    """Softmax over the last axis, computed in ``x`` itself and returned."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _softmax_backward(dattn_used, attn, drop_mask):
    """Gradient w.r.t. the softmax input, ``attn * (dattn - rowsum(dattn *
    attn))`` where ``dattn`` is ``dattn_used`` times ``drop_mask`` (None
    without dropout); computed in the ``dattn_used`` buffer and returned."""
    d = dattn_used
    if drop_mask is not None:
        d *= drop_mask
    # One input at a time, so the product is a small temporary rather than
    # one as large as the batch's attention; each row sums the same way.
    rowsum = np.empty(d.shape[:-1] + (1,))
    for b in range(len(d)):
        rowsum[b] = (d[b] * attn[b]).sum(axis=-1, keepdims=True)
    d -= rowsum
    d *= attn
    return d


def _dropout_mask(rng, shape, rate):
    # Inverted dropout: scale at train time so inference needs no rescale.
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _affine(x, w, b):
    y = x @ w
    y += b
    return y


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _scatter_rows(ids, dx, n_rows):
    """Sum the rows of ``dx`` [..., d] into an [n_rows, d] table by ``ids``;
    the same sums, added in the same order, as ``np.add.at``."""
    d = dx.shape[-1]
    flat = (ids[..., None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=dx.ravel(), minlength=n_rows * d).reshape(n_rows, d)


class Classifier:
    """Encoder plus sigmoid head; parameters live in a flat name->array dict."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        d, f = config.d_model, config.ffn_dim

        def w(*shape):
            return rng.normal(0.0, 0.02, size=shape)

        params = {
            "tok_emb": w(config.vocab_size, d),
            "pos_emb": w(config.max_seq_len, d),
            "seg_emb": w(config.n_segments, d),
            "head_w": w(d),
            "head_b": np.zeros(1),
        }
        for i in range(config.n_layers):
            params.update({
                f"l{i}.wq": w(d, d), f"l{i}.bq": np.zeros(d),
                f"l{i}.wk": w(d, d), f"l{i}.bk": np.zeros(d),
                f"l{i}.wv": w(d, d), f"l{i}.bv": np.zeros(d),
                f"l{i}.wo": w(d, d), f"l{i}.bo": np.zeros(d),
                f"l{i}.ln1_g": np.ones(d), f"l{i}.ln1_b": np.zeros(d),
                f"l{i}.w1": w(d, f), f"l{i}.b1": np.zeros(f),
                f"l{i}.w2": w(f, d), f"l{i}.b2": np.zeros(d),
                f"l{i}.ln2_g": np.ones(d), f"l{i}.ln2_b": np.zeros(d),
            })
        self.params = params

    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())

    def check_finite(self) -> bool:
        return all(np.isfinite(p).all() for p in self.params.values())

    # -- forward ---------------------------------------------------------

    def _validate(self, tok, seg, mask):
        cfg = self.config
        if tok.shape != seg.shape or tok.shape != mask.shape:
            raise ValueError("token, segment, and mask arrays must share a shape")
        if tok.shape[1] > cfg.max_seq_len:
            raise ValueError(f"sequence length {tok.shape[1]} exceeds {cfg.max_seq_len}")
        if tok.size and tok.max() >= cfg.vocab_size:
            raise ValueError(f"token id {int(tok.max())} >= vocab size {cfg.vocab_size}")
        if seg.size and seg.max() >= cfg.n_segments:
            raise ValueError(
                f"segment id {int(seg.max())} >= segment table size {cfg.n_segments}")

    def _forward(self, tok, seg, mask, train=False, rng=None):
        """Batched forward pass; returns (logits [B], cache for backward).

        ``mask`` is 1 for real tokens and 0 for padding; padded positions
        are excluded as attention keys, so their token ids cannot affect
        the CLS output.
        """
        cfg = self.config
        p = self.params
        self._validate(tok, seg, mask)
        drop = cfg.dropout if train else 0.0
        if drop > 0 and rng is None:
            raise ValueError("training-mode forward needs an rng for dropout")
        B, L = tok.shape
        maskf = mask.astype(np.float64)
        bias = (1.0 - maskf)[:, None, None, :] * _MASK_BIAS

        x = p["tok_emb"][tok]
        x += p["pos_emb"][:L][None, :, :]
        x += p["seg_emb"][seg]
        if not cfg.n_layers:
            x = x[:, :1]  # the head reads only the CLS row
        cache = {"tok": tok, "seg": seg, "drop": drop, "layers": []}
        if drop > 0:
            m = _dropout_mask(rng, x.shape, drop)
            x *= m
            cache["emb_drop"] = m

        n_heads = cfg.n_heads
        scale = 1.0 / np.sqrt(cfg.d_model / n_heads)
        for i in range(cfg.n_layers):
            # The last layer computes only the CLS row (see the module doc).
            rows = slice(0, 1) if i == cfg.n_layers - 1 else slice(None)
            xq = x[:, rows]
            lc = {"x_in": x, "rows": rows}
            q = _split_heads(_affine(xq, p[f"l{i}.wq"], p[f"l{i}.bq"]), n_heads)
            k = _split_heads(_affine(x, p[f"l{i}.wk"], p[f"l{i}.bk"]), n_heads)
            v = _split_heads(_affine(x, p[f"l{i}.wv"], p[f"l{i}.bv"]), n_heads)
            scores = q @ k.transpose(0, 1, 3, 2)
            scores *= scale
            scores += bias
            attn = _softmax(scores)
            attn_used = attn
            if drop > 0:
                lc["attn_drop"] = _dropout_mask(rng, attn.shape, drop)
                attn_used = attn * lc["attn_drop"]
            ctx = _merge_heads(attn_used @ v)
            proj = _affine(ctx, p[f"l{i}.wo"], p[f"l{i}.bo"])
            if drop > 0:
                lc["proj_drop"] = _dropout_mask(rng, proj.shape, drop)
                proj *= lc["proj_drop"]
            proj += xq
            x1, lc["ln1"] = _layer_norm_forward(proj, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])

            hidden = _affine(x1, p[f"l{i}.w1"], p[f"l{i}.b1"])
            np.maximum(hidden, 0.0, out=hidden)
            ffn = _affine(hidden, p[f"l{i}.w2"], p[f"l{i}.b2"])
            if drop > 0:
                lc["ffn_drop"] = _dropout_mask(rng, ffn.shape, drop)
                ffn *= lc["ffn_drop"]
            ffn += x1
            x2, lc["ln2"] = _layer_norm_forward(ffn, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])

            lc.update(q=q, k=k, v=v, attn=attn, attn_used=attn_used,
                      ctx=ctx, x1=x1, hidden=hidden)
            cache["layers"].append(lc)
            x = x2

        cls = x[:, 0, :]
        cache["cls"] = cls
        logits = cls @ p["head_w"] + p["head_b"][0]
        return logits, cache

    def _backward(self, cache, dlogits):
        """Gradients of the scalar objective w.r.t. every parameter, given
        d(objective)/d(logit) per example."""
        cfg = self.config
        p = self.params
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}
        drop = cache["drop"]
        n_heads = cfg.n_heads
        scale = 1.0 / np.sqrt(cfg.d_model / n_heads)

        cls = cache["cls"]
        grads["head_w"] += dlogits @ cls
        grads["head_b"][0] += dlogits.sum()
        # Gradient w.r.t. the rows the last layer computed: the CLS row.
        dx = (dlogits[:, None] * p["head_w"][None, :])[:, None, :]

        for i in reversed(range(cfg.n_layers)):
            lc = cache["layers"][i]
            x_in, x1, hidden = lc["x_in"], lc["x1"], lc["hidden"]

            dr2, dg2, db2 = _layer_norm_backward(dx, lc["ln2"])
            grads[f"l{i}.ln2_g"] += dg2
            grads[f"l{i}.ln2_b"] += db2
            dffn = dr2 * lc["ffn_drop"] if drop > 0 else dr2
            flat_h = hidden.reshape(-1, cfg.ffn_dim)
            flat_dffn = dffn.reshape(-1, cfg.d_model)
            grads[f"l{i}.w2"] += flat_h.T @ flat_dffn
            grads[f"l{i}.b2"] += flat_dffn.sum(axis=0)
            dpre = dffn @ p[f"l{i}.w2"].T
            dpre *= hidden > 0
            flat_x1 = x1.reshape(-1, cfg.d_model)
            flat_dpre = dpre.reshape(-1, cfg.ffn_dim)
            grads[f"l{i}.w1"] += flat_x1.T @ flat_dpre
            grads[f"l{i}.b1"] += flat_dpre.sum(axis=0)
            dx1 = dpre @ p[f"l{i}.w1"].T
            dx1 += dr2

            dr1, dg1, db1 = _layer_norm_backward(dx1, lc["ln1"])
            grads[f"l{i}.ln1_g"] += dg1
            grads[f"l{i}.ln1_b"] += db1
            dproj = dr1 * lc["proj_drop"] if drop > 0 else dr1
            flat_ctx = lc["ctx"].reshape(-1, cfg.d_model)
            flat_dproj = dproj.reshape(-1, cfg.d_model)
            grads[f"l{i}.wo"] += flat_ctx.T @ flat_dproj
            grads[f"l{i}.bo"] += flat_dproj.sum(axis=0)
            dctx = _split_heads(dproj @ p[f"l{i}.wo"].T, n_heads)

            dv = lc["attn_used"].transpose(0, 1, 3, 2) @ dctx
            dscores = _softmax_backward(dctx @ lc["v"].transpose(0, 1, 3, 2), lc["attn"],
                                        lc.get("attn_drop"))
            dq = dscores @ lc["k"]
            dq *= scale
            dk = dscores.transpose(0, 1, 3, 2) @ lc["q"]
            dk *= scale

            # The query side and the residual reach only the layer's rows;
            # keys and values reach every position.
            rows = lc["rows"]
            dx = np.zeros_like(x_in)
            dx[:, rows] = dr1
            for name, dhead, src_rows in (("wq", dq, rows), ("wk", dk, slice(None)),
                                          ("wv", dv, slice(None))):
                dmerged = _merge_heads(dhead)
                flat_d = dmerged.reshape(-1, cfg.d_model)
                grads[f"l{i}.{name}"] += x_in[:, src_rows].reshape(-1, cfg.d_model).T @ flat_d
                grads[f"l{i}.b{name[1]}"] += flat_d.sum(axis=0)
                dx[:, src_rows] += dmerged @ p[f"l{i}.{name}"].T

        # dx covers every position, or the CLS row alone when there is no layer.
        n = dx.shape[1]
        if drop > 0:
            dx *= cache["emb_drop"]
        grads["tok_emb"] += _scatter_rows(cache["tok"][:, :n], dx, cfg.vocab_size)
        grads["pos_emb"][:n] += dx.sum(axis=0)
        grads["seg_emb"] += _scatter_rows(cache["seg"][:, :n], dx, cfg.n_segments)
        return grads

    # -- public inference ------------------------------------------------

    def forward(self, inp: AssembledInput) -> float:
        """Match probability for one assembled input, strictly inside (0, 1)."""
        probs = self.forward_batch(inp.token_ids[None, :], inp.segment_ids[None, :],
                                   inp.mask[None, :])
        return float(probs[0])

    def forward_batch(self, tok, seg, mask) -> np.ndarray:
        logits, _ = self._forward(np.asarray(tok), np.asarray(seg), np.asarray(mask))
        return np.clip(sigmoid(logits), _PROB_EPS, 1.0 - _PROB_EPS)


def _stack(inputs: list[AssembledInput]):
    tok = np.stack([inp.token_ids for inp in inputs])
    seg = np.stack([inp.segment_ids for inp in inputs])
    mask = np.stack([inp.mask for inp in inputs])
    return tok, seg, mask


def _trim(tok, seg, mask):
    # Drop all-padding columns shared by the whole batch; exact no-op on
    # the result because masked keys contribute zero attention weight.
    lengths = mask.sum(axis=1)
    lmax = max(1, int(lengths.max()))
    return tok[:, :lmax], seg[:, :lmax], mask[:, :lmax]


@dataclass
class TrainResult:
    model: Classifier
    history: list[float]


def _adam_step(param, g, m, v, step, lr):
    """One Adam step on ``param``, ``m`` and ``v`` in place, with the
    operations of ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``param -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``; ``g`` is overwritten."""
    tmp = np.multiply(g, 1 - _BETA1)
    m *= _BETA1
    m += tmp
    np.multiply(g, 1 - _BETA2, out=tmp)
    tmp *= g
    v *= _BETA2
    v += tmp
    np.divide(v, 1.0 - _BETA2 ** step, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += _ADAM_EPS
    np.divide(m, 1.0 - _BETA1 ** step, out=g)
    g *= lr
    g /= tmp
    param -= g


def train(model: Classifier, data: list[tuple[AssembledInput, int]],
          cfg: TrainConfig) -> TrainResult:
    """Mini-batch gradient descent with Adam and global-norm clipping.

    ``data`` is a list of (assembled input, 0/1 label).  The seed fixes
    shuffling and dropout, so identical calls produce identical loss
    histories.  A non-finite batch loss or gradient norm aborts, before
    that batch's update, with a diagnostic naming the epoch and batch.
    """
    if not data:
        raise ValueError("training data must be non-empty")
    for _, label in data:
        if label not in (0, 1):
            raise ValueError(f"labels must be 0 or 1, got {label!r}")
    tok_all, seg_all, mask_all = _stack([inp for inp, _ in data])
    y_all = np.asarray([label for _, label in data], dtype=np.float64)
    n = len(data)
    rng = np.random.default_rng(cfg.seed)

    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v = {k: np.zeros_like(v) for k, v in model.params.items()}
    # Token rows some batch has used; the others have m = v = 0 and take
    # an Adam step of exactly 0 (see the module doc).
    seen = np.zeros(model.config.vocab_size, dtype=bool)
    step = 0
    history = []

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_sum = 0.0
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            tok, seg, mask = _trim(tok_all[idx], seg_all[idx], mask_all[idx])
            seen[tok] = True
            y = y_all[idx]
            logits, cache = model._forward(tok, seg, mask, train=True, rng=rng)
            losses = _losses_from_logits(logits, y)
            batch_loss = losses.mean()
            if not np.isfinite(batch_loss):
                raise TrainingAborted(
                    f"non-finite loss at epoch {epoch} batch {batch_index}")
            epoch_sum += float(losses.sum())
            dlogits = (sigmoid(logits) - y) / len(idx)
            grads = model._backward(cache, dlogits)

            # Checked before the update: an inf norm would make the clip
            # factor 0 and write inf * 0 = NaN into the parameters.
            norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
            if not np.isfinite(norm):
                raise TrainingAborted(
                    f"non-finite gradient at epoch {epoch} batch {batch_index}")
            if cfg.clip_norm > 0 and norm > cfg.clip_norm:
                factor = cfg.clip_norm / norm
                for g in grads.values():
                    g *= factor
            step += 1
            for key, g in grads.items():
                if key == "tok_emb":
                    rows = np.flatnonzero(seen)
                    param, mk, vk = model.params[key][rows], m[key][rows], v[key][rows]
                    _adam_step(param, g[rows], mk, vk, step, cfg.learning_rate)
                    model.params[key][rows], m[key][rows], v[key][rows] = param, mk, vk
                else:
                    _adam_step(model.params[key], g, m[key], v[key], step, cfg.learning_rate)
        history.append(epoch_sum / n)
    return TrainResult(model=model, history=history)


def grad_check(config: ModelConfig | None = None, n_probes: int = 100,
               h: float = 1e-4, seed: int = 0, batch_size: int = 4) -> float:
    """Max relative error between backprop and central finite differences.

    Probes are drawn among parameters whose analytic gradient magnitude
    exceeds a small floor; exactly-zero gradients (for example rows of the
    token table the batch never touches) carry no information about the
    backward pass and would only measure finite-difference noise.
    """
    if config is None:
        config = ModelConfig(vocab_size=32, d_model=16, n_layers=1, n_heads=2,
                             ffn_dim=32, n_segments=4, max_seq_len=8, dropout=0.0)
    model = Classifier(config, seed=seed)
    rng = np.random.default_rng(seed + 1)
    L = config.max_seq_len
    tok = rng.integers(0, config.vocab_size, size=(batch_size, L))
    seg = rng.integers(0, config.n_segments, size=(batch_size, L))
    lengths = rng.integers(2, L + 1, size=batch_size)
    mask = (np.arange(L)[None, :] < lengths[:, None]).astype(np.int64)
    y = rng.integers(0, 2, size=batch_size).astype(np.float64)

    def objective():
        logits, _ = model._forward(tok, seg, mask)
        return float(_losses_from_logits(logits, y).mean())

    logits, cache = model._forward(tok, seg, mask)
    dlogits = (sigmoid(logits) - y) / batch_size
    analytic = model._backward(cache, dlogits)

    candidates = []
    for name, grad in analytic.items():
        flat = np.abs(grad.ravel())
        for idx in np.flatnonzero(flat > 1e-6):
            candidates.append((name, int(idx)))
    if len(candidates) < n_probes:
        raise RuntimeError("not enough informative parameters to probe")
    chosen = rng.choice(len(candidates), size=n_probes, replace=False)

    worst = 0.0
    for pick in chosen:
        name, idx = candidates[pick]
        flat = model.params[name].ravel()
        original = flat[idx]
        flat[idx] = original + h
        plus = objective()
        flat[idx] = original - h
        minus = objective()
        flat[idx] = original
        numeric = (plus - minus) / (2.0 * h)
        exact = float(analytic[name].ravel()[idx])
        denom = max(abs(exact), abs(numeric), 1e-8)
        worst = max(worst, abs(exact - numeric) / denom)
    return worst


SCORE_CHUNK = 64


def score(model: Classifier, inputs: list[AssembledInput]) -> np.ndarray:
    """Match probability of each input, in order: the distinct inputs are
    stacked ``SCORE_CHUNK`` at a time and each chunk is trimmed to its
    longest input before the forward pass.

    Each distinct input is run once and its probability given to every
    copy, so identical inputs score exactly equal; BLAS can round identical
    rows differently depending on where they sit in a batch."""
    slot_of, distinct, slots = {}, [], []
    for inp in inputs:
        key = (inp.token_ids.tobytes(), inp.segment_ids.tobytes(), inp.mask.tobytes())
        if key not in slot_of:
            slot_of[key] = len(distinct)
            distinct.append(inp)
        slots.append(slot_of[key])
    probs = [model.forward_batch(*_trim(*_stack(distinct[start:start + SCORE_CHUNK])))
             for start in range(0, len(distinct), SCORE_CHUNK)]
    return np.concatenate(probs)[slots] if probs else np.zeros(0)


@dataclass
class Prediction:
    """Argmax choice plus the score of every candidate, in candidate order."""

    chosen: str | None
    scores: dict[str, float]

    @property
    def no_candidates(self) -> bool:
        return self.chosen is None and not self.scores


def predict(model: Classifier, mention: Mention, candidates, pipeline) -> Prediction:
    """Score each candidate with its own assembled input and pick the
    highest probability; exact ties break toward the smaller entity id."""
    if isinstance(candidates, CandidateSet):
        entity_ids = list(candidates.entities)
    else:
        entity_ids = list(candidates)
    if not entity_ids:
        return Prediction(chosen=None, scores={})
    probs = score(model, [pipeline.encode_pair(mention, e) for e in entity_ids])
    scores = {e: float(p) for e, p in zip(entity_ids, probs)}
    chosen = sorted(scores, key=lambda e: (-scores[e], e))[0]
    return Prediction(chosen=chosen, scores=scores)


# -- checkpoints ---------------------------------------------------------


def save_checkpoint(path: str, model: Classifier, vocab: Vocab | None = None,
                    ctx: ContextConfig | None = None) -> None:
    """Versioned npz checkpoint embedding the model config, parameters,
    and optionally the vocab and context configuration used to train."""
    arrays = {
        "format": np.array(f"{CHECKPOINT_FORMAT}/{CHECKPOINT_VERSION}"),
        "model_config": np.array(json.dumps(asdict(model.config))),
    }
    if vocab is not None:
        if vocab.size != model.config.vocab_size:
            raise CheckpointError(
                f"vocab size {vocab.size} does not match model vocab "
                f"{model.config.vocab_size}")
        arrays["vocab"] = np.array("\n".join(vocab.tokens))
    if ctx is not None:
        arrays["ctx_config"] = np.array(json.dumps(asdict(ctx)))
    for name, value in model.params.items():
        arrays["param/" + name] = value
    np.savez(path, **arrays)


@dataclass
class CheckpointBundle:
    model: Classifier
    vocab: Vocab | None
    ctx: ContextConfig | None


def load_checkpoint(path: str, expected_vocab_size: int | None = None) -> CheckpointBundle:
    try:
        with np.load(path, allow_pickle=False) as data:
            files = dict(data)
    except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
        raise CheckpointError(f"{path}: not a readable checkpoint ({exc})") from exc
    fmt = str(files.get("format", ""))
    if fmt != f"{CHECKPOINT_FORMAT}/{CHECKPOINT_VERSION}":
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {fmt!r}, "
            f"expected {CHECKPOINT_FORMAT}/{CHECKPOINT_VERSION}")
    config = _load_config(path, files, "model_config", ModelConfig)
    if expected_vocab_size is not None and config.vocab_size != expected_vocab_size:
        raise CheckpointError(
            f"{path}: checkpoint vocab size {config.vocab_size} does not match "
            f"expected {expected_vocab_size}; refusing to load")
    model = Classifier(config, seed=0)
    for name in model.params:
        key = "param/" + name
        if key not in files:
            raise CheckpointError(f"{path}: missing parameter {name!r}")
        if files[key].shape != model.params[name].shape:
            raise CheckpointError(f"{path}: parameter {name!r} has wrong shape")
        model.params[name] = files[key].astype(np.float64)
    vocab = None
    if "vocab" in files:
        text = str(files["vocab"])
        vocab = Vocab(text.split("\n") if text else [])
        if vocab.size != config.vocab_size:
            raise CheckpointError(f"{path}: embedded vocab does not match model config")
    ctx = None
    if "ctx_config" in files:
        ctx = _load_config(path, files, "ctx_config", ContextConfig)
    return CheckpointBundle(model=model, vocab=vocab, ctx=ctx)


def _load_config(path: str, files: dict, key: str, cls):
    """``cls`` built from the JSON object stored under ``key``; any failure
    is a CheckpointError naming the file."""
    if key not in files:
        raise CheckpointError(f"{path}: missing {key}")
    try:
        values = json.loads(str(files[key]))
        # Older context configs carry include_sentence, which was always true.
        if cls is ContextConfig and values.pop("include_sentence", True) is not True:
            raise ValueError("include_sentence=false is not supported")
        return cls(**values)
    except (AttributeError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad {key} ({exc})") from exc
