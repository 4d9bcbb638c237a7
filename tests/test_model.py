"""Classifier, training loop, gradient check, prediction, checkpoints."""

import json
import math

import numpy as np
import pytest

from kgned.assembly import AssembledInput, Mention
from kgned.model import (
    CheckpointError,
    Classifier,
    ModelConfig,
    TrainConfig,
    TrainingAborted,
    bce_loss,
    grad_check,
    load_checkpoint,
    _layer_norm_backward,
    _layer_norm_forward,
    _scatter_rows,
    _softmax,
    _softmax_backward,
    predict,
    save_checkpoint,
    score,
    sigmoid,
    train,
)
from kgned.context import ContextConfig
from kgned.tokenizer import build_vocab


TINY = ModelConfig(vocab_size=16, d_model=16, n_layers=1, n_heads=2,
                   ffn_dim=32, n_segments=2, max_seq_len=8, dropout=0.0)


def _inp(tokens, segments=None, length=None, limit=8):
    """AssembledInput from short python lists, padded to ``limit``."""
    if length is None:
        length = len(tokens)
    tok = np.asarray(list(tokens) + [0] * (limit - len(tokens)), dtype=np.int64)
    if segments is None:
        seg = np.zeros(limit, dtype=np.int64)
    else:
        seg = np.asarray(list(segments) + [0] * (limit - len(segments)), dtype=np.int64)
    mask = np.asarray([1] * length + [0] * (limit - length), dtype=np.int64)
    return AssembledInput(token_ids=tok, segment_ids=seg, mask=mask, length=length)


def _prob(model, inp):
    """Match probability of one assembled input."""
    return float(model.forward_batch(inp.token_ids[None, :], inp.segment_ids[None, :],
                                     inp.mask[None, :])[0])


def _toy_data(n=32):
    """Label 1 iff the body token is 5, else the body token is 6."""
    data = []
    for i in range(n):
        token = 5 if i % 2 == 0 else 6
        body_len = 3 + (i % 3)
        tokens = [2] + [token] * body_len + [3]
        data.append((_inp(tokens), 1 if token == 5 else 0))
    return data


# -- activations and losses ----------------------------------------------


def test_sigmoid_matches_closed_form_and_is_symmetric():
    z = np.array([-30.0, -2.0, 0.0, 0.5, 40.0])
    expected = 1.0 / (1.0 + np.exp(-z))
    assert np.allclose(sigmoid(z), expected)
    assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)


def test_sigmoid_extreme_logits_stay_finite():
    z = np.array([-1e9, 1e9])
    out = sigmoid(z)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[1] == 1.0


def test_bce_loss_at_half_is_ln_two():
    assert bce_loss(0.5, 1) == pytest.approx(math.log(2.0))
    assert bce_loss(0.5, 0) == pytest.approx(math.log(2.0))


def test_bce_loss_limits():
    assert bce_loss(1.0 - 1e-9, 1) < 1e-8
    assert bce_loss(1e-9, 0) < 1e-8
    assert bce_loss(1e-9, 1) > 10.0
    # the clamp keeps exact 0/1 probabilities finite
    assert math.isfinite(bce_loss(0.0, 1))
    assert math.isfinite(bce_loss(1.0, 0))


# -- forward pass --------------------------------------------------------


def test_forward_probability_strictly_inside_unit_interval():
    model = Classifier(TINY, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        tokens = rng.integers(0, TINY.vocab_size, size=6).tolist()
        p = _prob(model, _inp(tokens))
        assert 0.0 < p < 1.0


def test_forward_deterministic_outside_training():
    model = Classifier(TINY, seed=0)
    inp = _inp([2, 5, 6, 7, 3])
    assert _prob(model, inp) == _prob(model, inp)


def test_padding_tokens_never_influence_the_output():
    model = Classifier(TINY, seed=0)
    base = _inp([2, 5, 6, 7, 3])
    scrambled = _inp([2, 5, 6, 7, 3])
    scrambled.token_ids[5:] = [9, 11, 1]  # junk ids behind the mask
    scrambled.segment_ids[5:] = 1
    assert _prob(model, base) == _prob(model, scrambled)


def test_trailing_padding_columns_are_an_exact_no_op():
    # The same five real tokens, once padded to 8 and once to only 5.
    model = Classifier(TINY, seed=0)
    tok = np.array([[2, 5, 6, 7, 3]])
    seg = np.zeros((1, 5), dtype=np.int64)
    mask = np.ones((1, 5), dtype=np.int64)
    short = model.forward_batch(tok, seg, mask)
    padded = model.forward_batch(
        np.pad(tok, ((0, 0), (0, 3))), np.pad(seg, ((0, 0), (0, 3))),
        np.pad(mask, ((0, 0), (0, 3))))
    assert short[0] == padded[0]


def _reference_logits(model, tok, seg, mask):
    """The encoder written out plainly: every layer computes every position."""
    cfg, p = model.config, model.params
    heads, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    x = p["tok_emb"][tok] + p["pos_emb"][:tok.shape[1]] + p["seg_emb"][seg]
    bias = np.where(mask[:, None, None, :] > 0, 0.0, -1e9)

    def norm(z, gain, shift):
        centered = z - z.mean(axis=-1, keepdims=True)
        return gain * centered / np.sqrt(z.var(axis=-1, keepdims=True) + 1e-5) + shift

    def split(z):
        return z.reshape(*z.shape[:2], heads, dh).transpose(0, 2, 1, 3)

    for i in range(cfg.n_layers):
        lp = {k.split(".", 1)[1]: v for k, v in p.items() if k.startswith(f"l{i}.")}
        q, k, v = (split(x @ lp["w" + n] + lp["b" + n]) for n in "qkv")
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh) + bias
        attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(x.shape)
        x = norm(x + ctx @ lp["wo"] + lp["bo"], lp["ln1_g"], lp["ln1_b"])
        ffn = np.maximum(x @ lp["w1"] + lp["b1"], 0.0) @ lp["w2"] + lp["b2"]
        x = norm(x + ffn, lp["ln2_g"], lp["ln2_b"])
    return x[:, 0] @ p["head_w"] + p["head_b"][0]


@pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
def test_forward_matches_all_positions_reference(n_layers):
    # The last layer computes only the CLS row; the logits must equal the
    # all-positions encoder up to rounding.
    cfg = ModelConfig(vocab_size=40, d_model=16, n_layers=n_layers, n_heads=4,
                      ffn_dim=24, n_segments=5, max_seq_len=12, dropout=0.0)
    model = Classifier(cfg, seed=n_layers)
    rng = np.random.default_rng(10 + n_layers)
    for arr in model.params.values():  # larger weights make attention peaked
        arr[...] = rng.normal(0.0, 0.3, size=arr.shape)
    for _ in range(3):
        tok = rng.integers(0, cfg.vocab_size, size=(6, 12))
        seg = rng.integers(0, cfg.n_segments, size=(6, 12))
        lengths = rng.integers(1, 13, size=6)
        mask = (np.arange(12)[None, :] < lengths[:, None]).astype(np.int64)
        logits, _ = model._forward(tok, seg, mask)
        assert np.max(np.abs(logits - _reference_logits(model, tok, seg, mask))) < 1e-12


def test_forward_rejects_out_of_range_ids():
    model = Classifier(TINY, seed=0)
    bad_token = _inp([2, TINY.vocab_size, 3])
    with pytest.raises(ValueError):
        _prob(model, bad_token)
    bad_segment = _inp([2, 5, 3], segments=[0, TINY.n_segments, 0])
    with pytest.raises(ValueError):
        _prob(model, bad_segment)
    too_long = np.zeros((1, TINY.max_seq_len + 1), dtype=np.int64)
    with pytest.raises(ValueError):
        model.forward_batch(too_long, too_long, np.ones_like(too_long))


def test_fresh_model_near_chance_loss_on_random_labels():
    # Initialisation scale 0.02 keeps logits close to zero, so the loss on
    # arbitrary labels starts out around ln 2.
    model = Classifier(ModelConfig(vocab_size=32, d_model=32, n_layers=2,
                                   n_heads=2, ffn_dim=64, n_segments=4,
                                   max_seq_len=16, dropout=0.0), seed=9)
    rng = np.random.default_rng(2)
    tok = rng.integers(0, 32, size=(24, 16))
    seg = rng.integers(0, 4, size=(24, 16))
    mask = np.ones((24, 16), dtype=np.int64)
    probs = model.forward_batch(tok, seg, mask)
    labels = rng.integers(0, 2, size=24)
    mean_loss = sum(bce_loss(p, y) for p, y in zip(probs, labels)) / len(labels)
    assert mean_loss == pytest.approx(math.log(2.0), abs=0.05)


def test_num_params_hand_count():
    cfg = ModelConfig(vocab_size=8, d_model=4, n_layers=1, n_heads=2,
                      ffn_dim=8, n_segments=2, max_seq_len=4, dropout=0.0)
    model = Classifier(cfg, seed=0)
    embeddings = 8 * 4 + 4 * 4 + 2 * 4
    attention = 4 * (4 * 4) + 4 * 4          # wq/wk/wv/wo and their biases
    ffn = 4 * 8 + 8 + 8 * 4 + 4
    norms = 2 * (4 + 4)
    head = 4 + 1
    assert sum(p.size for p in model.params.values()) == embeddings + attention + ffn + norms + head


def test_check_finite_flags_poisoned_parameters():
    model = Classifier(TINY, seed=0)
    assert model.check_finite()
    model.params["head_w"][0] = np.inf
    assert not model.check_finite()


# -- config validation ---------------------------------------------------


def test_model_config_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=16, d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=16, n_layers=-1)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=16, dropout=1.0)
    ModelConfig(vocab_size=16, n_layers=0, dropout=0.0)  # degenerate but legal


def test_train_config_bounds():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=-0.5)
    TrainConfig(learning_rate=0.0, clip_norm=0.0)  # both zeros are meaningful


# -- training ------------------------------------------------------------


def test_train_learns_linearly_separable_tokens():
    model = Classifier(TINY, seed=3)
    data = _toy_data()
    result = train(model, data, TrainConfig(learning_rate=1e-2, batch_size=8,
                                            epochs=50, seed=3))
    assert result.history[-1] < result.history[0]
    correct = sum((_prob(model, inp) >= 0.5) == bool(label) for inp, label in data)
    assert correct == len(data)


def test_train_same_seed_bitwise_identical():
    cfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=3, seed=7)
    noisy = ModelConfig(vocab_size=16, d_model=16, n_layers=1, n_heads=2,
                        ffn_dim=32, n_segments=2, max_seq_len=8, dropout=0.1)
    runs = []
    for _ in range(2):
        model = Classifier(noisy, seed=5)
        runs.append(train(model, _toy_data(), cfg))
    assert runs[0].history == runs[1].history
    for name in runs[0].model.params:
        assert np.array_equal(runs[0].model.params[name], runs[1].model.params[name])


def test_train_different_seed_changes_history():
    data = _toy_data()
    histories = []
    for seed in (0, 1):
        model = Classifier(TINY, seed=5)
        cfg = TrainConfig(learning_rate=1e-2, batch_size=8, epochs=3, seed=seed)
        histories.append(train(model, data, cfg).history)
    assert histories[0] != histories[1]


def test_zero_learning_rate_keeps_loss_flat():
    model = Classifier(TINY, seed=4)
    before = {k: v.copy() for k, v in model.params.items()}
    result = train(model, _toy_data(), TrainConfig(learning_rate=0.0, batch_size=8,
                                                   epochs=4, seed=0))
    spread = max(result.history) - min(result.history)
    assert spread < 1e-9  # only summation order differs between epochs
    for name, value in before.items():
        assert np.array_equal(value, model.params[name])


def test_train_rejects_empty_or_mislabeled_data():
    model = Classifier(TINY, seed=0)
    with pytest.raises(ValueError):
        train(model, [], TrainConfig())
    with pytest.raises(ValueError):
        train(model, [(_inp([2, 5, 3]), 2)], TrainConfig())


def test_train_aborts_on_non_finite_loss():
    model = Classifier(TINY, seed=0)
    model.params["head_b"][0] = np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingAborted, match="epoch 0 batch 0"):
            train(model, _toy_data(), TrainConfig(epochs=1, batch_size=8))


@pytest.mark.parametrize("clip_norm", [1.0, 0.0])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_train_aborts_on_non_finite_gradient_before_the_update(monkeypatch, clip_norm,
                                                               bad):
    backward = Classifier._backward
    seen = []

    def poisoned(self, cache, dlogits):
        grads = backward(self, cache, dlogits)
        seen.append({k: v.copy() for k, v in self.params.items()})
        if len(seen) == 3:  # epoch 0 batch 2
            grads["l0.w1"][0, 0] = bad
        return grads

    monkeypatch.setattr(Classifier, "_backward", poisoned)
    model = Classifier(TINY, seed=0)
    with pytest.raises(TrainingAborted, match="non-finite gradient at epoch 0 batch 2$"):
        train(model, _toy_data(), TrainConfig(epochs=1, batch_size=8, clip_norm=clip_norm))
    assert model.check_finite()
    for name, value in seen[-1].items():
        assert np.array_equal(value, model.params[name])


# -- gradients -----------------------------------------------------------


def test_grad_check_full_model():
    assert grad_check(n_probes=60, seed=0) < 1e-3


def test_grad_check_two_layers():
    # The first layer runs every query row, the second only the CLS row.
    cfg = ModelConfig(vocab_size=32, d_model=16, n_layers=2, n_heads=2,
                      ffn_dim=32, n_segments=4, max_seq_len=8, dropout=0.0)
    assert grad_check(config=cfg, n_probes=60, seed=0) < 1e-3


@pytest.mark.parametrize("n_layers", [0, 2])
def test_backward_matches_finite_differences_under_fixed_dropout(n_layers):
    cfg = ModelConfig(vocab_size=20, d_model=8, n_layers=n_layers, n_heads=2,
                      ffn_dim=16, n_segments=3, max_seq_len=6, dropout=0.3)
    model = Classifier(cfg, seed=2)
    rng = np.random.default_rng(3)
    tok = rng.integers(0, 20, size=(5, 6))
    seg = rng.integers(0, 3, size=(5, 6))
    mask = (np.arange(6)[None, :] < rng.integers(1, 7, size=5)[:, None]).astype(np.int64)
    y = rng.integers(0, 2, size=5).astype(np.float64)

    def objective():
        # The same dropout masks on every call.
        logits, cache = model._forward(tok, seg, mask, train=True,
                                       rng=np.random.default_rng(4))
        return float((np.logaddexp(0.0, logits) - y * logits).mean()), logits, cache

    _, logits, cache = objective()
    grads = model._backward(cache, (sigmoid(logits) - y) / len(y))
    direction = {k: rng.normal(size=v.shape) for k, v in model.params.items()}
    analytic = sum(float((grads[k] * d).sum()) for k, d in direction.items())
    h = 1e-5
    sides = []
    for sign in (1.0, -1.0):
        for k, d in direction.items():
            model.params[k] += sign * h * d
        sides.append(objective()[0])
        for k, d in direction.items():
            model.params[k] -= sign * h * d
    numeric = (sides[0] - sides[1]) / (2.0 * h)
    assert abs(numeric - analytic) <= 1e-6 * abs(analytic)


def test_scatter_rows_equals_add_at():
    rng = np.random.default_rng(6)
    ids = rng.integers(0, 50, size=(32, 36))
    dx = rng.normal(size=(32, 36, 8))
    expected = np.zeros((50, 8))
    np.add.at(expected, ids, dx)
    assert np.array_equal(_scatter_rows(ids, dx, 50), expected)


def test_grad_check_embeddings_and_head_only():
    cfg = ModelConfig(vocab_size=16, d_model=8, n_layers=0, n_heads=2,
                      ffn_dim=8, n_segments=2, max_seq_len=8, dropout=0.0)
    # without attention the loss is nearly linear in every parameter, so
    # central differences should agree to near machine precision
    assert grad_check(config=cfg, n_probes=40, seed=1) < 1e-6


def test_position_gradient_symmetric_over_identical_positions():
    cfg = ModelConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2,
                      ffn_dim=16, n_segments=2, max_seq_len=6, dropout=0.0)
    model = Classifier(cfg, seed=5)
    model.params["pos_emb"][:] = 0.0
    tok = np.array([[2, 5, 5, 5, 5, 5]])
    seg = np.zeros((1, 6), dtype=np.int64)
    mask = np.ones((1, 6), dtype=np.int64)
    logits, cache = model._forward(tok, seg, mask)
    dlogits = sigmoid(logits) - np.array([1.0])
    grads = model._backward(cache, dlogits)
    rows = grads["pos_emb"][1:6]
    # positions 1..5 are indistinguishable, so their gradients must agree
    for row in rows[1:]:
        assert np.allclose(row, rows[0], atol=1e-12)


# -- in-place kernels against the allocating formulas -------------------
#
# Each reference below is the allocating formula the in-place kernel
# replaced; the two must agree bit for bit.  Outputs are compared on this
# machine only, since BLAS rounding differs between machines.


def _reference_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _reference_layer_norm_forward(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, (xhat, inv, gamma)


def _reference_layer_norm_backward(dy, cache):
    xhat, inv, gamma = cache
    dgamma = (dy * xhat).sum(axis=(0, 1))
    dbeta = dy.sum(axis=(0, 1))
    dxhat = dy * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return dx, dgamma, dbeta


def _reference_softmax_backward(dattn_used, attn, drop_mask):
    dattn = dattn_used * drop_mask if drop_mask is not None else dattn_used
    return attn * (dattn - (dattn * attn).sum(axis=-1, keepdims=True))


def _masked_scores(rng, b, h, lq, lk):
    """Scaled attention scores plus the -1e9 bias on each input's padding."""
    q = rng.normal(size=(b, h, lq, 16))
    k = rng.normal(size=(b, h, lk, 16))
    lengths = rng.integers(1, lk + 1, size=b)
    bias = (np.arange(lk)[None, :] >= lengths[:, None])[:, None, None, :] * -1e9
    return (q @ k.transpose(0, 1, 3, 2)) * 0.25 + bias


@pytest.mark.parametrize("shape", [(3, 2, 7, 7), (4, 2, 1, 41), (2, 2, 123, 123)])
def test_softmax_in_place_equals_the_allocating_formula(shape):
    rng = np.random.default_rng(sum(shape))
    scores = _masked_scores(rng, *shape)
    expected = _reference_softmax(scores)
    out = _softmax(scores)
    assert out is scores
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("d", [8, 32, 64])
def test_layer_norm_in_place_equals_the_allocating_formulas(d):
    rng = np.random.default_rng(d)
    x = rng.normal(size=(5, 13, d)) * rng.uniform(0.01, 50.0, size=(5, 13, 1))
    gamma, beta = rng.normal(size=d), rng.normal(size=d)
    y, cache = _layer_norm_forward(x.copy(), gamma, beta)
    y_ref, cache_ref = _reference_layer_norm_forward(x, gamma, beta)
    assert np.array_equal(y, y_ref)
    for got, want in zip(cache, cache_ref):
        assert np.array_equal(got, want)

    dy = rng.normal(size=x.shape)
    for got, want in zip(_layer_norm_backward(dy, cache),
                         _reference_layer_norm_backward(dy, cache_ref)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("shape", [(3, 2, 9, 9), (4, 2, 1, 37), (2, 2, 123, 123)])
def test_softmax_backward_in_place_equals_the_allocating_formula(dropout, shape):
    rng = np.random.default_rng(sum(shape) + int(dropout * 10))
    attn = _softmax(_masked_scores(rng, *shape))
    dattn_used = rng.normal(size=shape)
    drop_mask = ((rng.random(shape) >= dropout) / (1.0 - dropout)) if dropout else None
    expected = _reference_softmax_backward(dattn_used, attn, drop_mask)
    out = _softmax_backward(dattn_used, attn, drop_mask)
    assert out is dattn_used
    assert np.array_equal(out, expected)


def _reference_dense_adam_train(model, data, cfg):
    """The training loop with Adam over every parameter row."""
    tok_all = np.stack([inp.token_ids for inp, _ in data])
    seg_all = np.stack([inp.segment_ids for inp, _ in data])
    mask_all = np.stack([inp.mask for inp, _ in data])
    y_all = np.asarray([label for _, label in data], dtype=np.float64)
    n = len(data)
    rng = np.random.default_rng(cfg.seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v = {k: np.zeros_like(v) for k, v in model.params.items()}
    step = 0
    history = []
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_sum = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            lmax = max(1, int(mask_all[idx].sum(axis=1).max()))
            tok, seg, mask = tok_all[idx, :lmax], seg_all[idx, :lmax], mask_all[idx, :lmax]
            y = y_all[idx]
            logits, cache = model._forward(tok, seg, mask, train=True, rng=rng)
            epoch_sum += float((np.logaddexp(0.0, logits) - y * logits).sum())
            grads = model._backward(cache, (sigmoid(logits) - y) / len(idx))
            norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
            if cfg.clip_norm > 0 and norm > cfg.clip_norm:
                for g in grads.values():
                    g *= cfg.clip_norm / norm
            step += 1
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            for key, g in grads.items():
                m[key] = beta1 * m[key] + (1 - beta1) * g
                v[key] = beta2 * v[key] + (1 - beta2) * g * g
                model.params[key] -= cfg.learning_rate * (m[key] / bc1) / (
                    np.sqrt(v[key] / bc2) + eps)
        history.append(epoch_sum / n)
    return history


@pytest.mark.parametrize("clip_norm", [0.05, 0.0])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_train_equals_dense_adam(clip_norm, dropout):
    # A 200-row vocab of which most rows are never used; ids 190-199
    # appear in one example only, which the shuffle puts in a late batch.
    rng = np.random.default_rng(8)
    cfg = ModelConfig(vocab_size=200, d_model=16, n_layers=2, n_heads=2, ffn_dim=24,
                      n_segments=3, max_seq_len=12, dropout=dropout)
    data = []
    for i in range(40):
        length = int(rng.integers(2, 13))
        tokens = rng.integers(1, 30, size=length)
        if i == 17:
            tokens[1:] = 190 + np.arange(length - 1) % 10
        data.append((_inp(tokens, rng.integers(0, 3, size=length), limit=12),
                     int(rng.integers(0, 2))))
    train_cfg = TrainConfig(learning_rate=3e-3, batch_size=6, epochs=3, seed=4,
                            clip_norm=clip_norm)
    first_batch = list(np.random.default_rng(4).permutation(40)).index(17) // 6
    assert first_batch >= 3  # the premise: a late first use

    model = Classifier(cfg, seed=1)
    result = train(model, data, train_cfg)
    reference = Classifier(cfg, seed=1)
    history = _reference_dense_adam_train(reference, data, train_cfg)
    assert result.history == history
    for name, value in reference.params.items():
        assert np.array_equal(model.params[name], value), name
    assert not np.array_equal(model.params["tok_emb"][190],
                              Classifier(cfg, seed=1).params["tok_emb"][190])
    assert np.array_equal(model.params["tok_emb"][100:190],
                          Classifier(cfg, seed=1).params["tok_emb"][100:190])


# -- prediction ----------------------------------------------------------


class _ScriptedPipeline:
    """Encodes the candidate id into the first token so a scripted model
    can hand back a chosen probability per candidate."""

    def __init__(self, entities):
        self.code = {e: i for i, e in enumerate(entities)}

    def encode_pair(self, mention, candidate):
        return _inp([self.code[candidate], 1, 1], limit=4)


class _ScriptedModel:
    def __init__(self, probs):
        self.probs = probs

    def forward_batch(self, tok, seg, mask):
        return np.asarray([self.probs[int(row[0])] for row in tok])


_MENTION = Mention.make("the capital", 4, 11)


def test_predict_picks_highest_probability():
    pipeline = _ScriptedPipeline(["Q2", "Q1", "Q3"])
    model = _ScriptedModel([0.1, 0.9, 0.4])
    out = predict(model, _MENTION, ["Q2", "Q1", "Q3"], pipeline)
    assert out.chosen == "Q1"
    assert out.scores == {"Q2": 0.1, "Q1": 0.9, "Q3": 0.4}


def test_predict_exact_tie_prefers_smaller_entity_id():
    pipeline = _ScriptedPipeline(["Q9", "Q10"])
    model = _ScriptedModel([0.5, 0.5])
    out = predict(model, _MENTION, ["Q9", "Q10"], pipeline)
    assert out.chosen == "Q10"  # lexicographic order, ascending


class _SameInputPipeline:
    def __init__(self, inp):
        self.inp = inp

    def encode_pair(self, mention, candidate):
        return self.inp


def test_identical_inputs_score_exactly_equal_and_tie_to_smaller_id():
    cfg = ModelConfig(vocab_size=200, d_model=32, n_layers=2, n_heads=2, ffn_dim=64,
                      n_segments=17, max_seq_len=96, dropout=0.0)
    model = Classifier(cfg, seed=0)
    for input_seed in range(16):
        rng = np.random.default_rng(input_seed)
        inp = _inp(rng.integers(1, 200, size=36).tolist(),
                   segments=rng.integers(0, 17, size=36).tolist(), limit=96)
        for n in range(2, 9):
            entities = [f"Q{i}" for i in range(n, 0, -1)]
            assert len(set(score(model, [inp] * n).tolist())) == 1
            out = predict(model, _MENTION, entities, _SameInputPipeline(inp))
            assert len(set(out.scores.values())) == 1
            assert out.chosen == "Q1"


def test_predict_single_candidate():
    pipeline = _ScriptedPipeline(["Q7"])
    model = _ScriptedModel([0.2])
    out = predict(model, _MENTION, ["Q7"], pipeline)
    assert out.chosen == "Q7"
    assert out.scores == {"Q7": 0.2}


def test_predict_empty_candidates():
    out = predict(_ScriptedModel([]), _MENTION, [], _ScriptedPipeline([]))
    assert out.chosen is None
    assert out.scores == {}


def test_predict_argmax_invariant_under_monotone_rescaling():
    entities = ["Q1", "Q2", "Q3", "Q4"]
    pipeline = _ScriptedPipeline(entities)
    raw = [0.31, 0.72, 0.05, 0.66]
    halved = [p / 2.0 for p in raw]
    first = predict(_ScriptedModel(raw), _MENTION, entities, pipeline)
    second = predict(_ScriptedModel(halved), _MENTION, entities, pipeline)
    assert first.chosen == second.chosen
    order = sorted(entities, key=lambda e: -first.scores[e])
    assert order == sorted(entities, key=lambda e: -second.scores[e])


# -- checkpoints ---------------------------------------------------------


def _checkpoint_fixture():
    vocab = build_vocab(["alpha beta gamma"])
    cfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2,
                      ffn_dim=16, n_segments=3, max_seq_len=16, dropout=0.0)
    model = Classifier(cfg, seed=21)
    ctx = ContextConfig(hops="1&2", max_triples=1, max_seq_len=16)
    return model, vocab, ctx


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    model, vocab, ctx = _checkpoint_fixture()
    path = str(tmp_path / "model.npz")
    save_checkpoint(path, model, vocab=vocab, ctx=ctx)
    bundle = load_checkpoint(path)
    assert bundle.model.config == model.config
    assert bundle.vocab == vocab
    assert bundle.ctx == ctx
    for name, value in model.params.items():
        assert np.array_equal(bundle.model.params[name], value)
    inp = _inp([2, 4, 5, 3], limit=16)
    assert _prob(bundle.model, inp) == _prob(model, inp)


def test_checkpoint_without_vocab_or_ctx(tmp_path):
    model, _, _ = _checkpoint_fixture()
    path = str(tmp_path / "bare.npz")
    save_checkpoint(path, model)
    bundle = load_checkpoint(path)
    assert bundle.vocab is None
    assert bundle.ctx is None


def test_checkpoint_vocab_size_guard_on_save(tmp_path):
    model, _, _ = _checkpoint_fixture()
    wrong = build_vocab(["only two"])
    with pytest.raises(CheckpointError):
        save_checkpoint(str(tmp_path / "bad.npz"), model, vocab=wrong)


def test_load_checkpoint_truncated_file(tmp_path):
    model, _, _ = _checkpoint_fixture()
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model)
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_load_checkpoint_rejects_foreign_format(tmp_path):
    model, _, _ = _checkpoint_fixture()
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model)
    with np.load(str(path), allow_pickle=False) as data:
        arrays = dict(data)
    arrays["format"] = np.array("someone-elses-format/9")
    rewritten = tmp_path / "foreign.npz"
    np.savez(str(rewritten), **arrays)
    with pytest.raises(CheckpointError, match="format"):
        load_checkpoint(str(rewritten))


def test_load_checkpoint_missing_parameter(tmp_path):
    model, _, _ = _checkpoint_fixture()
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model)
    with np.load(str(path), allow_pickle=False) as data:
        arrays = dict(data)
    del arrays["param/head_w"]
    rewritten = tmp_path / "gutted.npz"
    np.savez(str(rewritten), **arrays)
    with pytest.raises(CheckpointError, match="head_w"):
        load_checkpoint(str(rewritten))


def _rewrite_checkpoint(src, dst, **entries):
    """Copy checkpoint ``src`` to ``dst`` with some entries replaced
    (string values) or removed (None)."""
    with np.load(str(src), allow_pickle=False) as data:
        arrays = dict(data)
    for key, value in entries.items():
        if value is None:
            del arrays[key]
        else:
            arrays[key] = np.array(value)
    np.savez(str(dst), **arrays)


def test_load_checkpoint_accepts_include_sentence_true(tmp_path):
    # Checkpoints written before include_sentence was removed store it as true.
    model, vocab, ctx = _checkpoint_fixture()
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model, vocab=vocab, ctx=ctx)
    old = tmp_path / "old.npz"
    _rewrite_checkpoint(path, old, ctx_config=json.dumps(
        {"hops": "1&2", "max_triples": 1, "max_seq_len": 16, "include_sentence": True}))
    bundle = load_checkpoint(str(old))
    assert bundle.ctx == ctx
    assert bundle.model.config == model.config


def test_load_checkpoint_rejects_include_sentence_false(tmp_path):
    model, vocab, ctx = _checkpoint_fixture()
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model, vocab=vocab, ctx=ctx)
    bad = tmp_path / "no-sentence.npz"
    _rewrite_checkpoint(path, bad, ctx_config=json.dumps(
        {"hops": "1", "max_triples": 1, "max_seq_len": 16, "include_sentence": False}))
    with pytest.raises(CheckpointError, match="include_sentence"):
        load_checkpoint(str(bad))


@pytest.mark.parametrize("entries, message", [
    ({"model_config": None}, "missing model_config"),
    ({"model_config": '{"vocab_size": 7, "colour": "red"}'}, "colour"),
    ({"model_config": '{"d_model": 8}'}, "vocab_size"),
    ({"model_config": "[1, 2]"}, "model_config"),
    ({"ctx_config": '{"hops": "1", "width": 3}'}, "width"),
    ({"ctx_config": '{"hops": "3"}'}, "hops"),
])
def test_load_checkpoint_bad_config_names_the_file(tmp_path, entries, message):
    model, vocab, ctx = _checkpoint_fixture()
    path = tmp_path / "model.npz"
    save_checkpoint(str(path), model, vocab=vocab, ctx=ctx)
    bad = tmp_path / "bad.npz"
    _rewrite_checkpoint(path, bad, **entries)
    with pytest.raises(CheckpointError, match=message) as err:
        load_checkpoint(str(bad))
    assert str(bad) in str(err.value)
