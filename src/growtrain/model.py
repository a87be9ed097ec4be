"""Toy-scale Transformer encoder with a masked-LM head.

Parameters live in a flat ``dict[str, np.ndarray]`` keyed by canonical
names (``layer{i}.w_q``, ``head.w``, ...), which keeps the optimizer,
checkpointing, and growth operators simple.  Forward passes cache what the
hand-written backward needs; there is no autograd.

Reduced configurations used by early growth stages:

- ``ffn_mode="shared"`` with k copies: FFN runs on thin matrices W1'
  (D x H/k) and W2' (H/k x D).
- ``ffn_mode="factorized"`` with rank h: each FFN matrix is a product of
  two thin factors.
- ``pool_k > 1``: the query stream of the *first* attention layer is
  mean-pooled (masked positions exempted, see ``build_pooling``); all
  later layers run at the pooled length.

Whatever the configuration, the *last* layer computes only the rows the MLM
head reads: its queries, residual and FFN run on the masked rows alone,
gathered by row index, against keys and values over the whole stream (see
``encoder_apply`` and ``_query_maps``), and its dropout masks are drawn for
those rows alone.  A one-layer model therefore builds no pooling matrix:
pooling keeps each masked row as it is.

Results go into buffers already in hand: the softmax runs in place on the
scores, dropout scales the GELU output, and residual and gradient sums land
in their freshly computed operand.  Every operation keeps its operands and
their order up to commuting one + or *, so every output has the bits of
the out-of-place expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .errors import InputError, ShapeError, ValidationError
from .rng import Rng

INIT_STD = 0.02
LN_EPS = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    L: int
    D: int
    H: int
    M: int
    N_max: int
    V: int
    dropout_p: float = 0.1
    ffn_mode: str = "full"  # "full" | "shared" | "factorized"
    ffn_k: int = 1          # copies under "shared"
    ffn_h: int = 0          # rank under "factorized"
    pool_k: int = 1
    attn_scale: bool = True

    def validate(self) -> None:
        if min(self.L, self.D, self.H, self.M, self.N_max, self.V) < 1:
            raise ValidationError("model dims must be positive")
        if self.D % self.M != 0:
            raise ValidationError(f"D={self.D} not divisible by M={self.M}")
        if self.ffn_mode == "shared":
            if self.ffn_k < 1 or self.H % self.ffn_k != 0:
                raise ValidationError(
                    f"shared FFN needs k >= 1 dividing H, got k={self.ffn_k}, H={self.H}")
        elif self.ffn_mode == "factorized":
            if not 1 <= self.ffn_h <= min(self.D, self.H):
                raise ValidationError(
                    f"factorized FFN needs 1 <= h <= min(D, H), got h={self.ffn_h}")
        elif self.ffn_mode != "full":
            raise ValidationError(f"unknown ffn_mode {self.ffn_mode!r}")
        if self.pool_k < 1:
            raise ValidationError(f"pool_k must be >= 1, got {self.pool_k}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    def with_(self, **kw) -> "ModelConfig":
        cfg = replace(self, **kw)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return {
            "L": self.L, "D": self.D, "H": self.H, "M": self.M,
            "N_max": self.N_max, "V": self.V, "dropout_p": self.dropout_p,
            "ffn_mode": self.ffn_mode, "ffn_k": self.ffn_k, "ffn_h": self.ffn_h,
            "pool_k": self.pool_k, "attn_scale": self.attn_scale,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        cfg = ModelConfig(**d)
        cfg.validate()
        return cfg


def ffn_shapes(config: ModelConfig) -> dict[str, tuple]:
    D, H = config.D, config.H
    if config.ffn_mode == "full":
        return {"ffn.w1": (D, H), "ffn.w2": (H, D)}
    if config.ffn_mode == "shared":
        hk = H // config.ffn_k
        return {"ffn.w1s": (D, hk), "ffn.w2s": (hk, D)}
    h = config.ffn_h
    return {"ffn.w11": (D, h), "ffn.w12": (h, H),
            "ffn.w21": (H, h), "ffn.w22": (h, D)}


def expected_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Canonical name -> shape map for every parameter tensor."""
    D = config.D
    shapes: dict[str, tuple] = {
        "token_emb": (config.V, D),
        "pos_emb": (config.N_max, D),
        "head.w": (D, config.V),
        "head.b": (config.V,),
    }
    per_ffn = ffn_shapes(config)
    for i in range(config.L):
        p = f"layer{i}."
        shapes[p + "w_q"] = (D, D)
        shapes[p + "w_k_t"] = (D, D)
        shapes[p + "w_v1"] = (D, D)
        shapes[p + "w_v2_t"] = (D, D)
        shapes[p + "ln_attn.gain"] = (D,)
        shapes[p + "ln_attn.bias"] = (D,)
        shapes[p + "ln_ffn.gain"] = (D,)
        shapes[p + "ln_ffn.bias"] = (D,)
        for name, shape in per_ffn.items():
            shapes[p + name] = shape
    return shapes


def shape_audit(params: dict, config: ModelConfig) -> None:
    """Raise ValidationError naming the first tensor whose shape is wrong."""
    expected = expected_shapes(config)
    for name in sorted(expected):
        if name not in params:
            raise ValidationError(f"missing parameter tensor {name!r}")
        got = tuple(params[name].shape)
        if got != expected[name]:
            raise ValidationError(
                f"parameter {name!r} has shape {got}, expected {expected[name]}")
    extra = sorted(set(params) - set(expected))
    if extra:
        raise ValidationError(f"unexpected parameter tensor {extra[0]!r}")


def init_params(config: ModelConfig, rng: Rng) -> dict:
    """Truncated-normal(0, 0.02) matrices, zero biases, unit LN gains."""
    config.validate()
    params = {}
    for name, shape in expected_shapes(config).items():
        if name.endswith(("gain",)):
            params[name] = np.ones(shape)
        elif name.endswith(("bias", ".b")):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.fork(f"init.{name}").truncated_normal(shape, INIT_STD)
    return params


def zero_grads(params: dict) -> dict:
    return {name: np.zeros_like(t) for name, t in params.items()}


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def build_pooling(n: int, masked_positions, k: int):
    """Masked-position-preserving mean pooling as an explicit linear map.

    Each masked position forms its own output row; every maximal run of
    unmasked positions between masked ones is chunked into windows of k and
    each window averaged.  Returns (P, pooled_masked) where P has shape
    (n', n) and ``pooled_masked[j]`` is the output row holding masked
    position j.
    """
    masked = np.asarray(masked_positions, dtype=np.int64)
    pos = np.arange(n)
    is_masked = np.zeros(n, dtype=bool)
    is_masked[masked] = True
    # start of the unmasked run holding each position (one past the last
    # masked position at or before it)
    run_start = np.maximum.accumulate(np.where(is_masked, pos, -1)) + 1
    starts_group = is_masked | ((pos - run_start) % k == 0)
    group = np.cumsum(starts_group) - 1
    P = np.zeros((int(starts_group.sum()), n))
    P[group, pos] = 1.0 / np.bincount(group)[group]
    return P, group[masked].astype(np.int64)


def pooled_length(n: int, k: int) -> int:
    """ceil(n / k): the no-mask pooled length, used by the cost model (the
    masked-row exemption makes the true length data-dependent)."""
    return -(-n // k)


# ---------------------------------------------------------------------------
# Feedforward block
# ---------------------------------------------------------------------------

def _ffn_weights(params: dict, layer: int, config: ModelConfig) -> dict:
    p = f"layer{layer}."
    return {name: params[p + name] for name in ffn_shapes(config)}


def ffn_apply(x: np.ndarray, params: dict, layer: int, config: ModelConfig,
              rng: Rng, training: bool):
    """FFN body (no residual, no layer-norm).  Returns (y, cache).

    The two dropout masks are drawn at the shapes computed, (n, H') then
    (n, D) for the n rows of x: the last layer, which holds only the
    head's rows, draws for those rows alone.  With dropout off ``rng`` is
    not read and may be None.
    """
    w = _ffn_weights(params, layer, config)
    p = config.dropout_p
    if config.ffn_mode == "full":
        pre = ops.matmul(x, w["ffn.w1"])
    elif config.ffn_mode == "shared":
        pre = ops.matmul(x, w["ffn.w1s"])
    else:
        mid1 = ops.matmul(x, w["ffn.w11"])
        pre = ops.matmul(mid1, w["ffn.w12"])
    a_d = ops.gelu(pre)
    mask1 = ops.dropout_mask(a_d.shape, p, rng, training)
    if mask1 is not None:
        ops.apply_dropout(a_d, mask1, p, out=a_d)
    if config.ffn_mode == "full":
        y = ops.matmul(a_d, w["ffn.w2"])
    elif config.ffn_mode == "shared":
        y = ops.matmul(a_d, w["ffn.w2s"])
    else:
        mid2 = ops.matmul(a_d, w["ffn.w21"])
        y = ops.matmul(mid2, w["ffn.w22"])
    mask2 = ops.dropout_mask(y.shape, p, rng, training)
    out = y if mask2 is None else ops.apply_dropout(y, mask2, p, out=y)
    cache = {"x": x, "pre": pre, "a_d": a_d, "mask1": mask1,
             "mask2": mask2, "w": w, "layer": layer,
             "config": config}
    if config.ffn_mode == "factorized":
        cache["mid1"] = mid1
        cache["mid2"] = mid2
    return out, cache


def ffn_backward(g: np.ndarray, cache: dict):
    """Adjoint of ffn_apply.  Returns (dx, weight grads dict keyed like Params)."""
    config: ModelConfig = cache["config"]
    w = cache["w"]
    prefix = f"layer{cache['layer']}."
    p = config.dropout_p
    grads: dict[str, np.ndarray] = {}
    if cache["mask2"] is not None:
        g = ops.apply_dropout(g, cache["mask2"], p)
    if config.ffn_mode == "full":
        g_ad, grads[prefix + "ffn.w2"] = ops.matmul_backward(g, cache["a_d"], w["ffn.w2"])
    elif config.ffn_mode == "shared":
        g_ad, grads[prefix + "ffn.w2s"] = ops.matmul_backward(g, cache["a_d"], w["ffn.w2s"])
    else:
        g_mid2, grads[prefix + "ffn.w22"] = ops.matmul_backward(g, cache["mid2"], w["ffn.w22"])
        g_ad, grads[prefix + "ffn.w21"] = ops.matmul_backward(g_mid2, cache["a_d"], w["ffn.w21"])
    if cache["mask1"] is not None:
        ops.apply_dropout(g_ad, cache["mask1"], p, out=g_ad)
    g_ad *= ops.gelu_grad(cache["pre"])
    if config.ffn_mode == "full":
        dx, grads[prefix + "ffn.w1"] = ops.matmul_backward(g_ad, cache["x"], w["ffn.w1"])
    elif config.ffn_mode == "shared":
        dx, grads[prefix + "ffn.w1s"] = ops.matmul_backward(g_ad, cache["x"], w["ffn.w1s"])
    else:
        g_mid1, grads[prefix + "ffn.w12"] = ops.matmul_backward(g_ad, cache["mid1"], w["ffn.w12"])
        dx, grads[prefix + "ffn.w11"] = ops.matmul_backward(g_mid1, cache["x"], w["ffn.w11"])
    return dx, grads


# ---------------------------------------------------------------------------
# Attention block
# ---------------------------------------------------------------------------

def _split_heads(x: np.ndarray, M: int) -> np.ndarray:
    """(n, D) -> (M, n, D/M) view: head m holds columns m*dh .. (m+1)*dh."""
    n, D = x.shape
    return x.reshape(n, M, D // M).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of _split_heads: (M, n, dh) -> (n, M*dh)."""
    M, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, M * dh)


def _dropped(probs: np.ndarray, mask, p: float) -> np.ndarray:
    """Probabilities after dropout.  The attention cache keeps only probs
    and the boolean mask, so the backward pass rebuilds these."""
    return probs if mask is None else ops.apply_dropout(probs, mask, p)


def attention_apply(x_q: np.ndarray, x_kv: np.ndarray, params: dict, layer: int,
                    config: ModelConfig, rng: Rng, training: bool):
    """Multi-head attention body (no residual, no layer-norm).

    Per head m: scores = (x_q Wq_m)(x_kv Wk_m^T)^T, softmax rows, optional
    1/sqrt(D/M) scaling, dropout on the probabilities, context times the
    m-th output block.  Head contributions are summed (equivalent to
    concat-then-project).  Heads are the leading axis of one batched
    computation; the dropout mask is one (M, nq, nkv) draw, which consumes
    the stream exactly as M consecutive (nq, nkv) draws would, with nq the
    rows of x_q: the last layer draws for the head's rows alone.  With
    dropout off ``rng`` is not read and may be None.
    """
    D, M = config.D, config.M
    if x_q.shape[1] != D or x_kv.shape[1] != D:
        raise ShapeError(
            f"attention: inputs must have width D={D}, got {x_q.shape} / {x_kv.shape}")
    scale = 1.0 / np.sqrt(D // M) if config.attn_scale else 1.0
    p = f"layer{layer}."
    w = {name: params[p + name] for name in ("w_q", "w_k_t", "w_v1", "w_v2_t")}
    q = _split_heads(ops.matmul(x_q, w["w_q"]), M)
    k = _split_heads(ops.matmul(x_kv, w["w_k_t"]), M)
    v = _split_heads(ops.matmul(x_kv, w["w_v1"]), M)
    scores = q @ k.transpose(0, 2, 1)
    scores *= scale
    probs = ops.softmax_rows(scores, out=scores)
    mask = ops.dropout_mask(probs.shape, config.dropout_p, rng, training)
    ctx = _merge_heads(_dropped(probs, mask, config.dropout_p) @ v)
    out = ctx @ w["w_v2_t"].T
    cache = {"x_q": x_q, "x_kv": x_kv, "q": q, "k": k, "v": v, "probs": probs,
             "mask": mask, "ctx": ctx, "scale": scale,
             "layer": layer, "config": config, "w": w}
    return out, cache


def attention_backward(g: np.ndarray, cache: dict):
    """Adjoint of attention_apply.  Returns (dx_q, dx_kv, weight grads)."""
    M, p = cache["config"].M, cache["config"].dropout_p
    x_q, x_kv = cache["x_q"], cache["x_kv"]
    w = cache["w"]
    prefix = f"layer{cache['layer']}."
    gw = {"w_v2_t": g.T @ cache["ctx"]}
    g_ctx = _split_heads(g @ w["w_v2_t"], M)
    g_probs = g_ctx @ cache["v"].transpose(0, 2, 1)
    probs_d = _dropped(cache["probs"], cache["mask"], p)
    g_v = _merge_heads(probs_d.transpose(0, 2, 1) @ g_ctx)
    if cache["mask"] is not None:
        ops.apply_dropout(g_probs, cache["mask"], p, out=g_probs)
    g_scores = ops.softmax_rows_backward(g_probs, cache["probs"], out=g_probs)
    g_scores *= cache["scale"]
    g_q = _merge_heads(g_scores @ cache["k"])
    g_k = _merge_heads(g_scores.transpose(0, 2, 1) @ cache["q"])
    g_xq, gw["w_q"] = ops.matmul_backward(g_q, x_q, w["w_q"])
    g_xkv, gw["w_k_t"] = ops.matmul_backward(g_k, x_kv, w["w_k_t"])
    d_xkv, gw["w_v1"] = ops.matmul_backward(g_v, x_kv, w["w_v1"])
    g_xkv += d_xkv
    grads = {prefix + name: t for name, t in gw.items()}
    return g_xq, g_xkv, grads


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

def _check_positions(n: int, masked_positions, config: ModelConfig) -> None:
    if n > config.N_max:
        raise InputError(f"sequence length {n} exceeds N_max={config.N_max}")
    prev = -1
    for pos in masked_positions:
        if not prev < pos < n:
            raise InputError(
                f"masked positions must be strictly increasing within [0, {n})")
        prev = pos


def _query_maps(n: int, masked: np.ndarray, config: ModelConfig):
    """Per-layer query maps.

    Layer 0 pools its queries with the dense matrix P when ``pool_k > 1``
    and it is not also the last layer.  The last layer keeps only the
    head's rows, given as row indices into its query stream: the pooled
    rows holding the masked positions after a pooled layer 0, the masked
    positions otherwise.  Other layers have no map.  A layer with a map
    attends from its map's rows of LN(x) (``P @ LN(x)`` or ``LN(x)[rows]``)
    to all of LN(x), and carries the same rows of x on its residual path.
    Every output row depends on its own query row only, so the rows the
    last layer skips are rows no later step reads.

    At L = 1 the map is ``masked`` itself and no pooling matrix is built:
    P's masked rows are one-hot, since each masked position is its own
    group, of weight 1.0, so they select the rows the indices take.
    """
    maps = [None] * config.L
    rows = masked
    if config.pool_k > 1 and config.L > 1:
        maps[0], rows = build_pooling(n, masked, config.pool_k)
    maps[-1] = rows
    return maps


def _map_rows(Q, a: np.ndarray) -> np.ndarray:
    """The rows of a that query map Q selects: a itself without a map, a
    gather for row indices, a product for a pooling matrix."""
    if Q is None:
        return a
    return a[Q] if Q.ndim == 1 else Q @ a


def encoder_apply(token_ids, masked_positions, params: dict, config: ModelConfig,
                  rng: Rng, training: bool):
    """Forward pass through all layers.  Returns (logits, hidden, cache).

    Pre-norm residual blocks: x <- x + Att(LN(x)); x <- x + FFN(LN(x)).
    With pool_k > 1 the first layer pools the query stream and its residual
    path; layers >= 2 run at the pooled length.  The last layer runs its
    queries, residual and FFN on the masked rows only, gathered by row
    index (``_query_maps``), so ``hidden`` holds one final row per masked
    position, in order.  Its dropout masks are drawn for those rows only,
    the j-th masked row taking the j-th row of each draw.  With dropout off
    no layer forks ``rng``: forks are keyed by label, so no stream moves.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    n = token_ids.shape[0]
    _check_positions(n, masked_positions, config)
    masked = np.asarray(list(masked_positions), dtype=np.int64)

    x = params["token_emb"][token_ids] + params["pos_emb"][:n]
    maps = _query_maps(n, masked, config)
    dropout = training and config.dropout_p > 0.0

    layers = []
    for i in range(config.L):
        lp = f"layer{i}."
        rng_a = rng.fork(f"layer{i}.attn") if dropout else None
        rng_f = rng.fork(f"layer{i}.ffn") if dropout else None
        ln1, ln1_cache = ops.layer_norm(x, params[lp + "ln_attn.gain"],
                                        params[lp + "ln_attn.bias"], LN_EPS)
        Q = maps[i]
        att, acache = attention_apply(_map_rows(Q, ln1), ln1, params, i, config,
                                      rng_a, training)
        att += _map_rows(Q, x)
        x = att
        ln2, ln2_cache = ops.layer_norm(x, params[lp + "ln_ffn.gain"],
                                        params[lp + "ln_ffn.bias"], LN_EPS)
        f, fcache = ffn_apply(ln2, params, i, config, rng_f, training)
        f += x
        x = f
        layers.append({"ln_attn": ln1_cache, "ln_ffn": ln2_cache,
                       "attn": acache, "ffn": fcache})

    logits = x @ params["head.w"]
    logits += params["head.b"]
    cache = {"token_ids": token_ids, "n": n, "maps": maps, "layers": layers,
             "hidden": x, "params": params, "config": config}
    return logits, x, cache


def encoder_backward(g_logits: np.ndarray, cache: dict, grads: dict) -> None:
    """Adjoint of encoder_apply; adds the gradients into ``grads``, a dict
    shaped exactly like Params (see ``zero_grads``).

    A row-index map's adjoint adds each query row's gradient into its
    distinct source row, and scatters the residual gradient into zeros.
    """
    params, config = cache["params"], cache["config"]
    hidden = cache["hidden"]

    grads["head.w"] += hidden.T @ g_logits
    grads["head.b"] += g_logits.sum(axis=0)
    g_x = g_logits @ params["head.w"].T
    for i in reversed(range(config.L)):
        lc = cache["layers"][i]
        lp = f"layer{i}."
        # FFN block: x = x_mid + f(LN(x_mid))
        g_ln2, fgrads = ffn_backward(g_x, lc["ffn"])
        for name, t in fgrads.items():
            grads[name] += t
        d_xmid, dgain, dbias = ops.layer_norm_backward(
            g_ln2, lc["ln_ffn"], params[lp + "ln_ffn.gain"])
        grads[lp + "ln_ffn.gain"] += dgain
        grads[lp + "ln_ffn.bias"] += dbias
        d_xmid += g_x
        g_x = d_xmid
        # Attention block: x_mid = Q x + att(Q LN(x), LN(x)), Q = I without a map
        g_xq, g_xkv, agrads = attention_backward(g_x, lc["attn"])
        for name, t in agrads.items():
            grads[name] += t
        Q = cache["maps"][i]
        if Q is None:
            g_xkv += g_xq
        elif Q.ndim == 1:
            g_xkv[Q] += g_xq
            g_rows = g_x
            g_x = np.zeros_like(g_xkv)
            g_x[Q] = g_rows
        else:
            g_xkv += Q.T @ g_xq
            g_x = Q.T @ g_x
        d_xin, dgain, dbias = ops.layer_norm_backward(
            g_xkv, lc["ln_attn"], params[lp + "ln_attn.gain"])
        d_xin += g_x
        g_x = d_xin
        grads[lp + "ln_attn.gain"] += dgain
        grads[lp + "ln_attn.bias"] += dbias

    # one flat scatter: element (t, d) still receives its rows in row order,
    # so the sums are those of the row-wise np.add.at
    D = g_x.shape[1]
    np.add.at(np.reshape(grads["token_emb"], -1, copy=False),
              (cache["token_ids"][:, None] * D + np.arange(D)).reshape(-1),
              g_x.reshape(-1))
    grads["pos_emb"][:cache["n"]] += g_x


def encoder_forward(token_ids, masked_positions, params: dict, config: ModelConfig,
                    rng: Rng, training: bool = False):
    """Public forward surface: returns (logits at masked positions, hidden),
    where ``hidden`` holds the final rows the head reads, one per masked
    position (the last layer computes no other row)."""
    logits, hidden, _ = encoder_apply(token_ids, masked_positions, params,
                                      config, rng, training)
    return logits, hidden


def mlm_loss(batch, params: dict, config: ModelConfig, rng: Rng, training: bool,
             grads: dict | None = None):
    """Mean cross-entropy over all masked positions in the batch.

    ``batch`` is (ids, masked_positions, targets) with shapes (B, n), (B, m),
    (B, m).  Returns (loss, gradient dict shaped like Params).  A ``grads``
    dict from an earlier call (see ``zero_grads``) is zeroed, filled and
    returned in place of a new one.
    """
    ids, masked, targets = batch
    ids = np.asarray(ids, dtype=np.int64)
    masked = np.asarray(masked, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    B = ids.shape[0]
    if masked.size == 0:
        raise InputError("mlm_loss: batch has no masked positions")
    total = 0.0
    if grads is None:
        grads = zero_grads(params)
    else:
        for g in grads.values():
            g.fill(0.0)
    for j in range(B):
        logits, _, cache = encoder_apply(ids[j], masked[j], params, config,
                                         rng.fork(f"seq{j}"), training)
        loss_j, g_logits = ops.cross_entropy_logits(logits, targets[j])
        total += loss_j
        g_logits /= B
        encoder_backward(g_logits, cache, grads)
    return total / B, grads


def mlm_loss_value(batch, params: dict, config: ModelConfig) -> float:
    """Forward-only batch loss (no gradients, dropout off)."""
    ids, masked, targets = batch
    ids = np.asarray(ids, dtype=np.int64)
    masked = np.asarray(masked, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    if masked.size == 0:
        raise InputError("mlm_loss_value: batch has no masked positions")
    rng = Rng(0)  # draws nothing with dropout off
    total = 0.0
    for j in range(ids.shape[0]):
        logits, _ = encoder_forward(ids[j], masked[j], params, config, rng)
        loss_j, _ = ops.cross_entropy_logits(logits, targets[j])
        total += loss_j
    return total / ids.shape[0]


def param_count(config: ModelConfig) -> dict[str, int]:
    """Itemized parameter counts matching the analytic formulas."""
    D, H, L = config.D, config.H, config.L
    attn = 4 * D * D
    if config.ffn_mode == "full":
        ffn = 2 * D * H
    elif config.ffn_mode == "shared":
        ffn = 2 * D * (H // config.ffn_k)
    else:
        ffn = 2 * config.ffn_h * (D + H)
    ln = 4 * D  # two layer-norms, gain + bias each
    counts = {
        "attention_per_layer": attn,
        "ffn_per_layer": ffn,
        "layer_norm_per_layer": ln,
        "embeddings": (config.V + config.N_max) * D,
        "mlm_head": D * config.V + config.V,
    }
    counts["total"] = L * (attn + ffn + ln) + counts["embeddings"] + counts["mlm_head"]
    return counts
