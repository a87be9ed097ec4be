import math

import numpy as np
import numpy.testing as npt
import pytest

from growtrain import ops
from growtrain.errors import InputError, ValidationError
from growtrain.model import (ModelConfig, attention_apply, attention_backward,
                             build_pooling, encoder_apply, encoder_backward,
                             encoder_forward, ffn_apply, ffn_backward,
                             init_params, mlm_loss, mlm_loss_value, param_count,
                             shape_audit, zero_grads)
from growtrain.rng import Rng

from conftest import random_batch


@pytest.fixture
def identity_activation(monkeypatch):
    """The FFN with GELU replaced by the identity, for hand arithmetic."""
    monkeypatch.setattr(ops, "gelu", lambda x: x)
    monkeypatch.setattr(ops, "gelu_grad", lambda x: np.ones_like(x))


def brute_force_attention(x_q, x_kv, params, layer, M, D, scale):
    """Direct per-head evaluation of sum_m softmax(q W_q W_k x^T) x W_v1 W_v2."""
    dh = D // M
    p = f"layer{layer}."
    out = np.zeros((x_q.shape[0], D))
    for m in range(M):
        w_q = params[p + "w_q"][:, m * dh:(m + 1) * dh]
        w_k = params[p + "w_k_t"][:, m * dh:(m + 1) * dh].T  # (dh, D) paper layout
        w_v1 = params[p + "w_v1"][:, m * dh:(m + 1) * dh]
        w_v2 = params[p + "w_v2_t"][:, m * dh:(m + 1) * dh].T
        scores = x_q @ w_q @ w_k @ x_kv.T * scale
        # softmax row by row, explicitly
        probs = np.zeros_like(scores)
        for i in range(scores.shape[0]):
            e = np.exp(scores[i] - scores[i].max())
            probs[i] = e / e.sum()
        out += probs @ x_kv @ w_v1 @ w_v2
    return out


def per_head_attention_with_grads(x_q, x_kv, params, layer, config, rng, g):
    """Head-by-head attention with dropout on, drawing M consecutive (nq, nkv)
    masks from rng.  Returns (out, dx_q, dx_kv, weight grads) for the upstream
    gradient g."""
    D, M = config.D, config.M
    dh = D // M
    scale = 1.0 / np.sqrt(dh) if config.attn_scale else 1.0
    w = {name: params[f"layer{layer}.{name}"]
         for name in ("w_q", "w_k_t", "w_v1", "w_v2_t")}
    out = np.zeros((x_q.shape[0], D))
    dx_q, dx_kv = np.zeros_like(x_q), np.zeros_like(x_kv)
    gw = {name: np.zeros_like(t) for name, t in w.items()}
    for m in range(M):
        cols = slice(m * dh, (m + 1) * dh)
        q = x_q @ w["w_q"][:, cols]
        k = x_kv @ w["w_k_t"][:, cols]
        v = x_kv @ w["w_v1"][:, cols]
        scores = q @ k.T * scale
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        mask = (rng.uniform(size=probs.shape) >= config.dropout_p) / (1.0 - config.dropout_p)
        ctx = probs * mask @ v
        out += ctx @ w["w_v2_t"][:, cols].T
        g_ctx = g @ w["w_v2_t"][:, cols]
        gw["w_v2_t"][:, cols] += g.T @ ctx
        g_probs = (g_ctx @ v.T) * mask
        g_scores = probs * (g_probs - (g_probs * probs).sum(axis=1, keepdims=True)) * scale
        g_q, g_k, g_v = g_scores @ k, g_scores.T @ q, (probs * mask).T @ g_ctx
        dx_q += g_q @ w["w_q"][:, cols].T
        dx_kv += g_k @ w["w_k_t"][:, cols].T + g_v @ w["w_v1"][:, cols].T
        gw["w_q"][:, cols] += x_q.T @ g_q
        gw["w_k_t"][:, cols] += x_kv.T @ g_k
        gw["w_v1"][:, cols] += x_kv.T @ g_v
    return out, dx_q, dx_kv, gw


class TestFFN:
    def test_identity_activation_hand_arithmetic(self, identity_activation):
        cfg = ModelConfig(L=1, D=1, H=2, M=1, N_max=4, V=3, dropout_p=0.0)
        params = init_params(cfg, Rng(0).fork("init"))
        params["layer0.ffn.w1"] = np.array([[2.0, 3.0]])
        params["layer0.ffn.w2"] = np.array([[1.0], [1.0]])
        out = ffn_apply(np.array([[1.0]]), params, 0, cfg, Rng(0), False)[0]
        npt.assert_array_equal(out, [[5.0]])

    def test_shared_equals_tiled_full(self, identity_activation):
        shared = ModelConfig(L=1, D=1, H=4, M=1, N_max=4, V=3, dropout_p=0.0,
                             ffn_mode="shared", ffn_k=2)
        ps = init_params(shared, Rng(0).fork("init"))
        ps["layer0.ffn.w1s"] = np.array([[1.0, 2.0]])
        ps["layer0.ffn.w2s"] = np.array([[3.0], [4.0]])
        x = np.array([[1.0]])
        out_shared = ffn_apply(x, ps, 0, shared, Rng(0), False)[0]
        npt.assert_array_equal(out_shared, [[11.0]])

        full = shared.with_(ffn_mode="full", ffn_k=1)
        pf = init_params(full, Rng(0).fork("init"))
        pf["layer0.ffn.w1"] = np.array([[1.0, 2.0, 1.0, 2.0]])
        pf["layer0.ffn.w2"] = np.array([[1.5], [2.0], [1.5], [2.0]])
        out_full = ffn_apply(x, pf, 0, full, Rng(0), False)[0]
        npt.assert_array_equal(out_full, [[11.0]])

    @pytest.mark.parametrize("mode,kw", [
        ("full", {}),
        ("shared", {"ffn_k": 2}),
        ("factorized", {"ffn_h": 2}),
    ])
    def test_gradients_vs_finite_differences(self, mode, kw):
        cfg = ModelConfig(L=1, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0,
                          ffn_mode=mode, **kw)
        params = init_params(cfg, Rng(1).fork("init"))
        rng = Rng(2)
        x = rng.uniform(-1, 1, (3, 4))
        from growtrain.model import ffn_apply, ffn_backward
        y, cache = ffn_apply(x, params, 0, cfg, Rng(0), training=False)
        g = rng.uniform(-1, 1, y.shape)
        dx, wgrads = ffn_backward(g, cache)

        def loss_x(z):
            return float((ffn_apply(z, params, 0, cfg, Rng(0), False)[0] * g).sum())

        assert ops.finite_diff_check(loss_x, x, dx) <= 1e-5
        for name, grad in wgrads.items():
            def loss_w(w, name=name):
                p = dict(params)
                p[name] = w
                return float((ffn_apply(x, p, 0, cfg, Rng(0), False)[0] * g).sum())
            assert ops.finite_diff_check(loss_w, params[name], grad) <= 1e-5


class TestAttention:
    def test_zero_scores_give_uniform_attention(self):
        cfg = ModelConfig(L=1, D=4, H=8, M=1, N_max=8, V=5, dropout_p=0.0)
        params = init_params(cfg, Rng(3).fork("init"))
        params["layer0.w_q"] = np.zeros((4, 4))
        params["layer0.w_k_t"] = np.zeros((4, 4))
        x = Rng(4).uniform(-1, 1, (3, 4))
        out = attention_apply(x, x, params, 0, cfg, Rng(0), False)[0]
        values = x @ params["layer0.w_v1"] @ params["layer0.w_v2_t"].T
        npt.assert_allclose(out, np.tile(values.mean(axis=0), (3, 1)), atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_matches_brute_force_per_head_sum(self, M):
        cfg = ModelConfig(L=1, D=4, H=8, M=M, N_max=8, V=5, dropout_p=0.0,
                          attn_scale=False)
        params = init_params(cfg, Rng(5).fork("init"))
        x = Rng(6).uniform(-1, 1, (3, 4))
        out = attention_apply(x, x, params, 0, cfg, Rng(0), False)[0]
        ref = brute_force_attention(x, x, params, 0, M, 4, scale=1.0)
        npt.assert_allclose(out, ref, atol=1e-12)

    def test_mixed_length_matches_brute_force(self):
        cfg = ModelConfig(L=1, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0,
                          attn_scale=False)
        params = init_params(cfg, Rng(7).fork("init"))
        rng = Rng(8)
        x_q = rng.uniform(-1, 1, (2, 4))
        x_kv = rng.uniform(-1, 1, (5, 4))
        out = attention_apply(x_q, x_kv, params, 0, cfg, Rng(0), False)[0]
        ref = brute_force_attention(x_q, x_kv, params, 0, 2, 4, scale=1.0)
        npt.assert_allclose(out, ref, atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_dropout_matches_per_head_loop(self, M):
        """The batched (M, nq, nkv) mask draw consumes the stream exactly as
        M per-head draws do, so outputs and gradients match a head loop."""
        from growtrain.model import attention_apply, attention_backward
        cfg = ModelConfig(L=1, D=8, H=8, M=M, N_max=8, V=5, dropout_p=0.3)
        params = init_params(cfg, Rng(14).fork("init"))
        rng = Rng(15)
        x_q, x_kv = rng.uniform(-1, 1, (3, 8)), rng.uniform(-1, 1, (5, 8))
        g = rng.uniform(-1, 1, (3, 8))
        out, cache = attention_apply(x_q, x_kv, params, 0, cfg,
                                     Rng(16).fork("layer0.attn"), training=True)
        dx_q, dx_kv, wgrads = attention_backward(g, cache)
        ref_out, ref_dxq, ref_dxkv, ref_w = per_head_attention_with_grads(
            x_q, x_kv, params, 0, cfg, Rng(16).fork("layer0.attn"), g)
        assert np.any(cache["mask"] == 0.0)
        npt.assert_allclose(out, ref_out, atol=1e-12)
        npt.assert_allclose(dx_q, ref_dxq, atol=1e-12)
        npt.assert_allclose(dx_kv, ref_dxkv, atol=1e-12)
        assert sorted(wgrads) == sorted(f"layer0.{name}" for name in ref_w)
        for name, ref in ref_w.items():
            npt.assert_allclose(wgrads[f"layer0.{name}"], ref, atol=1e-12)

    def test_gradients_vs_finite_differences(self):
        cfg = ModelConfig(L=1, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0)
        params = init_params(cfg, Rng(9).fork("init"))
        rng = Rng(10)
        x = rng.uniform(-1, 1, (3, 4))
        from growtrain.model import attention_apply, attention_backward
        y, cache = attention_apply(x, x, params, 0, cfg, Rng(0), training=False)
        g = rng.uniform(-1, 1, y.shape)
        g_xq, g_xkv, wgrads = attention_backward(g, cache)

        def loss_x(z):
            return float((attention_apply(z, z, params, 0, cfg, Rng(0), False)[0] * g).sum())

        assert ops.finite_diff_check(loss_x, x, g_xq + g_xkv) <= 1e-5
        for name, grad in wgrads.items():
            def loss_w(w, name=name):
                p = dict(params)
                p[name] = w
                return float(
                    (attention_apply(x, x, p, 0, cfg, Rng(0), False)[0] * g).sum())
            assert ops.finite_diff_check(loss_w, params[name], grad) <= 1e-5


def build_pooling_by_loop(n, masked_positions, k):
    """Run-by-run construction of the pooling map, the oracle for the
    vectorized ``build_pooling``."""
    masked = list(masked_positions)
    is_masked = np.zeros(n, dtype=bool)
    is_masked[masked] = True
    groups, pooled_of_pos, run = [], {}, []

    def flush_run():
        for s in range(0, len(run), k):
            groups.append(run[s:s + k])
        run.clear()

    for pos in range(n):
        if is_masked[pos]:
            flush_run()
            pooled_of_pos[pos] = len(groups)
            groups.append([pos])
        else:
            run.append(pos)
    flush_run()
    P = np.zeros((len(groups), n))
    for row, members in enumerate(groups):
        P[row, members] = 1.0 / len(members)
    return P, np.array([pooled_of_pos[p] for p in masked], dtype=np.int64)


def pooling_mask_sets(n, rng):
    """None, all, both ends, an adjacent pair, and random sorted subsets."""
    sets = [[], list(range(n)), [0], [n - 1], sorted({0, n - 1})]
    if n >= 3:
        sets.append([n // 2 - 1, n // 2] if n >= 4 else [0, 1])
        sets.append([0, 1, n - 2, n - 1] if n >= 4 else [0, 1, 2])
    for _ in range(4):
        m = int(rng.integers(1, n + 1))
        sets.append(sorted(rng.choice(n, size=m, replace=False).tolist()))
    return sets


class TestPooling:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_loop_oracle(self, k):
        rng = Rng(30 + k)
        for n in range(1, 41):
            for masked in pooling_mask_sets(n, rng):
                P, pooled = build_pooling(n, masked, k)
                ref_P, ref_pooled = build_pooling_by_loop(n, masked, k)
                npt.assert_array_equal(P, ref_P)
                npt.assert_array_equal(pooled, ref_pooled)
                assert pooled.dtype == np.int64

    def test_no_masks_plain_windows(self):
        P, pooled = build_pooling(8, [], 2)
        assert P.shape == (4, 8)
        assert pooled.size == 0
        npt.assert_allclose(P.sum(axis=1), 1.0)

    def test_masked_rows_survive(self):
        P, pooled = build_pooling(8, [2, 5], 2)
        # runs: [0,1] | masked 2 | [3,4] | masked 5 | [6,7] -> 5 groups
        assert P.shape == (5, 8)
        npt.assert_array_equal(pooled, [1, 3])
        npt.assert_array_equal(P[1], np.eye(8)[2])
        npt.assert_array_equal(P[3], np.eye(8)[5])

    def test_short_run_averaged_over_remainder(self):
        P, _ = build_pooling(5, [], 2)
        assert P.shape == (3, 5)
        npt.assert_array_equal(P[2], np.eye(5)[4])


def layer0_output_rows(cache) -> int:
    """Rows of the first layer's output: the second layer's keys and values
    are its layer norm, one per row."""
    return cache["layers"][1]["attn"]["x_kv"].shape[0]


class TestEncoder:
    def test_pool_k1_degenerates_to_standard(self, tiny_config):
        cfg = tiny_config.with_(L=2)
        params = init_params(cfg, Rng(11).fork("init"))
        ids = np.array([1, 2, 3, 4, 0, 2])
        logits, hidden, cache = encoder_apply(ids, [1, 3], params, cfg, Rng(0),
                                              training=False)
        assert layer0_output_rows(cache) == 6
        assert hidden.shape == (2, 4)
        assert logits.shape == (2, 5)

    def test_pooled_length_arithmetic(self):
        cfg = ModelConfig(L=2, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0,
                          pool_k=2)
        params = init_params(cfg, Rng(12).fork("init"))
        ids = np.arange(8) % 5
        _, hidden, cache = encoder_apply(ids, [], params, cfg, Rng(0), training=False)
        assert layer0_output_rows(cache) == 4
        assert hidden.shape == (0, 4)

    def test_hand_computed_single_layer_forward(self):
        """Independent straight-line evaluation of the full forward pass."""
        cfg = ModelConfig(L=1, D=2, H=2, M=1, N_max=4, V=3, dropout_p=0.0,
                          attn_scale=False)
        params = init_params(cfg, Rng(13).fork("init"))
        # small hand-chosen weights
        params["token_emb"] = np.array([[0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]])
        params["pos_emb"] = np.array([[0.0, 0.1], [0.1, 0.0], [0.0, 0.0],
                                      [0.1, 0.1]])
        params["layer0.w_q"] = np.array([[0.5, 0.0], [0.0, 0.5]])
        params["layer0.w_k_t"] = np.array([[0.4, 0.0], [0.0, 0.4]])
        params["layer0.w_v1"] = np.array([[0.3, 0.1], [0.0, 0.2]])
        params["layer0.w_v2_t"] = np.array([[0.2, 0.0], [0.1, 0.3]])
        params["layer0.ffn.w1"] = np.array([[0.6, -0.2], [0.1, 0.5]])
        params["layer0.ffn.w2"] = np.array([[0.4, 0.0], [-0.3, 0.2]])
        params["head.w"] = np.array([[0.7, -0.1, 0.2], [0.0, 0.5, -0.4]])
        params["head.b"] = np.array([0.05, -0.05, 0.0])

        ids = np.array([0, 2, 1])
        logits, _ = encoder_forward(ids, [1], params, cfg, Rng(0))

        # independent evaluation
        x = params["token_emb"][ids] + params["pos_emb"][:3]
        mu = x.mean(1, keepdims=True)
        ln = (x - mu) / np.sqrt(x.var(1, keepdims=True) + 1e-12)
        q = ln @ params["layer0.w_q"]
        k = ln @ params["layer0.w_k_t"]
        s = q @ k.T
        e = np.exp(s - s.max(1, keepdims=True))
        probs = e / e.sum(1, keepdims=True)
        att = probs @ (ln @ params["layer0.w_v1"]) @ params["layer0.w_v2_t"].T
        x = x + att
        mu = x.mean(1, keepdims=True)
        ln = (x - mu) / np.sqrt(x.var(1, keepdims=True) + 1e-12)
        h1 = ln @ params["layer0.ffn.w1"]
        a = 0.5 * h1 * (1 + np.tanh(np.sqrt(2 / np.pi) * (h1 + 0.044715 * h1**3)))
        x = x + a @ params["layer0.ffn.w2"]
        expected = x[[1]] @ params["head.w"] + params["head.b"]
        npt.assert_allclose(logits, expected, atol=1e-12)

    def test_pure_function_without_dropout(self, tiny_config, tiny_params):
        ids = np.array([1, 2, 3, 4, 0, 2])
        a = encoder_forward(ids, [1, 3], tiny_params, tiny_config, Rng(0))[0]
        b = encoder_forward(ids, [1, 3], tiny_params, tiny_config, Rng(99))[0]
        npt.assert_array_equal(a, b)

    def test_position_out_of_range(self, tiny_config, tiny_params):
        with pytest.raises(InputError):
            encoder_forward(np.array([1, 2]), [2], tiny_params, tiny_config, Rng(0))

    def test_sequence_too_long(self, tiny_config, tiny_params):
        with pytest.raises(InputError):
            encoder_forward(np.zeros(9, dtype=int), [], tiny_params,
                            tiny_config, Rng(0))


    @pytest.mark.parametrize("pool_k", [1, 2])
    def test_embedding_scatter_equals_row_wise_add_at(self, pool_k):
        """The token-embedding gradient is a row-wise ``np.add.at`` of the
        input gradient (which pos_emb receives alone), byte for byte, onto
        gradients already holding earlier sequences' sums."""
        cfg = ModelConfig(L=2, D=8, H=16, M=2, N_max=16, V=7, dropout_p=0.1,
                          pool_k=pool_k)
        params = init_params(cfg, Rng(60).fork("init"))
        ids = np.array([3, 1, 3, 3, 5, 1, 2, 3, 6, 6, 1, 4, 3, 2, 5, 3])
        masked = [2, 7, 11]
        logits, _, cache = encoder_apply(ids, masked, params, cfg, Rng(61), True)
        _, g_logits = ops.cross_entropy_logits(logits, np.array([1, 2, 3]))
        grads = zero_grads(params)
        # earlier sums of the rows' own size (about 1e-3), where the order
        # of the additions shows in the rounding
        grads["token_emb"] = Rng(62).normal(size=grads["token_emb"].shape) * 1e-3
        want = grads["token_emb"].copy()
        encoder_backward(g_logits, cache, grads)
        np.add.at(want, ids, grads["pos_emb"][:ids.size])
        assert grads["token_emb"].tobytes() == want.tobytes()


class KeptRowsRng:
    """A last-layer dropout fork for the full-row oracle.  A full-row draw
    at (..., n_q, c) gives the head's rows the words of a (..., m, c) draw
    from the wrapped fork, the draw the trimmed layer makes, and every other
    row all-keep words: the head never reads those rows."""

    def __init__(self, rng, rows):
        self.rng, self.rows = rng, rows

    def random_raw(self, shape):
        raw = np.full(shape, np.iinfo(np.uint64).max, dtype=np.uint64)
        raw[..., self.rows, :] = self.rng.random_raw(
            shape[:-2] + (self.rows.size, shape[-1]))
        return raw


def full_row_encoder_apply(token_ids, masked_positions, params, config, rng, training):
    """The encoder before the last layer was trimmed: every layer computes
    every row of its query stream, and the head reads the masked rows of
    the full final stream.  The last layer's dropout comes through
    ``KeptRowsRng``.  The oracle for ``encoder_apply``."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    n = token_ids.shape[0]
    masked = np.asarray(list(masked_positions), dtype=np.int64)
    x = params["token_emb"][token_ids] + params["pos_emb"][:n]
    if config.pool_k > 1:
        P, pooled_masked = build_pooling(n, masked, config.pool_k)
    else:
        P, pooled_masked = None, masked
    layers = []
    for i in range(config.L):
        lp = f"layer{i}."
        rng_a = rng.fork(f"layer{i}.attn")
        rng_f = rng.fork(f"layer{i}.ffn")
        if i == config.L - 1:
            rng_a = KeptRowsRng(rng_a, pooled_masked)
            rng_f = KeptRowsRng(rng_f, pooled_masked)
        ln1, ln1_cache = ops.layer_norm(x, params[lp + "ln_attn.gain"],
                                        params[lp + "ln_attn.bias"], 1e-12)
        if i == 0 and P is not None:
            att, acache = attention_apply(P @ ln1, ln1, params, i, config, rng_a, training)
            x = P @ x + att
        else:
            att, acache = attention_apply(ln1, ln1, params, i, config, rng_a, training)
            x = x + att
        ln2, ln2_cache = ops.layer_norm(x, params[lp + "ln_ffn.gain"],
                                        params[lp + "ln_ffn.bias"], 1e-12)
        f, fcache = ffn_apply(ln2, params, i, config, rng_f, training)
        x = x + f
        layers.append({"ln_attn": ln1_cache, "ln_ffn": ln2_cache,
                       "attn": acache, "ffn": fcache})
    rows = x[pooled_masked] if pooled_masked.size else np.zeros((0, config.D))
    logits = rows @ params["head.w"] + params["head.b"]
    cache = {"token_ids": token_ids, "n": n, "P": P, "pooled_masked": pooled_masked,
             "layers": layers, "hidden": x, "rows": rows,
             "params": params, "config": config}
    return logits, cache


def full_row_encoder_backward(g_logits, cache, grads):
    """Adjoint of ``full_row_encoder_apply``: zero gradient on every final
    row the head does not read, pushed back through the whole last layer."""
    params, config = cache["params"], cache["config"]
    grads["head.w"] += cache["rows"].T @ g_logits
    grads["head.b"] += g_logits.sum(axis=0)
    g_x = np.zeros_like(cache["hidden"])
    if cache["pooled_masked"].size:
        g_x[cache["pooled_masked"]] += g_logits @ params["head.w"].T
    P = cache["P"]
    for i in reversed(range(config.L)):
        lc = cache["layers"][i]
        lp = f"layer{i}."
        g_ln2, fgrads = ffn_backward(g_x, lc["ffn"])
        for name, t in fgrads.items():
            grads[name] += t
        d_xmid, dgain, dbias = ops.layer_norm_backward(
            g_ln2, lc["ln_ffn"], params[lp + "ln_ffn.gain"])
        grads[lp + "ln_ffn.gain"] += dgain
        grads[lp + "ln_ffn.bias"] += dbias
        g_x = g_x + d_xmid
        g_xq, g_xkv, agrads = attention_backward(g_x, lc["attn"])
        for name, t in agrads.items():
            grads[name] += t
        if i == 0 and P is not None:
            d_xin, dgain, dbias = ops.layer_norm_backward(
                P.T @ g_xq + g_xkv, lc["ln_attn"], params[lp + "ln_attn.gain"])
            g_x = P.T @ g_x + d_xin
        else:
            d_xin, dgain, dbias = ops.layer_norm_backward(
                g_xq + g_xkv, lc["ln_attn"], params[lp + "ln_attn.gain"])
            g_x = g_x + d_xin
        grads[lp + "ln_attn.gain"] += dgain
        grads[lp + "ln_attn.bias"] += dbias
    np.add.at(grads["token_emb"], cache["token_ids"], g_x)
    grads["pos_emb"][:cache["n"]] += g_x


ORACLE_N = 32
ORACLE_MASKS = {
    "one_at_0": [0],
    "one_at_end": [ORACLE_N - 1],
    "two_adjacent": [14, 15],
    "two_at_ends": [0, ORACLE_N - 1],
    "nineteen": [0, 1, 5, 6, 7, 9, 12, 13, 16, 18, 19, 20, 23, 25, 26, 28, 29, 30, 31],
}
FFN_MODES = {"full": {}, "shared": {"ffn_k": 2}, "factorized": {"ffn_h": 3}}


class TestTrimmedLastLayer:
    """The last layer computes only the rows the head reads; the full-row
    encoder above is the oracle, with dropout on and the same kept-row bits."""

    @pytest.mark.parametrize("masks", sorted(ORACLE_MASKS))
    @pytest.mark.parametrize("mode", sorted(FFN_MODES))
    @pytest.mark.parametrize("pool_k", [1, 2])
    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_matches_full_row_oracle(self, L, pool_k, mode, masks):
        cfg = ModelConfig(L=L, D=8, H=16, M=2, N_max=ORACLE_N, V=11, dropout_p=0.3,
                          ffn_mode=mode, pool_k=pool_k, **FFN_MODES[mode])
        params = init_params(cfg, Rng(40).fork("init"))
        data = Rng(41 + L)
        for name, t in params.items():   # leave the near-zero init behind
            t += data.fork(name).normal(0.0, 0.3, t.shape)
        masked = ORACLE_MASKS[masks]
        ids = data.integers(1, cfg.V, size=ORACLE_N)
        targets = data.integers(1, cfg.V, size=len(masked))

        logits, hidden, cache = encoder_apply(ids, masked, params, cfg,
                                              Rng(42).fork("seq0"), training=True)
        ref_logits, ref_cache = full_row_encoder_apply(ids, masked, params, cfg,
                                                       Rng(42).fork("seq0"), training=True)
        assert cache["layers"][-1]["attn"]["mask"].size
        assert not cache["layers"][-1]["attn"]["mask"].all()
        npt.assert_allclose(logits, ref_logits, rtol=1e-12, atol=1e-15)
        npt.assert_allclose(hidden, ref_cache["rows"], rtol=1e-12, atol=1e-15)
        loss, g_logits = ops.cross_entropy_logits(logits, targets)
        ref_loss, ref_g = ops.cross_entropy_logits(ref_logits, targets)
        npt.assert_allclose(loss, ref_loss, rtol=1e-12, atol=1e-15)

        grads, ref_grads = zero_grads(params), zero_grads(params)
        encoder_backward(g_logits, cache, grads)
        full_row_encoder_backward(ref_g, ref_cache, ref_grads)
        for name in params:
            npt.assert_allclose(grads[name], ref_grads[name], rtol=1e-12, atol=1e-15,
                                err_msg=name)

    @pytest.mark.parametrize("mode", sorted(FFN_MODES))
    @pytest.mark.parametrize("pool_k", [1, 2])
    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_dropout_draws_only_computed_rows(self, L, pool_k, mode, monkeypatch):
        """Each layer's dropout forks consume the words of the rows it
        computes: the last layer M m n_kv and m (H' + D), the others their
        full query stream."""
        cfg = ModelConfig(L=L, D=8, H=16, M=2, N_max=ORACLE_N, V=11, dropout_p=0.3,
                          ffn_mode=mode, pool_k=pool_k, **FFN_MODES[mode])
        params = init_params(cfg, Rng(44).fork("init"))
        masked = ORACLE_MASKS["nineteen"]
        ids = np.arange(ORACLE_N) % 10 + 1
        forks = {}
        fork = Rng.fork

        def recording_fork(self, label):
            forks[label] = fork(self, label)
            return forks[label]

        monkeypatch.setattr(Rng, "fork", recording_fork)
        seq = Rng(45)
        encoder_apply(ids, masked, params, cfg, seq, training=True)

        def position(rng):
            state = rng._gen.bit_generator.state
            return state["state"]["counter"].tolist(), state["buffer_pos"]

        n, m = ORACLE_N, len(masked)
        n_pool = build_pooling(n, masked, pool_k)[0].shape[0] if pool_k > 1 else n
        width = cfg.H // cfg.ffn_k   # H', the GELU width
        for i in range(L):
            n_q = m if i == L - 1 else n_pool
            n_kv = n if i == 0 else n_pool
            for label, words in ((f"layer{i}.attn", cfg.M * n_q * n_kv),
                                 (f"layer{i}.ffn", n_q * (width + cfg.D))):
                want = fork(seq, label)
                want.random_raw(words)
                assert position(forks[label]) == position(want), label

    @pytest.mark.parametrize("pool_k", [1, 2])
    @pytest.mark.parametrize("L", [1, 2])
    def test_last_layer_attends_from_masked_rows_only(self, L, pool_k):
        cfg = ModelConfig(L=L, D=8, H=16, M=2, N_max=ORACLE_N, V=11, dropout_p=0.1,
                          pool_k=pool_k)
        params = init_params(cfg, Rng(43).fork("init"))
        ids = np.arange(ORACLE_N) % 10 + 1
        masked = ORACLE_MASKS["two_adjacent"]
        _, hidden, cache = encoder_apply(ids, masked, params, cfg, Rng(0), training=True)
        last = cache["layers"][-1]
        n_kv = last["attn"]["x_kv"].shape[0]
        assert last["attn"]["probs"].shape == (2, 2, n_kv)
        assert last["attn"]["mask"].shape == (2, 2, n_kv)
        assert last["ffn"]["x"].shape == (2, 8)
        assert hidden.shape == (2, 8)


@pytest.mark.parametrize("training, p", [(False, 0.1), (True, 0.0), (True, 0.1)])
def test_layers_fork_only_for_dropout(training, p, monkeypatch):
    """With dropout off no layer forks its rng (forks are keyed by label, so
    skipping them moves no stream); with dropout on each layer forks twice."""
    cfg = ModelConfig(L=3, D=8, H=16, M=2, N_max=ORACLE_N, V=11, dropout_p=p,
                      ffn_mode="shared", ffn_k=2, pool_k=2)
    params = init_params(cfg, Rng(46).fork("init"))
    labels = []
    fork = Rng.fork

    def counting_fork(self, label):
        labels.append(label)
        return fork(self, label)

    monkeypatch.setattr(Rng, "fork", counting_fork)
    encoder_forward(np.arange(ORACLE_N) % 10 + 1, ORACLE_MASKS["nineteen"], params, cfg,
                    Rng(47), training=training)
    assert len(labels) == (2 * cfg.L if training and p > 0 else 0)


class TestMlmLoss:
    def test_loss_near_ln_v_at_random_init(self):
        for V in (16, 64, 256):
            cfg = ModelConfig(L=2, D=8, H=16, M=2, N_max=16, V=V, dropout_p=0.0)
            params = init_params(cfg, Rng(20).fork("init"))
            batch = random_batch(Rng(21), 4, 12, 3, V)
            loss = mlm_loss_value(batch, params, cfg)
            assert abs(loss - math.log(V)) < 0.5

    def test_full_gradient_vs_finite_differences(self):
        cfg = ModelConfig(L=1, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0)
        params = init_params(cfg, Rng(22).fork("init"))
        batch = random_batch(Rng(23), 1, 6, 2, 5)
        _, grads = mlm_loss(batch, params, cfg, Rng(0), training=False)
        for name in params:
            def f(x, name=name):
                p = dict(params)
                p[name] = x
                return mlm_loss_value(batch, p, cfg)
            assert ops.finite_diff_check(f, params[name], grads[name]) <= 1e-4, name

    def test_every_parameter_gets_gradient(self):
        cfg = ModelConfig(L=2, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0,
                          pool_k=2)
        params = init_params(cfg, Rng(24).fork("init"))
        batch = random_batch(Rng(25), 2, 8, 2, 5)
        _, grads = mlm_loss(batch, params, cfg, Rng(0), training=False)
        for name, g in grads.items():
            assert np.any(g != 0.0), f"parameter {name} has zero gradient"

    def test_duplicated_batch_same_loss(self, tiny_config, tiny_params):
        ids, masked, targets = random_batch(Rng(26), 2, 6, 2, 5)
        single = mlm_loss_value((ids, masked, targets), tiny_params, tiny_config)
        doubled = mlm_loss_value((np.tile(ids, (2, 1)), np.tile(masked, (2, 1)),
                                  np.tile(targets, (2, 1))),
                                 tiny_params, tiny_config)
        npt.assert_allclose(doubled, single, rtol=1e-14)

    def test_reused_gradient_dict_equals_fresh_one(self):
        cfg = ModelConfig(L=2, D=8, H=16, M=2, N_max=8, V=5, dropout_p=0.1,
                          pool_k=2)
        params = init_params(cfg, Rng(27).fork("init"))
        batch = random_batch(Rng(28), 3, 8, 2, 5)
        loss, fresh = mlm_loss(batch, params, cfg, Rng(1), training=True)
        # a dict left dirty by an earlier step is zeroed before it is filled
        dirty = {k: np.full_like(t, np.nan) for k, t in params.items()}
        loss2, reused = mlm_loss(batch, params, cfg, Rng(1), training=True,
                                 grads=dirty)
        assert reused is dirty and loss2 == loss
        for name in params:
            assert reused[name].tobytes() == fresh[name].tobytes(), name

    def test_empty_mask_set_rejected(self, tiny_config, tiny_params):
        with pytest.raises(InputError):
            mlm_loss((np.zeros((1, 6), int), np.zeros((1, 0), int),
                      np.zeros((1, 0), int)), tiny_params, tiny_config,
                     Rng(0), training=False)


class TestShapesAndCounts:
    @pytest.mark.parametrize("pool_k", [1, 2])
    @pytest.mark.parametrize("mode,kw", [
        ("full", {}),
        ("shared", {"ffn_k": 2}),
        ("shared", {"ffn_k": 4}),
        ("factorized", {"ffn_h": 6}),  # floor(0.2 * D) with D=32
    ])
    def test_shape_audit_all_modes(self, mode, kw, pool_k):
        cfg = ModelConfig(L=2, D=32, H=64, M=2, N_max=64, V=32, dropout_p=0.0,
                          ffn_mode=mode, pool_k=pool_k, **kw)
        params = init_params(cfg, Rng(30).fork("init"))
        shape_audit(params, cfg)

    def test_shape_audit_catches_mismatch(self, tiny_config, tiny_params):
        bad = dict(tiny_params)
        bad["layer0.w_q"] = np.zeros((4, 5))
        with pytest.raises(ValidationError, match="layer0.w_q"):
            shape_audit(bad, tiny_config)

    def test_bert_base_counts(self):
        cfg = ModelConfig(L=12, D=768, H=3072, M=12, N_max=512, V=30522)
        counts = param_count(cfg)
        assert counts["ffn_per_layer"] == 4_718_592
        assert counts["attention_per_layer"] == 2_359_296

    def test_shared_halves_ffn(self):
        cfg = ModelConfig(L=12, D=768, H=3072, M=12, N_max=512, V=30522,
                          ffn_mode="shared", ffn_k=2)
        assert param_count(cfg)["ffn_per_layer"] == 2_359_296

    def test_minimal_dims(self):
        cfg = ModelConfig(L=1, D=1, H=1, M=1, N_max=2, V=2)
        counts = param_count(cfg)
        assert counts["attention_per_layer"] == 4
        assert counts["ffn_per_layer"] == 2
