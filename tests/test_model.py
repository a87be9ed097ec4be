import math

import numpy as np
import numpy.testing as npt
import pytest

from growtrain import ops
from growtrain.errors import InputError, ValidationError
from growtrain.model import (ModelConfig, attention_forward, build_pooling,
                             encoder_apply, encoder_backward, encoder_forward,
                             ffn_forward, init_params, mlm_loss,
                             mlm_loss_value, param_count, shape_audit)
from growtrain.rng import Rng

from conftest import random_batch

IDENTITY_ACT = (lambda x: x, lambda x: np.ones_like(x))


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
    def test_identity_activation_hand_arithmetic(self):
        cfg = ModelConfig(L=1, D=1, H=2, M=1, N_max=4, V=3, dropout_p=0.0)
        params = init_params(cfg, Rng(0).fork("init"))
        params["layer0.ffn.w1"] = np.array([[2.0, 3.0]])
        params["layer0.ffn.w2"] = np.array([[1.0], [1.0]])
        out = ffn_forward(np.array([[1.0]]), params, 0, cfg, Rng(0),
                          activation=IDENTITY_ACT)
        npt.assert_array_equal(out, [[5.0]])

    def test_shared_equals_tiled_full(self):
        shared = ModelConfig(L=1, D=1, H=4, M=1, N_max=4, V=3, dropout_p=0.0,
                             ffn_mode="shared", ffn_k=2)
        ps = init_params(shared, Rng(0).fork("init"))
        ps["layer0.ffn.w1s"] = np.array([[1.0, 2.0]])
        ps["layer0.ffn.w2s"] = np.array([[3.0], [4.0]])
        x = np.array([[1.0]])
        out_shared = ffn_forward(x, ps, 0, shared, Rng(0), activation=IDENTITY_ACT)
        npt.assert_array_equal(out_shared, [[11.0]])

        full = shared.with_(ffn_mode="full", ffn_k=1)
        pf = init_params(full, Rng(0).fork("init"))
        pf["layer0.ffn.w1"] = np.array([[1.0, 2.0, 1.0, 2.0]])
        pf["layer0.ffn.w2"] = np.array([[1.5], [2.0], [1.5], [2.0]])
        out_full = ffn_forward(x, pf, 0, full, Rng(0), activation=IDENTITY_ACT)
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
            return float((ffn_forward(z, params, 0, cfg, Rng(0)) * g).sum())

        assert ops.finite_diff_check(loss_x, x, dx) <= 1e-5
        for name, grad in wgrads.items():
            def loss_w(w, name=name):
                p = dict(params)
                p[name] = w
                return float((ffn_forward(x, p, 0, cfg, Rng(0)) * g).sum())
            assert ops.finite_diff_check(loss_w, params[name], grad) <= 1e-5


class TestAttention:
    def test_zero_scores_give_uniform_attention(self):
        cfg = ModelConfig(L=1, D=4, H=8, M=1, N_max=8, V=5, dropout_p=0.0)
        params = init_params(cfg, Rng(3).fork("init"))
        params["layer0.w_q"] = np.zeros((4, 4))
        params["layer0.w_k_t"] = np.zeros((4, 4))
        x = Rng(4).uniform(-1, 1, (3, 4))
        out = attention_forward(x, x, params, 0, cfg, Rng(0))
        values = x @ params["layer0.w_v1"] @ params["layer0.w_v2_t"].T
        npt.assert_allclose(out, np.tile(values.mean(axis=0), (3, 1)), atol=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 4])
    def test_matches_brute_force_per_head_sum(self, M):
        cfg = ModelConfig(L=1, D=4, H=8, M=M, N_max=8, V=5, dropout_p=0.0,
                          attn_scale=False)
        params = init_params(cfg, Rng(5).fork("init"))
        x = Rng(6).uniform(-1, 1, (3, 4))
        out = attention_forward(x, x, params, 0, cfg, Rng(0))
        ref = brute_force_attention(x, x, params, 0, M, 4, scale=1.0)
        npt.assert_allclose(out, ref, atol=1e-12)

    def test_mixed_length_matches_brute_force(self):
        cfg = ModelConfig(L=1, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0,
                          attn_scale=False)
        params = init_params(cfg, Rng(7).fork("init"))
        rng = Rng(8)
        x_q = rng.uniform(-1, 1, (2, 4))
        x_kv = rng.uniform(-1, 1, (5, 4))
        out = attention_forward(x_q, x_kv, params, 0, cfg, Rng(0))
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
            return float((attention_forward(z, z, params, 0, cfg, Rng(0)) * g).sum())

        assert ops.finite_diff_check(loss_x, x, g_xq + g_xkv) <= 1e-5
        for name, grad in wgrads.items():
            def loss_w(w, name=name):
                p = dict(params)
                p[name] = w
                return float(
                    (attention_forward(x, x, p, 0, cfg, Rng(0)) * g).sum())
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


class TestEncoder:
    def test_pool_k1_degenerates_to_standard(self, tiny_config, tiny_params):
        ids = np.array([1, 2, 3, 4, 0, 2])
        logits, hidden = encoder_forward(ids, [1, 3], tiny_params, tiny_config,
                                         Rng(0))
        assert hidden.shape == (6, 4)
        assert logits.shape == (2, 5)

    def test_pooled_length_arithmetic(self):
        cfg = ModelConfig(L=1, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0,
                          pool_k=2)
        params = init_params(cfg, Rng(12).fork("init"))
        ids = np.arange(8) % 5
        _, hidden = encoder_forward(ids, [], params, cfg, Rng(0))
        assert hidden.shape[0] == 4

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
