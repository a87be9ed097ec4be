import numpy as np
import numpy.testing as npt
import pytest

from growtrain import growth
from growtrain.data import DataConfig
from growtrain.errors import ParamError, StateError
from growtrain.growth import (OPS, DefactorizeFFN, StackDepth, UnshareFFN,
                              Unpool, apply, fold, parse_op, parse_ops,
                              verify_function_preserving)
from growtrain.model import (ModelConfig, encoder_apply, encoder_forward,
                             init_params, param_count, shape_audit)
from growtrain.rng import Rng

from conftest import random_batch


def small_config(**kw):
    base = dict(L=2, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0)
    base.update(kw)
    return ModelConfig(**base)


def grow(op, params, cfg):
    """One op's grown tensor map and config, as ``fold`` composes them."""
    grown, new_cfg, _ = fold([op], params, cfg, None)
    return grown, new_cfg


class TestStackDepth:
    def test_two_layers_to_four_repeats_block(self):
        cfg = small_config(L=2)
        params = init_params(cfg, Rng(0).fork("init"))
        grown, new_cfg = grow(StackDepth(4), params, cfg)
        assert new_cfg.L == 4
        for suffix in ("w_q", "w_k_t", "w_v1", "w_v2_t", "ffn.w1", "ffn.w2"):
            npt.assert_array_equal(grown[f"layer2.{suffix}"],
                                   params[f"layer0.{suffix}"])
            npt.assert_array_equal(grown[f"layer3.{suffix}"],
                                   params[f"layer1.{suffix}"])

    def test_identity_target(self):
        cfg = small_config(L=2)
        params = init_params(cfg, Rng(1).fork("init"))
        grown, new_cfg = grow(StackDepth(2), params, cfg)
        assert new_cfg == cfg
        for name in params:
            npt.assert_array_equal(grown[name], params[name])

    def test_one_to_three_bit_identical_copies(self):
        cfg = small_config(L=1)
        params = init_params(cfg, Rng(2).fork("init"))
        grown, _ = grow(StackDepth(3), params, cfg)
        for i in (1, 2):
            for suffix in ("w_q", "ffn.w1", "ln_attn.gain"):
                src = params[f"layer0.{suffix}"]
                copy = grown[f"layer{i}.{suffix}"]
                assert src.tobytes() == copy.tobytes()

    def test_non_multiple_rejected(self):
        cfg = small_config(L=2)
        params = init_params(cfg, Rng(3).fork("init"))
        with pytest.raises(ParamError):
            grow(StackDepth(3), params, cfg)

    def test_embeddings_and_head_unchanged(self):
        cfg = small_config(L=1)
        params = init_params(cfg, Rng(4).fork("init"))
        grown, _ = grow(StackDepth(2), params, cfg)
        for name in ("token_emb", "pos_emb", "head.w", "head.b"):
            assert grown[name].tobytes() == params[name].tobytes()


class TestUnshareFFN:
    def test_tile_values(self):
        cfg = ModelConfig(L=1, D=1, H=2, M=1, N_max=4, V=3, dropout_p=0.0,
                          ffn_mode="shared", ffn_k=2)
        params = init_params(cfg, Rng(5).fork("init"))
        params["layer0.ffn.w1s"] = np.array([[1.0, 2.0]])
        params["layer0.ffn.w2s"] = np.array([[3.0], [4.0]])
        grown, new_cfg = grow(UnshareFFN(), params, cfg)
        npt.assert_array_equal(grown["layer0.ffn.w1"], [[1.0, 2.0, 1.0, 2.0]])
        npt.assert_array_equal(grown["layer0.ffn.w2"],
                               [[1.5], [2.0], [1.5], [2.0]])
        assert new_cfg.ffn_mode == "full"

    def test_forward_preserved(self):
        cfg = small_config(ffn_mode="shared", ffn_k=2)
        params = init_params(cfg, Rng(6).fork("init"))
        grown, new_cfg = grow(UnshareFFN(), params, cfg)
        ids, masked, _ = random_batch(Rng(7), 1, 6, 2, 5)
        before = encoder_forward(ids[0], masked[0], params, cfg, Rng(0))[0]
        after = encoder_forward(ids[0], masked[0], grown, new_cfg, Rng(0))[0]
        assert np.max(np.abs(before - after)) <= 1e-12

    def test_k1_degenerate_flips_mode(self):
        cfg = small_config(ffn_mode="shared", ffn_k=1)
        params = init_params(cfg, Rng(8).fork("init"))
        grown, new_cfg = grow(UnshareFFN(), params, cfg)
        assert new_cfg.ffn_mode == "full"
        npt.assert_array_equal(grown["layer0.ffn.w1"], params["layer0.ffn.w1s"])
        npt.assert_array_equal(grown["layer0.ffn.w2"], params["layer0.ffn.w2s"])

    def test_wrong_mode_rejected(self):
        cfg = small_config()
        params = init_params(cfg, Rng(9).fork("init"))
        with pytest.raises(StateError):
            grow(UnshareFFN(), params, cfg)

    def test_param_count_multiplies_by_k(self):
        for k in (2, 4):
            cfg = small_config(ffn_mode="shared", ffn_k=k)
            grown_cfg = cfg.with_(ffn_mode="full", ffn_k=1)
            assert (param_count(grown_cfg)["ffn_per_layer"]
                    == k * param_count(cfg)["ffn_per_layer"])


class TestDefactorizeFFN:
    def test_outer_product_values(self):
        cfg = ModelConfig(L=1, D=2, H=2, M=1, N_max=4, V=3, dropout_p=0.0,
                          ffn_mode="factorized", ffn_h=1)
        params = init_params(cfg, Rng(10).fork("init"))
        params["layer0.ffn.w11"] = np.array([[1.0], [2.0]])
        params["layer0.ffn.w12"] = np.array([[3.0, 4.0]])
        grown, new_cfg = grow(DefactorizeFFN(), params, cfg)
        npt.assert_array_equal(grown["layer0.ffn.w1"], [[3.0, 4.0], [6.0, 8.0]])
        assert new_cfg.ffn_mode == "full"

    def test_identity_factors_recover_w11_w22(self):
        cfg = ModelConfig(L=1, D=4, H=2, M=1, N_max=4, V=3, dropout_p=0.0,
                          ffn_mode="factorized", ffn_h=2)
        params = init_params(cfg, Rng(11).fork("init"))
        params["layer0.ffn.w12"] = np.eye(2)
        params["layer0.ffn.w21"] = np.eye(2)
        grown, _ = grow(DefactorizeFFN(), params, cfg)
        npt.assert_array_equal(grown["layer0.ffn.w1"], params["layer0.ffn.w11"])
        npt.assert_array_equal(grown["layer0.ffn.w2"], params["layer0.ffn.w22"])

    def test_forward_preserved(self):
        cfg = small_config(ffn_mode="factorized", ffn_h=3)
        params = init_params(cfg, Rng(12).fork("init"))
        grown, new_cfg = grow(DefactorizeFFN(), params, cfg)
        ids, masked, _ = random_batch(Rng(13), 1, 6, 2, 5)
        before = encoder_forward(ids[0], masked[0], params, cfg, Rng(0))[0]
        after = encoder_forward(ids[0], masked[0], grown, new_cfg, Rng(0))[0]
        assert np.max(np.abs(before - after)) <= 1e-12

    def test_wrong_mode_rejected(self):
        cfg = small_config()
        params = init_params(cfg, Rng(14).fork("init"))
        with pytest.raises(StateError):
            grow(DefactorizeFFN(), params, cfg)

    def test_param_count_equals_2dh(self):
        cfg = small_config(ffn_mode="factorized", ffn_h=3)
        grown_cfg = cfg.with_(ffn_mode="full", ffn_h=0)
        assert param_count(grown_cfg)["ffn_per_layer"] == 2 * cfg.D * cfg.H


class TestUnpool:
    def test_params_bit_identical(self):
        cfg = small_config(pool_k=2)
        params = init_params(cfg, Rng(15).fork("init"))
        grown, new_cfg = grow(Unpool(), params, cfg)
        assert new_cfg.pool_k == 1
        for name in params:
            assert grown[name].tobytes() == params[name].tobytes()

    def test_hidden_length_changes(self):
        cfg = small_config(pool_k=2)
        params = init_params(cfg, Rng(16).fork("init"))
        grown, new_cfg = grow(Unpool(), params, cfg)
        ids = np.arange(8) % 5
        # the first layer's output length, read from the second layer's keys
        _, _, pooled = encoder_apply(ids, [], params, cfg, Rng(0), training=False)
        _, _, full = encoder_apply(ids, [], grown, new_cfg, Rng(0), training=False)
        assert cfg.L == 2
        assert pooled["layers"][1]["attn"]["x_kv"].shape[0] == 4
        assert full["layers"][1]["attn"]["x_kv"].shape[0] == 8

    def test_not_function_preserving(self):
        cfg = small_config(pool_k=2)
        params = init_params(cfg, Rng(17).fork("init"))
        ids, masked, _ = random_batch(Rng(18), 2, 8, 2, 5)
        report = verify_function_preserving(params, cfg, Unpool(), (ids, masked))
        assert not report.preservation_class
        assert report.max_abs_diff > 0.0
        assert report.passed  # report-only

    def test_already_unpooled_rejected(self):
        cfg = small_config()
        params = init_params(cfg, Rng(19).fork("init"))
        with pytest.raises(StateError):
            grow(Unpool(), params, cfg)


class TestApply:
    def test_composition_stack_then_unshare(self):
        cfg = ModelConfig(L=3, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0,
                          ffn_mode="shared", ffn_k=2)
        params = init_params(cfg, Rng(20).fork("init"))
        dc = DataConfig(V=5, corpus_size=8, seq_len_full=8, train_len=8,
                        masks_per_seq=2)
        grown, new_cfg, new_dc = apply([UnshareFFN(), StackDepth(6)],
                                       params, cfg, dc)
        assert new_cfg.L == 6 and new_cfg.ffn_mode == "full"
        assert new_dc == dc
        shape_audit(grown, new_cfg)
        # depth before width: grown layers tile the shared-then-unshared FFN
        npt.assert_array_equal(
            grown["layer3.ffn.w1"],
            np.concatenate([params["layer0.ffn.w1s"]] * 2, axis=1))

    def test_empty_list_is_identity(self):
        cfg = small_config()
        params = init_params(cfg, Rng(21).fork("init"))
        dc = DataConfig(V=5, corpus_size=8, seq_len_full=8, train_len=8,
                        masks_per_seq=2)
        grown, new_cfg, new_dc = apply([], params, cfg, dc)
        assert (new_cfg, new_dc) == (cfg, dc)
        for name in params:
            npt.assert_array_equal(grown[name], params[name])

    def test_inputs_not_mutated(self):
        cfg = small_config(L=1, ffn_mode="shared", ffn_k=2, pool_k=2)
        params = init_params(cfg, Rng(22).fork("init"))
        snapshot = {k: v.copy() for k, v in params.items()}
        dc = DataConfig(V=5, corpus_size=8, seq_len_full=8, train_len=4,
                        masks_per_seq=1)
        _, _, new_dc = apply([StackDepth(2), UnshareFFN(), Unpool()], params, cfg, dc)
        assert cfg.L == 1 and new_dc is dc and dc.train_len == 4
        for name, t in snapshot.items():
            npt.assert_array_equal(params[name], t)

    @pytest.mark.parametrize("spec,init", [
        ("", {}),
        ("stack:2", {}),
        ("stack:4", {}),
        ("unshare", {}),
        ("defactorize", {"ffn_mode": "factorized", "ffn_h": 3, "ffn_k": 1}),
        ("unpool", {}),
        ("stack:4,unpool", {}),
        ("unshare,unpool", {}),
        ("stack:4,unshare,unpool", {}),
    ])
    def test_outputs_own_their_memory(self, spec, init):
        kw = dict(L=2, ffn_mode="shared", ffn_k=2, pool_k=2)
        kw.update(init)
        cfg = small_config(**kw)
        params = init_params(cfg, Rng(24).fork("init"))
        snapshot = {k: v.tobytes() for k, v in params.items()}
        dc = DataConfig(V=5, corpus_size=8, seq_len_full=8, train_len=4,
                        masks_per_seq=1)
        grown, new_cfg, _ = apply(parse_ops(spec), params, cfg, dc)
        shape_audit(grown, new_cfg)
        outputs = list(grown.items())
        for i, (name, t) in enumerate(outputs):
            for src, s in params.items():
                assert not np.shares_memory(t, s), (name, src)
            for other, u in outputs[i + 1:]:
                assert not np.shares_memory(t, u), (name, other)
        for t in grown.values():
            t += 1.0
        assert {k: v.tobytes() for k, v in params.items()} == snapshot

    def test_unshare_on_full_mode_rejected(self):
        cfg = small_config()
        params = init_params(cfg, Rng(23).fork("init"))
        dc = DataConfig(V=5, corpus_size=8, seq_len_full=8, train_len=8,
                        masks_per_seq=2)
        with pytest.raises(StateError):
            apply([UnshareFFN()], params, cfg, dc)


class TestOpSpecs:
    @pytest.mark.parametrize("spec,op", [
        ("stack:6", StackDepth(6)),
        ("unshare", UnshareFFN()),
        ("defactorize", DefactorizeFFN()),
        ("unpool", Unpool()),
    ])
    def test_round_trip(self, spec, op):
        assert parse_op(spec) == op
        assert op.spec == spec

    def test_every_registered_op(self):
        contract = {StackDepth(6): (0, False), UnshareFFN(): (1, True),
                    DefactorizeFFN(): (1, True), Unpool(): (2, False)}
        assert set(OPS.values()) == {type(op) for op in contract}
        for op, (order, preserving) in contract.items():
            assert OPS[op.name] is type(op)
            assert parse_op(op.spec) == op
            assert (op.order, op.preserving) == (order, preserving)

    def test_comma_separated_list(self):
        assert parse_ops("unshare, unpool") == [UnshareFFN(), Unpool()]

    def test_empty_spec(self):
        assert parse_ops("") == []

    def test_unknown_spec_rejected(self):
        with pytest.raises(ParamError):
            parse_op("widen:2")

    # extend: is gone; length growth is the per-stage train_len/masks_per_seq
    @pytest.mark.parametrize("spec", ["extend:64:8", "stack:abc", "stack:", "stack",
                                      "stack:2:2", "unshare:2", "stack:1.5"])
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ParamError):
            parse_op(spec)


class TestPreservationProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_unshare_and_defactorize_preserve_outputs(self, seed):
        rng = Rng(1000 + seed)
        D = int(rng.choice([8, 16]))
        H = int(rng.choice([16, 32]))
        M = int(rng.choice([1, 2]))
        n = int(rng.choice([4, 8]))
        for op, mode, kw in [
            (UnshareFFN(), "shared", {"ffn_k": int(rng.choice([2, 4]))}),
            (DefactorizeFFN(), "factorized", {"ffn_h": int(rng.choice([2, 3]))}),
        ]:
            cfg = ModelConfig(L=2, D=D, H=H, M=M, N_max=8, V=7, dropout_p=0.0,
                              ffn_mode=mode, **kw)
            params = init_params(cfg, rng.fork("init"))
            ids, masked, _ = random_batch(rng.fork("batch"), 2, n, 2, 7)
            report = verify_function_preserving(params, cfg, op, (ids, masked),
                                                tol=1e-9)
            assert report.preservation_class and report.passed
            assert report.max_abs_diff <= 1e-9

    @pytest.mark.parametrize("row", [0, 1])
    def test_nan_logits_in_any_row_fail(self, row):
        """A NaN in the logits of any probe row is reported as a NaN diff
        and fails, whichever row holds it."""
        cfg = small_config(ffn_mode="shared", ffn_k=2)
        params = init_params(cfg, Rng(32).fork("init"))
        ids = np.array([[1, 2, 1, 2], [3, 4, 3, 4]])
        params["token_emb"][ids[row, 0]] = np.nan  # a token only this row reads
        report = verify_function_preserving(params, cfg, UnshareFFN(),
                                            (ids, np.array([[0, 2], [1, 3]])))
        assert report.preservation_class
        assert np.isnan(report.max_abs_diff) and not report.passed

    def test_stack_report_only_nonzero(self):
        cfg = small_config(L=1)
        params = init_params(cfg, Rng(30).fork("init"))
        ids, masked, _ = random_batch(Rng(31), 2, 6, 2, 5)
        report = verify_function_preserving(params, cfg, StackDepth(2),
                                            (ids, masked))
        assert not report.preservation_class
        assert report.max_abs_diff > 0.0
        assert report.passed
