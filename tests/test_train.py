import numpy as np
import numpy.testing as npt
import pytest

from growtrain import train
from growtrain.checkpoint import load_checkpoint
from growtrain.costs import schedule_cost
from growtrain.data import DataConfig, gen_corpus
from growtrain.errors import InputError, ParamError, StateError, ValidationError
from growtrain.growth import StackDepth, UnshareFFN, Unpool, fold
from growtrain.model import ModelConfig, init_params
from growtrain.rng import Rng
from growtrain.train import (OptimizerConfig, OptimizerState, Schedule, Stage,
                             evaluate, loss_continuity_check, lr_at,
                             optimizer_step, run_schedule, stage_warmup)

from conftest import random_batch


def tiny_schedule(stages=None, **model_kw):
    model = dict(L=1, D=4, H=8, M=2, N_max=16, V=8, dropout_p=0.1,
                 ffn_mode="shared", ffn_k=2)
    model.update(model_kw)
    model0 = ModelConfig(**model)
    data0 = DataConfig(V=8, corpus_size=8, seq_len_full=16, train_len=16,
                       masks_per_seq=3)
    if stages is None:
        stages = (
            Stage(steps=4, train_len=16, masks_per_seq=3, batch_size=4),
            Stage(steps=4, ops_at_start=(UnshareFFN(),), train_len=16,
                  masks_per_seq=3, batch_size=4),
        )
    return Schedule(stages=tuple(stages), model0=model0, data0=data0)


class TestLrSchedule:
    def test_vertices_exact(self):
        assert lr_at(0, 100, 10, 2.0) == 0.0
        assert lr_at(10, 100, 10, 2.0) == 2.0
        assert lr_at(100, 100, 10, 2.0) == 0.0

    def test_linear_between_vertices(self):
        assert lr_at(5, 100, 10, 2.0) == pytest.approx(1.0)
        assert lr_at(55, 100, 10, 2.0) == pytest.approx(1.0)

    def test_zero_warmup_starts_at_peak(self):
        assert lr_at(0, 100, 0, 2.0) == 2.0

    def test_warmup_must_fit_in_stage(self):
        with pytest.raises(InputError):
            lr_at(0, 10, 10, 1.0)

    def test_stage_warmup_is_capped(self):
        cfg = OptimizerConfig(warmup=50)
        assert stage_warmup(1000, cfg) == 50
        assert stage_warmup(300, cfg) == 30


class TestAdamW:
    def test_scalar_oracle_first_step(self):
        # by hand: m=0.1g, v=0.001g^2; bias-corrected update = g/(|g|+eps)
        params = {"w": np.array([2.0])}
        grads = {"w": np.array([0.5])}
        st = OptimizerState.fresh(params)
        cfg = OptimizerConfig(weight_decay=0.0, eps=1e-6)
        optimizer_step(params, grads, st, 0.1, cfg)
        expected = 2.0 - 0.1 * 0.5 / (0.5 + 1e-6)
        npt.assert_allclose(params["w"], expected, rtol=1e-12)

    def test_scalar_oracle_two_steps(self):
        params = {"w": np.array([1.0])}
        st = OptimizerState.fresh(params)
        cfg = OptimizerConfig(weight_decay=0.0, eps=1e-6)
        b1, b2 = cfg.beta1, cfg.beta2
        g1, g2 = 0.5, -0.25
        optimizer_step(params, {"w": np.array([g1])}, st, 0.1, cfg)
        optimizer_step(params, {"w": np.array([g2])}, st, 0.1, cfg)
        m = (1 - b1) * (b1 * g1 + g2) / (1 - b1**2)
        v = (1 - b2) * (b2 * g1**2 + g2**2) / (1 - b2**2)
        w1 = 1.0 - 0.1 * g1 / (abs(g1) + 1e-6)
        expected = w1 - 0.1 * m / (np.sqrt(v) + 1e-6)
        npt.assert_allclose(params["w"], expected, rtol=1e-12)

    def test_weight_decay_shrinks_weights(self):
        params = {"w": np.array([4.0])}
        st = OptimizerState.fresh(params)
        cfg = OptimizerConfig(weight_decay=0.01)
        optimizer_step(params, {"w": np.array([0.0])}, st, 0.5, cfg)
        npt.assert_allclose(params["w"], 4.0 * (1 - 0.5 * 0.01), rtol=1e-12)

    def test_gains_and_biases_exempt_from_decay(self):
        params = {"layer0.ln_attn.gain": np.array([1.0]),
                  "head.b": np.array([1.0]),
                  "head.w": np.array([1.0])}
        grads = {k: np.zeros(1) for k in params}
        st = OptimizerState.fresh(params)
        optimizer_step(params, grads, st, 0.5, OptimizerConfig(weight_decay=0.01))
        npt.assert_allclose(params["layer0.ln_attn.gain"], 1.0)
        npt.assert_allclose(params["head.b"], 1.0)
        assert params["head.w"][0] < 1.0

    def test_zero_grads_no_decay_is_identity(self):
        params = {"w": np.array([3.0, -1.0])}
        st = OptimizerState.fresh(params)
        cfg = OptimizerConfig(weight_decay=0.0)
        optimizer_step(params, {"w": np.zeros(2)}, st, 0.3, cfg)
        npt.assert_array_equal(params["w"], [3.0, -1.0])

    def test_gradient_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        st = OptimizerState.fresh(params)
        with pytest.raises(StateError):
            optimizer_step(params, {"w": np.zeros(4)}, st, 0.1, OptimizerConfig())

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_in_place_update_equals_expression_bitwise(self, weight_decay):
        def reference_step(params, grads, m, v, step, lr, cfg):
            # the AdamW expression as written before the update moved into
            # a reused scratch buffer
            bc1 = 1.0 - cfg.beta1**step
            bc2 = 1.0 - cfg.beta2**step
            for name, p in params.items():
                g = grads[name]
                m[name] *= cfg.beta1
                m[name] += (1.0 - cfg.beta1) * g
                v[name] *= cfg.beta2
                v[name] += (1.0 - cfg.beta2) * g * g
                update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.eps)
                if cfg.weight_decay and not name.endswith(("gain", "bias", ".b")):
                    update = update + cfg.weight_decay * p
                p -= lr * update

        rng = Rng(50)
        shapes = {"head.w": (3, 5), "layer0.ffn.w1": (5, 7), "pos_emb": (6, 5),
                  "head.b": (3,), "layer0.ln_attn.gain": (5,),
                  "layer0.ln_attn.bias": (5,)}
        params = {k: rng.normal(0.0, 1.0, s) for k, s in shapes.items()}
        ref = {k: t.copy() for k, t in params.items()}
        ref_m = {k: np.zeros_like(t) for k, t in params.items()}
        ref_v = {k: np.zeros_like(t) for k, t in params.items()}
        st = OptimizerState.fresh(params)
        cfg = OptimizerConfig(weight_decay=weight_decay)
        for step, lr in enumerate((0.3, 0.05, 1e-3, 0.7), start=1):
            grads = {k: rng.normal(0.0, 10.0 ** -step, t.shape)
                     for k, t in params.items()}
            grads["pos_emb"][1:3] = 0.0
            optimizer_step(params, grads, st, lr, cfg)
            reference_step(ref, grads, ref_m, ref_v, step, lr, cfg)
            for name in params:
                assert params[name].tobytes() == ref[name].tobytes(), (step, name)
                assert st.m[name].tobytes() == ref_m[name].tobytes(), (step, name)
                assert st.v[name].tobytes() == ref_v[name].tobytes(), (step, name)


class TestScheduleValidation:
    def test_ops_on_stage_zero_rejected(self):
        sched = tiny_schedule(stages=(
            Stage(steps=2, ops_at_start=(UnshareFFN(),)),))
        with pytest.raises(ValidationError):
            sched.validate()

    def test_final_config_mismatch_rejected(self):
        sched = tiny_schedule()
        with pytest.raises(ValidationError):
            sched.validate(final_config=sched.model0)

    def test_final_config_composition(self):
        sched = tiny_schedule()
        final = sched.final_config()
        assert final.ffn_mode == "full"
        sched.validate(final_config=final)

    def test_baseline_matches_total_steps(self):
        sched = tiny_schedule()
        base = sched.baseline_plans()
        assert len(base) == 1
        assert base[0].steps == sum(s.steps for s in sched.stages)
        assert base[0].config == sched.final_config()

    def test_defaulted_stage_plans_at_inherited_shape(self):
        """A stage that leaves train_len/masks_per_seq at 0 is costed at the
        shape run_schedule trains it at: the previous stage's."""
        sched = tiny_schedule(stages=(
            Stage(steps=2),
            Stage(steps=2, ops_at_start=(UnshareFFN(),), train_len=12,
                  masks_per_seq=2),
            Stage(steps=2, ops_at_start=(StackDepth(2),)),
        ))
        sched.validate()
        shapes = [(p.train_len, p.masks_per_seq) for p in sched.stage_plans()]
        assert shapes == [(16, 3), (12, 2), (12, 2)]
        report = schedule_cost(sched.stage_plans(), sched.baseline_plans())
        assert report.total > 0
        result = run_schedule(sched, seed=0)
        assert (result.data_config.train_len, result.data_config.masks_per_seq) == (12, 2)

    def test_ops_validated_in_fold_order(self):
        # depth before length, as fold applies them: the stack error comes first
        sched = tiny_schedule(stages=(
            Stage(steps=2),
            Stage(steps=2, ops_at_start=(Unpool(), StackDepth(3))),
        ), L=2)
        with pytest.raises(ParamError, match="stack target 3"):
            sched.validate()

    def test_resolved_data_shape_validated(self):
        sched = tiny_schedule(stages=(Stage(steps=2, masks_per_seq=16),))
        with pytest.raises(ValidationError, match="stage 0: masks_per_seq"):
            sched.validate()

    def test_length_beyond_full_rejected(self):
        sched = tiny_schedule(stages=(
            Stage(steps=2, train_len=8, masks_per_seq=2),
            Stage(steps=2, ops_at_start=(UnshareFFN(),), train_len=32),
        ))
        with pytest.raises(ValidationError, match="stage 1: train_len 32 exceeds"):
            sched.validate()


class TestRunSchedule:
    def test_bit_identical_replay(self, tmp_path):
        sched = tiny_schedule()
        a = run_schedule(sched, seed=3, out_dir=tmp_path / "a")
        b = run_schedule(sched, seed=3, out_dir=tmp_path / "b")
        assert a.loss_log == b.loss_log
        for name in a.params:
            assert a.params[name].tobytes() == b.params[name].tobytes()
        csv_a = (tmp_path / "a" / "loss.csv").read_bytes()
        csv_b = (tmp_path / "b" / "loss.csv").read_bytes()
        assert csv_a == csv_b

    def test_different_seed_different_trajectory(self):
        sched = tiny_schedule()
        a = run_schedule(sched, seed=3)
        b = run_schedule(sched, seed=4)
        assert a.loss_log != b.loss_log

    def test_boundary_checkpoints_written(self, tmp_path):
        sched = tiny_schedule()
        result = run_schedule(sched, seed=5, out_dir=tmp_path)
        assert set(result.checkpoints) == {"stage1_pregrowth",
                                           "stage1_postgrowth", "final"}
        final = load_checkpoint(tmp_path / "final")
        assert final.model_config == sched.final_config()
        assert final.global_step == 8

    def test_moments_reset_at_boundary_by_default(self, tmp_path):
        # unshare changes tensor names, so moments must reset; a stack
        # boundary resets them too
        sched = tiny_schedule(stages=(
            Stage(steps=3, train_len=16, masks_per_seq=3, batch_size=4),
            Stage(steps=3, ops_at_start=(StackDepth(2),), train_len=16,
                  masks_per_seq=3, batch_size=4),
        ))
        run_schedule(sched, seed=6)  # must not raise shape-audit errors

    def test_unshare_boundary_loss_continuity(self, tmp_path):
        sched = tiny_schedule()
        run_schedule(sched, seed=7, out_dir=tmp_path)
        pre = load_checkpoint(tmp_path / "stage1_pregrowth")
        post = load_checkpoint(tmp_path / "stage1_postgrowth")
        ids, masked, targets = random_batch(Rng(8), 4, 16, 3, 8)
        report = loss_continuity_check(pre, post, (ids, masked, targets))
        assert report.preservation_class
        assert report.diff <= 1e-9
        assert report.passed

    def test_stack_boundary_report_only(self, tmp_path):
        sched = tiny_schedule(
            ffn_mode="full", ffn_k=1,
            stages=(
                Stage(steps=3, train_len=16, masks_per_seq=3, batch_size=4),
                Stage(steps=3, ops_at_start=(StackDepth(2),), train_len=16,
                      masks_per_seq=3, batch_size=4),
            ))
        run_schedule(sched, seed=9, out_dir=tmp_path)
        pre = load_checkpoint(tmp_path / "stage1_pregrowth")
        post = load_checkpoint(tmp_path / "stage1_postgrowth")
        batch = random_batch(Rng(10), 4, 16, 3, 8)
        report = loss_continuity_check(pre, post, batch)
        assert not report.preservation_class
        assert report.diff > 0.0
        assert report.passed

    def test_identity_boundary_zero_diff(self, tmp_path):
        # same checkpoint on both sides: diff exactly 0
        sched = tiny_schedule()
        run_schedule(sched, seed=11, out_dir=tmp_path)
        pre = load_checkpoint(tmp_path / "stage1_pregrowth")
        batch = random_batch(Rng(12), 2, 16, 3, 8)
        report = loss_continuity_check(pre, pre, batch)
        assert report.diff == 0.0

    def test_non_finite_loss_names_stage_step_and_tensor(self, monkeypatch):
        def poisoned(cfg, rng):
            params = init_params(cfg, rng)
            params["layer0.w_v1"][1, 2] = np.nan
            return params
        monkeypatch.setattr(train, "init_params", poisoned)
        with pytest.raises(StateError, match=r"^stage 0 step 0: loss is nan; "
                                             r"parameter 'layer0.w_v1' holds a non-finite"):
            run_schedule(tiny_schedule(), seed=3)

    def test_loss_log_spacing(self):
        sched = tiny_schedule(stages=(
            Stage(steps=25, train_len=16, masks_per_seq=3, batch_size=4),))
        result = run_schedule(sched, seed=13, log_every=10)
        steps = [row[0] for row in result.loss_log]
        assert steps == [0, 10, 20, 24]


class TestEvaluate:
    def test_matches_direct_mean(self):
        dc = DataConfig(V=8, corpus_size=6, seq_len_full=16, train_len=16,
                        masks_per_seq=3)
        corpus = gen_corpus(dc, Rng(14))
        cfg = ModelConfig(L=1, D=4, H=8, M=2, N_max=16, V=8, dropout_p=0.0)
        params = init_params(cfg, Rng(15).fork("init"))
        a = evaluate(params, cfg, dc, corpus, Rng(16), batch_size=2)
        b = evaluate(params, cfg, dc, corpus, Rng(16), batch_size=6)
        npt.assert_allclose(a, b, rtol=1e-12)
