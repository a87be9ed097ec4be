import numpy as np
import pytest

from growtrain.costs import (StagePlan, attn_mult_adds, ffn_mult_adds,
                             ffn_mult_adds_for_config, format_report,
                             model_mult_adds_per_step, report_to_dict,
                             schedule_cost)
from growtrain.errors import ValidationError
from growtrain.model import ModelConfig
from growtrain.rng import Rng

BERT_BASE = ModelConfig(L=12, D=768, H=3072, M=12, N_max=512, V=30522)


def bert(**kw):
    return BERT_BASE.with_(**kw)


class TestFfnMultAdds:
    def test_bert_base_layer(self):
        assert ffn_mult_adds(512, 768, 3072) == 2_415_919_104

    def test_unit_dims(self):
        assert ffn_mult_adds(1, 1, 1) == 2

    def test_shared_halves(self):
        cfg = bert(ffn_mode="shared", ffn_k=2)
        assert ffn_mult_adds_for_config(512, cfg) == 1_207_959_552

    def test_shared_mode_exact_division(self):
        for k in (2, 4, 8):
            cfg = bert(ffn_mode="shared", ffn_k=k)
            full = ffn_mult_adds_for_config(512, bert())
            assert ffn_mult_adds_for_config(512, cfg) * k == full

    def test_factorized_thin_chains(self):
        cfg = bert(ffn_mode="factorized", ffn_h=64)
        assert ffn_mult_adds_for_config(512, cfg) == 2 * 512 * 64 * (768 + 3072)


class TestAttnMultAdds:
    def test_bert_base_layer(self):
        assert attn_mult_adds(512, 512, 768) == 1_610_612_736

    def test_unit_dims(self):
        assert attn_mult_adds(1, 1, 1) == 6

    def test_pooled_first_layer(self):
        assert attn_mult_adds(256, 512, 768) == 1_107_296_256

    def test_square_case_identity_100_random(self):
        rng = Rng(40)
        for _ in range(100):
            N = int(rng.integers(1, 2048))
            D = int(rng.integers(1, 1024))
            assert attn_mult_adds(N, N, D) == 4 * N * D * D + 2 * N * N * D


class TestModelMultAdds:
    def test_bert_base_totals(self):
        step = model_mult_adds_per_step(bert(), 512, 76)
        assert step.layers_total == 12 * 4_026_531_840 == 48_318_382_080
        assert step.head == 2 * 76 * 768 * 30522 == 3_563_016_192

    def test_single_layer_is_sum_of_parts(self):
        cfg = bert(L=1)
        step = model_mult_adds_per_step(cfg, 512, 76)
        assert step.total == (attn_mult_adds(512, 512, 768)
                              + ffn_mult_adds(512, 768, 3072)
                              + 2 * 76 * 768 * 30522)

    def test_pooled_layer_split(self):
        cfg = bert(pool_k=2)
        step = model_mult_adds_per_step(cfg, 512, 76)
        assert step.layer_first == (attn_mult_adds(256, 512, 768)
                                    + ffn_mult_adds(256, 768, 3072))
        assert step.layer_rest_each == (attn_mult_adds(256, 256, 768)
                                        + ffn_mult_adds(256, 768, 3072))

    def test_monotone_in_every_extent(self):
        base = model_mult_adds_per_step(bert(), 512, 76).total
        assert model_mult_adds_per_step(bert(L=13), 512, 76).total > base
        assert model_mult_adds_per_step(bert(), 513, 76).total > base
        assert model_mult_adds_per_step(bert(D=780), 512, 76).total > base
        assert model_mult_adds_per_step(bert(H=3073), 512, 76).total > base

    def test_asymptotic_quadratic_in_length(self):
        # with N >> D, H the N^2 attention term dominates
        cfg = ModelConfig(L=1, D=8, H=16, M=1, N_max=1 << 20, V=16)
        n = 16 * cfg.D
        c1 = model_mult_adds_per_step(cfg, n, 1).layers_total
        c2 = model_mult_adds_per_step(cfg, 2 * n, 1).layers_total
        assert abs(c2 / c1 - 4.0) < 0.4


def stack_plans():
    return [
        StagePlan(300_000, bert(L=3), 512, 76),
        StagePlan(400_000, bert(L=6), 512, 76),
        StagePlan(300_000, bert(L=12), 512, 76),
    ]


def compound_plans():
    small = dict(ffn_mode="shared", ffn_k=2, pool_k=2)
    return [
        StagePlan(200_000, bert(L=3, **small), 512, 76),
        StagePlan(200_000, bert(L=6, **small), 512, 76),
        StagePlan(300_000, bert(L=12, **small), 512, 76),
        StagePlan(300_000, bert(L=12), 512, 76),
    ]


def baseline_plans(total_steps=1_000_000):
    return [StagePlan(total_steps, bert(L=12), 512, 76)]


class TestScheduleCost:
    def test_stacking_speedup_without_overhead(self):
        report = schedule_cost(stack_plans(), baseline_plans(),
                               count_overhead=False)
        # 1M steps at 12 layers vs 300K@3 + 400K@6 + 300K@12 layer-steps
        assert report.speedup_vs_baseline == pytest.approx(
            12_000 / (900 + 2400 + 3600) - 1, abs=1e-12)
        assert f"{report.speedup_vs_baseline * 100:+.4f}" == "+73.9130"

    def test_stacking_speedup_with_overhead(self):
        report = schedule_cost(stack_plans(), baseline_plans(),
                               count_overhead=True)
        assert abs(report.speedup_vs_baseline - 0.655116) < 1e-4

    def test_compound_speedup_with_overhead(self):
        report = schedule_cost(compound_plans(), baseline_plans(),
                               count_overhead=True)
        assert f"{report.speedup_vs_baseline * 100:+.4f}" == "+104.2016"

    def test_single_stage_composition(self):
        plans = [StagePlan(7, bert(), 512, 76)]
        report = schedule_cost(plans, plans)
        step = model_mult_adds_per_step(bert(), 512, 76)
        assert report.total == 7 * step.total
        assert report.speedup_vs_baseline == 0.0

    def test_totals_are_stage_sums(self):
        report = schedule_cost(stack_plans(), baseline_plans())
        assert report.total == sum(s.stage_total for s in report.stages)

    def test_mismatched_final_configs_rejected(self):
        with pytest.raises(ValidationError):
            schedule_cost(stack_plans(), [StagePlan(1_000_000, bert(L=6), 512, 76)])

    def test_report_formatting(self):
        report = schedule_cost(stack_plans(), baseline_plans(),
                               count_overhead=False)
        text = format_report(report)
        assert "speedup vs baseline: +73.9%" in text
        doc = report_to_dict(report)
        assert doc["total"] == report.total
        assert len(doc["stages"]) == 3
