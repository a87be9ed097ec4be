"""Analytic Mult-Add accounting and schedule-level speedup reports.

Counts follow the standard per-layer formulas: 2 N D H multiply-accumulates
for the feedforward block and 4 N D^2 + 2 N^2 D for self-attention (split
into query-side and key/value-side terms so the mixed-length pooled first
layer is handled exactly).  Embedding lookups and layer-norms count zero
Mult-Adds; the only overhead term is the MLM-head matmul.  Forward-pass
costs only; training ratios are unaffected since backward is a constant
multiple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .model import ModelConfig, param_count, pooled_length


def ffn_mult_adds(N: int, D: int, H_eff: int) -> int:
    """2 N D H for one feedforward block at effective hidden width H_eff."""
    return 2 * N * D * H_eff


def ffn_mult_adds_for_config(N: int, config: ModelConfig) -> int:
    if config.ffn_mode == "factorized":
        # two thin chains: x(D->h->H) and back (H->h->D)
        return 2 * N * config.ffn_h * (config.D + config.H)
    H_eff = config.H // config.ffn_k if config.ffn_mode == "shared" else config.H
    return ffn_mult_adds(N, config.D, H_eff)


def attn_mult_adds(N_q: int, N_kv: int, D: int) -> int:
    """Q/output projections at N_q, K/V projections at N_kv, score + context
    at N_q x N_kv.  Equals 4 N D^2 + 2 N^2 D when N_q = N_kv."""
    return 2 * N_kv * D * D + 2 * N_q * D * D + 2 * N_q * N_kv * D


@dataclass
class StepCost:
    """Per-sequence forward Mult-Adds for one optimizer step."""
    layer_first: int
    layer_rest_each: int
    layers_total: int
    head: int
    total: int


def model_mult_adds_per_step(config: ModelConfig, train_len: int,
                             masks_per_seq: int) -> StepCost:
    """Layer-by-layer Mult-Adds at effective lengths, plus MLM-head overhead.

    Pooled effective length is ceil(N / pool_k), ignoring the data-dependent
    masked-row exemption.  Batch size multiplies everything linearly and is
    reported separately by callers.
    """
    N = train_len
    if config.pool_k > 1:
        n_pooled = pooled_length(N, config.pool_k)
        first = attn_mult_adds(n_pooled, N, config.D) \
            + ffn_mult_adds_for_config(n_pooled, config)
        rest = attn_mult_adds(n_pooled, n_pooled, config.D) \
            + ffn_mult_adds_for_config(n_pooled, config)
    else:
        first = rest = attn_mult_adds(N, N, config.D) \
            + ffn_mult_adds_for_config(N, config)
    layers_total = first + (config.L - 1) * rest
    head = 2 * masks_per_seq * config.D * config.V
    return StepCost(layer_first=first, layer_rest_each=rest,
                    layers_total=layers_total, head=head,
                    total=layers_total + head)


@dataclass(frozen=True)
class StagePlan:
    """One stage for costing purposes: a fixed architecture and data shape."""
    steps: int
    config: ModelConfig
    train_len: int
    masks_per_seq: int


@dataclass
class StageCost:
    steps: int
    layer_mult_adds: int
    overhead_mult_adds: int
    per_step_total: int
    stage_total: int
    params: int


@dataclass
class CostReport:
    stages: list[StageCost] = field(default_factory=list)
    total: int = 0
    baseline_total: int = 0
    speedup_vs_baseline: float = 0.0
    unit: str = "mult-adds"


def _stage_costs(plans, count_overhead: bool) -> list[StageCost]:
    out = []
    for plan in plans:
        step = model_mult_adds_per_step(plan.config, plan.train_len,
                                        plan.masks_per_seq)
        overhead = step.head if count_overhead else 0
        per_step = step.layers_total + overhead
        out.append(StageCost(
            steps=plan.steps,
            layer_mult_adds=step.layers_total,
            overhead_mult_adds=overhead,
            per_step_total=per_step,
            stage_total=plan.steps * per_step,
            params=param_count(plan.config)["total"],
        ))
    return out


def schedule_cost(plans: list[StagePlan], baseline_plans: list[StagePlan],
                  count_overhead: bool = True, flops_x2: bool = False) -> CostReport:
    """Totals and speedup of a staged schedule against a baseline schedule.

    speedup = baseline_total / schedule_total - 1 (e.g. +1.071 for +107.1%).
    """
    if plans[-1].config != baseline_plans[-1].config:
        raise ValidationError(
            "schedule and baseline must end at the same final model config")
    scale = 2 if flops_x2 else 1
    stages = _stage_costs(plans, count_overhead)
    baseline = _stage_costs(baseline_plans, count_overhead)
    total = scale * sum(s.stage_total for s in stages)
    baseline_total = scale * sum(s.stage_total for s in baseline)
    for s in stages:
        s.layer_mult_adds *= scale
        s.overhead_mult_adds *= scale
        s.per_step_total *= scale
        s.stage_total *= scale
    return CostReport(stages=stages, total=total, baseline_total=baseline_total,
                      speedup_vs_baseline=baseline_total / total - 1.0,
                      unit="flops" if flops_x2 else "mult-adds")


def format_report(report: CostReport, baseline: bool = True) -> str:
    lines = [f"{'stage':>5} {'steps':>9} {'layers/step':>16} "
             f"{'overhead/step':>14} {'stage total':>18} {'params':>12}"]
    for i, s in enumerate(report.stages):
        lines.append(f"{i:>5} {s.steps:>9} {s.layer_mult_adds:>16} "
                     f"{s.overhead_mult_adds:>14} {s.stage_total:>18} {s.params:>12}")
    lines.append(f"total ({report.unit}): {report.total}")
    if baseline:
        lines.append(f"baseline total:      {report.baseline_total}")
        lines.append(f"speedup vs baseline: {report.speedup_vs_baseline * 100:+.1f}%")
    return "\n".join(lines)


def report_to_dict(report: CostReport, baseline: bool = True) -> dict:
    doc = {"unit": report.unit, "stages": [vars(s) for s in report.stages],
           "total": report.total}
    if baseline:
        doc.update(baseline_total=report.baseline_total,
                   speedup_vs_baseline=report.speedup_vs_baseline)
    return doc
