"""Staged training loop: grow at stage boundaries, AdamW in between.

Every stage restarts the learning-rate schedule (linear warmup to the peak,
linear decay to zero at the stage end) and resets optimizer moments.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import growth
from .costs import StagePlan
from .data import DataConfig, assemble, gen_corpus, iter_batches
from .errors import InputError, StateError, ValidationError
from .model import ModelConfig, init_params, mlm_loss, mlm_loss_value
from .rng import Rng


@dataclass(frozen=True)
class Stage:
    steps: int
    ops_at_start: tuple = ()
    train_len: int = 0       # 0: keep the previous stage's length
    masks_per_seq: int = 0   # 0: keep the previous stage's mask count
    batch_size: int = 16


def stage_data(stage: Stage, dc: DataConfig) -> DataConfig:
    """The data shape a stage trains at, given the shape it inherits (the
    previous stage's, after this stage's growth ops)."""
    return replace(dc, train_len=stage.train_len or dc.train_len,
                   masks_per_seq=stage.masks_per_seq or dc.masks_per_seq)


@dataclass(frozen=True)
class Schedule:
    stages: tuple
    model0: ModelConfig
    data0: DataConfig

    def resolved(self):
        """Yield (stage, model config, data config) per stage, with the growth
        ops applied and the data shape resolved by ``stage_data``."""
        config, dc = self.model0, self.data0
        for stage in self.stages:
            config = growth.grown_config(stage.ops_at_start, config)
            dc = stage_data(stage, dc)
            yield stage, config, dc

    def validate(self, final_config: ModelConfig | None = None) -> None:
        if not self.stages:
            raise ValidationError("schedule has no stages")
        if self.stages[0].ops_at_start:
            raise ValidationError("stage 0 must not carry growth ops")
        self.model0.validate()
        self.data0.validate()
        for t, (stage, config, dc) in enumerate(self.resolved()):
            if stage.steps < 1:
                raise ValidationError(f"stage {t}: steps must be >= 1")
            if stage.batch_size < 1:
                raise ValidationError(f"stage {t}: batch_size must be >= 1")
            try:
                dc.validate()
            except ValidationError as exc:
                raise ValidationError(f"stage {t}: {exc}") from None
            if dc.train_len > config.N_max:
                raise ValidationError(
                    f"stage {t}: train_len {dc.train_len} exceeds N_max")
        if final_config is not None and config != final_config:
            raise ValidationError(
                f"composed ops end at {config}, declared final is {final_config}")

    def stage_plans(self) -> list[StagePlan]:
        """Per-stage (config, data shape) sequence for the cost model."""
        return [StagePlan(steps=stage.steps, config=config, train_len=dc.train_len,
                          masks_per_seq=dc.masks_per_seq)
                for stage, config, dc in self.resolved()]

    def final_config(self) -> ModelConfig:
        return self.stage_plans()[-1].config

    def baseline_plans(self) -> list[StagePlan]:
        """Single-stage baseline: the final model trained for the same total
        steps at the last stage's data shape."""
        last = self.stage_plans()[-1]
        total = sum(s.steps for s in self.stages)
        return [replace(last, steps=total)]


@dataclass
class OptimizerConfig:
    peak_lr: float = 1e-4
    warmup: int = 10_000  # absolute cap; per stage: min(steps // 10, warmup)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.01


@dataclass
class OptimizerState:
    m: dict
    v: dict
    step: int = 0
    # two tensors' worth of temporaries for optimizer_step, reused every step
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)

    @staticmethod
    def fresh(params: dict) -> "OptimizerState":
        return OptimizerState(m={k: np.zeros_like(t) for k, t in params.items()},
                              v={k: np.zeros_like(t) for k, t in params.items()})


def _decayed(name: str) -> bool:
    # LN gains/biases and the head bias are exempt from weight decay
    return not name.endswith(("gain", "bias", ".b"))


def lr_at(step_in_stage: int, stage_steps: int, warmup: int, peak: float) -> float:
    """Piecewise-linear: (0, 0) -> (warmup, peak) -> (stage_steps, 0)."""
    if warmup >= stage_steps:
        raise InputError(f"warmup {warmup} must be below stage steps {stage_steps}")
    if step_in_stage <= warmup:
        return peak * step_in_stage / warmup if warmup > 0 else peak
    return peak * (stage_steps - step_in_stage) / (stage_steps - warmup)


def optimizer_step(params: dict, grads: dict, state: OptimizerState, lr: float,
                   cfg: OptimizerConfig):
    """Decoupled-weight-decay AdamW with bias correction; updates in place.

    The temporaries live in ``state.scratch``; each operation is the one of
    ``update = (m/bc1) / (sqrt(v/bc2) + eps) [+ wd*p]; p -= lr*update``, in
    that order, so the result is the same to the bit.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    largest = max((p.size for p in params.values()), default=0)
    if state.scratch.size < 2 * largest:
        state.scratch = np.empty(2 * largest)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise StateError(f"gradient shape mismatch for {name!r}")
        m = state.m[name]
        v = state.v[name]
        update = state.scratch[:p.size].reshape(p.shape)
        tmp = state.scratch[largest:largest + p.size].reshape(p.shape)
        m *= cfg.beta1
        np.multiply(g, 1.0 - cfg.beta1, out=tmp)
        m += tmp
        v *= cfg.beta2
        np.multiply(g, 1.0 - cfg.beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.eps
        np.divide(m, bc1, out=update)
        update /= tmp
        if cfg.weight_decay and _decayed(name):
            np.multiply(p, cfg.weight_decay, out=tmp)
            update += tmp
        update *= lr
        p -= update
    return params, state


@dataclass
class RunResult:
    params: dict
    config: ModelConfig
    data_config: DataConfig
    loss_log: list = field(default_factory=list)  # (step, stage, lr, loss)
    checkpoints: dict = field(default_factory=dict)  # label -> path


def stage_warmup(steps: int, cfg: OptimizerConfig) -> int:
    return min(steps // 10, cfg.warmup)


def run_schedule(schedule: Schedule, seed: int, out_dir=None,
                 opt_cfg: OptimizerConfig | None = None, log_every: int = 10,
                 corpus: np.ndarray | None = None) -> RunResult:
    """Algorithm: per stage, grow, reset optimizer/LR, then train.

    Checkpoints are written at every growth boundary (pre and post) and at
    the end when ``out_dir`` is given.  Fully deterministic per (seed,
    schedule): same seed, bit-identical checkpoints and loss log.
    """
    from .checkpoint import save_checkpoint  # local import, avoids cycle

    opt_cfg = opt_cfg or OptimizerConfig()
    schedule.validate()
    root = Rng(seed)
    data_rng = Rng(schedule.data0.seed)
    if corpus is None:
        corpus = gen_corpus(schedule.data0, data_rng.fork("data"))
    params = init_params(schedule.model0, root.fork("init"))
    config = schedule.model0
    dc = schedule.data0
    opt_state = OptimizerState.fresh(params)
    result = RunResult(params=params, config=config, data_config=dc)
    out = Path(out_dir) if out_dir is not None else None
    global_step = 0

    def write_ckpt(label: str, stage_index: int, boundary_ops=()):
        if out is None:
            return
        path = out / label
        save_checkpoint(path, params, config, dc, stage_index, global_step,
                        rng_state={"seed": seed, "stage": stage_index,
                                   "global_step": global_step},
                        extra={"boundary_ops": [o.spec for o in boundary_ops]})
        result.checkpoints[label] = str(path)

    for t, stage in enumerate(schedule.stages):
        if t > 0:
            write_ckpt(f"stage{t}_pregrowth", t, stage.ops_at_start)
            params, config, dc = growth.apply(stage.ops_at_start, params, config, dc)
            opt_state = OptimizerState.fresh(params)
            result.params, result.config, result.data_config = params, config, dc
            write_ckpt(f"stage{t}_postgrowth", t, stage.ops_at_start)
        dc = stage_data(stage, dc)
        result.data_config = dc
        warmup = stage_warmup(stage.steps, opt_cfg)
        batches = iter_batches(corpus, stage.batch_size, dc,
                               root.fork(f"stage{t}.data"))
        grads = None  # made by the stage's first step, refilled by the others
        for i in range(stage.steps):
            batch = next(batches)
            step_rng = root.fork(f"stage{t}.step{i}")
            loss, grads = mlm_loss(batch, params, config, step_rng, training=True,
                                   grads=grads)
            if not math.isfinite(loss):
                raise StateError(f"stage {t} step {i}: loss is {loss}; "
                                 f"{_first_nonfinite(params, grads)}")
            lr = lr_at(i, stage.steps, warmup, opt_cfg.peak_lr)
            optimizer_step(params, grads, opt_state, lr, opt_cfg)
            if i % log_every == 0 or i == stage.steps - 1:
                result.loss_log.append((global_step, t, lr, loss))
            global_step += 1
        del grads  # free before the boundary checkpoint and growth

    write_ckpt("final", len(schedule.stages) - 1)
    if out is not None:
        write_loss_csv(out / "loss.csv", result.loss_log)
    return result


def _first_nonfinite(params: dict, grads: dict) -> str:
    """Names the first parameter, then gradient, tensor holding a NaN or an
    infinity; only called once a loss is not finite."""
    for kind, tensors in (("parameter", params), ("gradient", grads)):
        for name, t in tensors.items():
            if not np.isfinite(t).all():
                return f"{kind} {name!r} holds a non-finite value"
    return "every parameter and gradient is finite"


def write_loss_csv(path, loss_log) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "stage", "lr", "loss"])
        for step, stage, lr, loss in loss_log:
            writer.writerow([step, stage, repr(lr), repr(loss)])


@dataclass
class ContinuityReport:
    loss_before: float
    loss_after: float
    diff: float
    preservation_class: bool
    passed: bool  # always True for report-only boundaries


def loss_continuity_check(ckpt_pre, ckpt_post, probe_batch,
                          tol: float = 1e-9) -> ContinuityReport:
    """Probe-batch MLM loss (dropout off) immediately before/after growth."""
    if ckpt_pre.stage_index != ckpt_post.stage_index:
        raise InputError("checkpoints are not from the same stage boundary")
    loss_b = mlm_loss_value(probe_batch, ckpt_pre.params, ckpt_pre.model_config)
    loss_a = mlm_loss_value(probe_batch, ckpt_post.params, ckpt_post.model_config)
    op_specs = ckpt_post.extra.get("boundary_ops", [])
    ops_list = [growth.parse_op(s) for s in op_specs]
    preserving = bool(ops_list) and all(o.preserving for o in ops_list)
    diff = abs(loss_a - loss_b)
    passed = diff <= tol if (preserving or not ops_list) else True
    return ContinuityReport(loss_before=loss_b, loss_after=loss_a, diff=diff,
                            preservation_class=preserving, passed=passed)


def evaluate(params: dict, config: ModelConfig, dc: DataConfig,
             corpus: np.ndarray, mask_rng: Rng, batch_size: int = 16) -> float:
    """Mean MLM loss over a corpus with dropout off."""
    total, count = 0.0, 0
    for start in range(0, corpus.shape[0], batch_size):
        idx = range(start, min(start + batch_size, corpus.shape[0]))
        # masks are forked per sequence index, so the result does not
        # depend on batch_size
        batch = assemble(corpus, idx, dc, mask_rng)
        loss = mlm_loss_value(batch, params, config)
        total += loss * len(idx)
        count += len(idx)
    return total / count
