"""Progressive compound growth for a toy Transformer masked language model.

A float64 numpy stack: tensor primitives with hand-written adjoints, an
encoder with reduced-width/factorized/pooled configurations, growth
operators applied between training stages, an analytic Mult-Add cost model,
and a staged AdamW training loop. Everything is deterministic per seed.
"""

from .costs import StagePlan, attn_mult_adds, ffn_mult_adds, schedule_cost
from .data import DataConfig, gen_corpus, make_batch, mask_tokens, truncate
from .growth import (DefactorizeFFN, StackDepth, UnshareFFN, Unpool, apply,
                     parse_ops, verify_function_preserving)
from .model import (ModelConfig, attention_forward, encoder_forward,
                    ffn_forward, init_params, mlm_loss, param_count,
                    shape_audit)
from .rng import Rng
from .train import (OptimizerConfig, Schedule, Stage, lr_at,
                    loss_continuity_check, optimizer_step, run_schedule)

__version__ = "0.1.0"

__all__ = [
    "DataConfig", "DefactorizeFFN", "ModelConfig",
    "OptimizerConfig", "Rng", "Schedule", "Stage", "StackDepth", "StagePlan",
    "UnshareFFN", "Unpool", "apply", "attention_forward", "attn_mult_adds",
    "encoder_forward", "ffn_forward", "ffn_mult_adds", "gen_corpus",
    "init_params", "loss_continuity_check", "lr_at", "make_batch",
    "mask_tokens", "mlm_loss", "optimizer_step", "param_count", "parse_ops",
    "run_schedule", "schedule_cost", "shape_audit", "truncate",
    "verify_function_preserving",
]
