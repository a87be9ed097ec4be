"""Run configuration: a JSON document describing model, data, schedule,
optimizer, and cost-reporting flags.

The ``model`` section declares the *final* architecture; optional
``model.init`` overrides describe the reduced stage-0 model (fewer layers,
shared/factorized FFN, query pooling).  The schedule's growth-op strings
must compose the initial config back to the declared final one; this is
validated before any run.  A stage that omits ``train_len`` or
``masks_per_seq`` inherits the previous stage's value (``train.stage_data``);
stage 0 defaults to ``seq_len_full`` and 1 mask.  Ships with the stacking and
compound presets at both paper dims (BERT-base) and desk-scale dims.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import DataConfig
from .errors import ValidationError
from .growth import parse_ops
from .model import ModelConfig
from .train import OptimizerConfig, Schedule, Stage


@dataclass
class CostFlags:
    count_overhead: bool = True
    flops_x2: bool = False


@dataclass
class RunConfig:
    schedule: Schedule
    final_model: ModelConfig
    optimizer: OptimizerConfig
    cost: CostFlags = field(default_factory=CostFlags)
    eval_batch_size: int = 16


def _need(section: dict, key: str, path: str, types):
    if key not in section:
        raise ValidationError(f"{path}.{key}: missing required key")
    value = section[key]
    if (isinstance(value, bool) and types is int) or not isinstance(value, types):
        raise ValidationError(
            f"{path}.{key}: expected {getattr(types, '__name__', types)}, "
            f"got {type(value).__name__}")
    return value


def _parse_ffn_spec(spec: str, path: str):
    if spec == "full":
        return "full", 1, 0
    kind, _, arg = spec.partition(":")
    if kind == "shared" and arg.isdigit():
        return "shared", int(arg), 0
    if kind == "factorized" and arg.isdigit():
        return "factorized", 1, int(arg)
    raise ValidationError(
        f"{path}: ffn must be 'full', 'shared:<k>' or 'factorized:<h>', got {spec!r}")


def parse_run_config(doc: dict) -> RunConfig:
    """Validate a config document and build the runnable schedule."""
    if not isinstance(doc, dict):
        raise ValidationError("config root must be an object")
    m = _need(doc, "model", "$", dict)
    final_kwargs = {
        "L": _need(m, "L", "$.model", int),
        "D": _need(m, "D", "$.model", int),
        "H": _need(m, "H", "$.model", int),
        "M": _need(m, "M", "$.model", int),
        "N_max": _need(m, "N_max", "$.model", int),
        "V": _need(m, "V", "$.model", int),
        "dropout_p": float(m.get("dropout", 0.1)),
        "attn_scale": bool(m.get("attn_scale", True)),
    }
    try:
        final_model = ModelConfig(**final_kwargs)
        final_model.validate()
    except ValidationError as exc:
        raise ValidationError(f"$.model: {exc}") from None

    init = m.get("init", {})
    if not isinstance(init, dict):
        raise ValidationError("$.model.init: expected object")
    mode, k, h = _parse_ffn_spec(init.get("ffn", "full"), "$.model.init.ffn")
    try:
        model0 = final_model.with_(
            L=int(init.get("L", final_model.L)),
            ffn_mode=mode, ffn_k=k, ffn_h=h,
            pool_k=int(init.get("pool_k", 1)))
    except ValidationError as exc:
        raise ValidationError(f"$.model.init: {exc}") from None

    d = _need(doc, "data", "$", dict)
    stages_doc = _need(doc, "schedule", "$", list)
    if not stages_doc:
        raise ValidationError("$.schedule: must contain at least one stage")
    try:
        data0 = DataConfig(
            V=final_model.V,
            corpus_size=_need(d, "corpus_size", "$.data", int),
            seq_len_full=_need(d, "seq_len_full", "$.data", int),
            train_len=int(stages_doc[0].get("train_len", d["seq_len_full"])),
            masks_per_seq=int(stages_doc[0].get("masks_per_seq", 1)),
            mask_token_id=int(d.get("mask_token_id", 0)),
            markov_order=int(d.get("markov_order", 1)),
            seed=_need(d, "seed", "$.data", int),
        )
        data0.validate()
    except ValidationError as exc:
        raise ValidationError(f"$.data: {exc}") from None

    stages = []
    for i, s in enumerate(stages_doc):
        path = f"$.schedule[{i}]"
        if not isinstance(s, dict):
            raise ValidationError(f"{path}: expected object")
        try:
            ops = tuple(parse_ops(s.get("ops", "")))
        except Exception as exc:
            raise ValidationError(f"{path}.ops: {exc}") from None
        stages.append(Stage(
            steps=_need(s, "steps", path, int),
            ops_at_start=ops,
            train_len=int(s.get("train_len", 0)),
            masks_per_seq=int(s.get("masks_per_seq", 0)),
            batch_size=int(s.get("batch_size", 16)),
        ))

    o = doc.get("optimizer", {})
    betas = o.get("betas", [0.9, 0.999])
    optimizer = OptimizerConfig(
        peak_lr=float(o.get("peak_lr", 1e-4)),
        warmup=int(o.get("warmup", 10_000)),
        beta1=float(betas[0]), beta2=float(betas[1]),
        eps=float(o.get("eps", 1e-6)),
        weight_decay=float(o.get("weight_decay", 0.01)),
    )
    c = doc.get("cost", {})
    cost = CostFlags(count_overhead=bool(c.get("count_overhead", True)),
                     flops_x2=bool(c.get("flops_x2", False)))

    schedule = Schedule(stages=tuple(stages), model0=model0, data0=data0)
    try:
        schedule.validate(final_config=final_model)
    except ValidationError as exc:
        raise ValidationError(f"$.schedule: {exc}") from None
    return RunConfig(schedule=schedule, final_model=final_model,
                     optimizer=optimizer, cost=cost,
                     eval_batch_size=int(doc.get("eval_batch_size", 16)))


def load_run_config(path_or_name) -> RunConfig:
    """Load a config from a JSON file path, or from a named preset."""
    p = Path(path_or_name)
    if p.exists():
        with open(p) as fh:
            return parse_run_config(json.load(fh))
    if str(path_or_name) in PRESETS:
        return parse_run_config(preset(str(path_or_name)))
    raise ValidationError(f"no such config file or preset: {path_or_name}")


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_PAPER_MODEL = {"L": 12, "D": 768, "H": 3072, "M": 12, "N_max": 512, "V": 30522,
                "dropout": 0.1, "attn_scale": True}
_PAPER_DATA = {"seed": 0, "corpus_size": 1024, "seq_len_full": 512,
               "mask_token_id": 0, "markov_order": 1}

_DESK_MODEL = {"L": 4, "D": 32, "H": 64, "M": 2, "N_max": 128, "V": 64,
               "dropout": 0.1, "attn_scale": True}
_DESK_DATA = {"seed": 0, "corpus_size": 256, "seq_len_full": 128,
              "mask_token_id": 0, "markov_order": 1}

PRESETS: dict[str, dict] = {
    # Progressive stacking, 300K / 400K / 300K at L/4, L/2, L.
    "stack_base_paper": {
        "model": dict(_PAPER_MODEL, init={"L": 3}),
        "data": _PAPER_DATA,
        "schedule": [
            {"steps": 300_000, "ops": "", "train_len": 512, "masks_per_seq": 76,
             "batch_size": 256},
            {"steps": 400_000, "ops": "stack:6", "train_len": 512,
             "masks_per_seq": 76, "batch_size": 256},
            {"steps": 300_000, "ops": "stack:12", "train_len": 512,
             "masks_per_seq": 76, "batch_size": 256},
        ],
        "optimizer": {"peak_lr": 1e-4, "warmup": 10_000},
        "cost": {"count_overhead": True},
    },
    # Compound: pooling (size 2) + FFN sharing (k=2) + stacking; treatments
    # kept through the third stage and removed for the final full stage.
    "compound_base_paper": {
        "model": dict(_PAPER_MODEL, init={"L": 3, "ffn": "shared:2", "pool_k": 2}),
        "data": _PAPER_DATA,
        "schedule": [
            {"steps": 200_000, "ops": "", "train_len": 512, "masks_per_seq": 76,
             "batch_size": 256},
            {"steps": 200_000, "ops": "stack:6", "train_len": 512,
             "masks_per_seq": 76, "batch_size": 256},
            {"steps": 300_000, "ops": "stack:12", "train_len": 512,
             "masks_per_seq": 76, "batch_size": 256},
            {"steps": 300_000, "ops": "unshare,unpool", "train_len": 512,
             "masks_per_seq": 76, "batch_size": 256},
        ],
        "optimizer": {"peak_lr": 1e-4, "warmup": 10_000},
        "cost": {"count_overhead": True},
    },
    "stack_base_desk": {
        "model": dict(_DESK_MODEL, init={"L": 1}),
        "data": _DESK_DATA,
        "schedule": [
            {"steps": 300, "ops": "", "train_len": 128, "masks_per_seq": 19,
             "batch_size": 16},
            {"steps": 400, "ops": "stack:2", "train_len": 128,
             "masks_per_seq": 19, "batch_size": 16},
            {"steps": 300, "ops": "stack:4", "train_len": 128,
             "masks_per_seq": 19, "batch_size": 16},
        ],
        "optimizer": {"peak_lr": 1e-2, "warmup": 50},
        "cost": {"count_overhead": True},
    },
    "compound_base_desk": {
        "model": dict(_DESK_MODEL, init={"L": 1, "ffn": "shared:2", "pool_k": 2}),
        "data": _DESK_DATA,
        "schedule": [
            {"steps": 400, "ops": "", "train_len": 128, "masks_per_seq": 19,
             "batch_size": 16},
            {"steps": 400, "ops": "stack:2", "train_len": 128,
             "masks_per_seq": 19, "batch_size": 16},
            {"steps": 600, "ops": "stack:4", "train_len": 128,
             "masks_per_seq": 19, "batch_size": 16},
            {"steps": 600, "ops": "unshare,unpool", "train_len": 128,
             "masks_per_seq": 19, "batch_size": 16},
        ],
        "optimizer": {"peak_lr": 1e-2, "warmup": 50},
        "cost": {"count_overhead": True},
    },
}


def preset(name: str) -> dict:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    return copy.deepcopy(PRESETS[name])
