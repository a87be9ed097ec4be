"""Run configuration: a JSON document describing model, data, schedule,
optimizer, and cost-reporting flags.

The ``model`` section declares the *final* architecture; optional
``model.init`` overrides describe the reduced stage-0 model (fewer layers,
shared/factorized FFN, query pooling).  The schedule's growth-op strings
must compose the initial config back to the declared final one; this is
validated before any run.  A stage that omits ``train_len`` or
``masks_per_seq`` inherits the previous stage's value (``train.stage_data``);
stage 0 defaults to ``seq_len_full`` and 1 mask.  Unknown keys and values of
the wrong JSON type are rejected.  The stacking and compound presets, at
paper dims (BERT-base) and desk-scale dims, ship as ``presets/*.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .data import DataConfig
from .errors import ParamError, ValidationError
from .growth import parse_ops
from .model import ModelConfig
from .train import OptimizerConfig, Schedule, Stage

_REQUIRED = object()
_NUMBER = (int, float)


@dataclass
class CostFlags:
    count_overhead: bool = True


@dataclass
class RunConfig:
    schedule: Schedule
    final_model: ModelConfig
    optimizer: OptimizerConfig
    cost: CostFlags = field(default_factory=CostFlags)
    eval_batch_size: int = 16


def _typed(value, types) -> bool:
    """``isinstance``, except that JSON ``true``/``false`` are only bools."""
    return isinstance(value, types) and (types is bool or not isinstance(value, bool))


def _need(section: dict, key: str, path: str, types, default=_REQUIRED):
    """``section[key]`` checked against ``types``; ``default`` when absent,
    or an error if no default is given."""
    if key not in section:
        if default is _REQUIRED:
            raise ValidationError(f"{path}.{key}: missing required key")
        return default
    value = section[key]
    if not _typed(value, types):
        expected = "number" if types is _NUMBER else types.__name__
        raise ValidationError(
            f"{path}.{key}: expected {expected}, got {type(value).__name__}")
    return value


def _known(section: dict, path: str, keys: tuple) -> None:
    for key in section:
        if key not in keys:
            raise ValidationError(f"{path}.{key}: unknown key")


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
    _known(doc, "$", ("model", "data", "schedule", "optimizer", "cost",
                      "eval_batch_size"))
    m = _need(doc, "model", "$", dict)
    _known(m, "$.model", ("L", "D", "H", "M", "N_max", "V", "dropout",
                          "attn_scale", "init"))
    final_model = ModelConfig(
        **{k: _need(m, k, "$.model", int) for k in ("L", "D", "H", "M", "N_max", "V")},
        dropout_p=float(_need(m, "dropout", "$.model", _NUMBER, 0.1)),
        attn_scale=_need(m, "attn_scale", "$.model", bool, True))
    try:
        final_model.validate()
    except ValidationError as exc:
        raise ValidationError(f"$.model: {exc}") from None

    init = _need(m, "init", "$.model", dict, {})
    _known(init, "$.model.init", ("L", "ffn", "pool_k"))
    mode, k, h = _parse_ffn_spec(_need(init, "ffn", "$.model.init", str, "full"),
                                 "$.model.init.ffn")
    L0 = _need(init, "L", "$.model.init", int, final_model.L)
    pool_k = _need(init, "pool_k", "$.model.init", int, 1)
    try:
        model0 = final_model.with_(L=L0, ffn_mode=mode, ffn_k=k, ffn_h=h, pool_k=pool_k)
    except ValidationError as exc:
        raise ValidationError(f"$.model.init: {exc}") from None

    stages = []
    for i, s in enumerate(_need(doc, "schedule", "$", list)):
        path = f"$.schedule[{i}]"
        if not isinstance(s, dict):
            raise ValidationError(f"{path}: expected object")
        _known(s, path, ("steps", "ops", "train_len", "masks_per_seq", "batch_size"))
        spec = _need(s, "ops", path, str, "")
        try:
            ops = tuple(parse_ops(spec))
        except ParamError as exc:
            raise ValidationError(f"{path}.ops: {exc}") from None
        stages.append(Stage(
            steps=_need(s, "steps", path, int),
            ops_at_start=ops,
            train_len=_need(s, "train_len", path, int, 0),
            masks_per_seq=_need(s, "masks_per_seq", path, int, 0),
            batch_size=_need(s, "batch_size", path, int, 16),
        ))
    if not stages:
        raise ValidationError("$.schedule: must contain at least one stage")

    d = _need(doc, "data", "$", dict)
    _known(d, "$.data", ("seed", "corpus_size", "seq_len_full", "mask_token_id",
                         "markov_order"))
    seq_len_full = _need(d, "seq_len_full", "$.data", int)
    data0 = DataConfig(
        V=final_model.V,
        corpus_size=_need(d, "corpus_size", "$.data", int),
        seq_len_full=seq_len_full,
        train_len=stages[0].train_len or seq_len_full,
        masks_per_seq=stages[0].masks_per_seq or 1,
        mask_token_id=_need(d, "mask_token_id", "$.data", int, 0),
        markov_order=_need(d, "markov_order", "$.data", int, 1),
        seed=_need(d, "seed", "$.data", int),
    )
    try:
        data0.validate()
    except ValidationError as exc:
        raise ValidationError(f"$.data: {exc}") from None

    o = _need(doc, "optimizer", "$", dict, {})
    _known(o, "$.optimizer", ("peak_lr", "warmup", "betas", "eps", "weight_decay"))
    betas = _need(o, "betas", "$.optimizer", list, [0.9, 0.999])
    if len(betas) != 2 or not all(_typed(b, _NUMBER) for b in betas):
        raise ValidationError("$.optimizer.betas: expected a list of two numbers")
    optimizer = OptimizerConfig(
        peak_lr=float(_need(o, "peak_lr", "$.optimizer", _NUMBER, 1e-4)),
        warmup=_need(o, "warmup", "$.optimizer", int, 10_000),
        beta1=float(betas[0]), beta2=float(betas[1]),
        eps=float(_need(o, "eps", "$.optimizer", _NUMBER, 1e-6)),
        weight_decay=float(_need(o, "weight_decay", "$.optimizer", _NUMBER, 0.01)),
    )
    c = _need(doc, "cost", "$", dict, {})
    _known(c, "$.cost", ("count_overhead",))
    cost = CostFlags(count_overhead=_need(c, "count_overhead", "$.cost", bool, True))

    schedule = Schedule(stages=tuple(stages), model0=model0, data0=data0)
    try:
        schedule.validate(final_config=final_model)
    except ValidationError as exc:
        raise ValidationError(f"$.schedule: {exc}") from None
    eval_batch_size = _need(doc, "eval_batch_size", "$", int, 16)
    if eval_batch_size < 1:
        raise ValidationError(f"$.eval_batch_size: must be >= 1, got {eval_batch_size}")
    return RunConfig(schedule=schedule, final_model=final_model,
                     optimizer=optimizer, cost=cost, eval_batch_size=eval_batch_size)


def load_run_config(path_or_name) -> RunConfig:
    """Load a config from a JSON file path, or a shipped preset by name."""
    source = Path(path_or_name)
    if not source.is_file():
        shipped = resources.files(__package__) / "presets"
        source = next((f for f in shipped.iterdir() if f.name == f"{path_or_name}.json"),
                      None)
        if source is None:
            raise ValidationError(f"no such config file or preset: {path_or_name}")
    try:
        doc = json.loads(source.read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path_or_name}: cannot read config: {exc}") from None
    return parse_run_config(doc)
