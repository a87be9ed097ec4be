"""Growth operators applied between training stages.

Each operator maps (params, config, data_config) to a larger state; inputs
are never mutated.  The operator functions, and ``fold`` which composes
them, return dicts that still reference the input tensors they leave
unchanged; ``apply`` returns tensors that share memory with neither its
input nor each other, so they can be trained.  UnshareFFN and DefactorizeFFN
are exactly output-preserving; StackDepth and Unpool change the computed
function and are verified report-only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import ParamError, StateError
from .model import ModelConfig, encoder_forward
from .rng import Rng


@dataclass(frozen=True)
class StackDepth:
    target_L: int


@dataclass(frozen=True)
class UnshareFFN:
    pass


@dataclass(frozen=True)
class DefactorizeFFN:
    pass


@dataclass(frozen=True)
class Unpool:
    pass


@dataclass(frozen=True)
class ExtendLength:
    new_train_len: int
    new_masks_per_seq: int


GrowthOp = Union[StackDepth, UnshareFFN, DefactorizeFFN, Unpool, ExtendLength]

PRESERVING_OPS = (UnshareFFN, DefactorizeFFN)

# Fixed composition order at a stage boundary: depth, width, length.
_ORDER = {StackDepth: 0, UnshareFFN: 1, DefactorizeFFN: 1, Unpool: 2, ExtendLength: 2}


def grow_depth_stack(params: dict, config: ModelConfig, target_L: int):
    """Repeat the trained layer stack: new layer l copies source layer l mod L."""
    if target_L < config.L or target_L % config.L != 0:
        raise ParamError(
            f"stack target {target_L} must be a positive multiple of L={config.L}")
    new_params = {}
    layer_keys = [k for k in params if k.startswith("layer")]
    for name, t in params.items():
        if not name.startswith("layer"):
            new_params[name] = t
    for i in range(target_L):
        src = i % config.L
        src_prefix = f"layer{src}."
        for name in layer_keys:
            if name.startswith(src_prefix):
                new_params[f"layer{i}." + name[len(src_prefix):]] = params[name]
    return new_params, config.with_(L=target_L)


def grow_ffn_unshare(params: dict, config: ModelConfig):
    """Tile k copies of W1' horizontally and k copies of W2'/k vertically."""
    if config.ffn_mode != "shared":
        raise StateError(f"unshare requires shared FFN mode, got {config.ffn_mode!r}")
    k = config.ffn_k
    new_params = {}
    for name, t in params.items():
        if name.endswith("ffn.w1s"):
            new_params[name[:-len("w1s")] + "w1"] = np.concatenate([t] * k, axis=1)
        elif name.endswith("ffn.w2s"):
            new_params[name[:-len("w2s")] + "w2"] = np.concatenate([t / k] * k, axis=0)
        else:
            new_params[name] = t
    return new_params, config.with_(ffn_mode="full", ffn_k=1)


def grow_ffn_defactorize(params: dict, config: ModelConfig):
    """Multiply the thin factors out: W1 = W11 W12, W2 = W21 W22."""
    if config.ffn_mode != "factorized":
        raise StateError(
            f"defactorize requires factorized FFN mode, got {config.ffn_mode!r}")
    new_params = {}
    for i in range(config.L):
        p = f"layer{i}.ffn."
        new_params[p + "w1"] = params[p + "w11"] @ params[p + "w12"]
        new_params[p + "w2"] = params[p + "w21"] @ params[p + "w22"]
    factor_suffixes = ("ffn.w11", "ffn.w12", "ffn.w21", "ffn.w22")
    for name, t in params.items():
        if not name.endswith(factor_suffixes):
            new_params[name] = t
    return new_params, config.with_(ffn_mode="full", ffn_h=0)


def grow_remove_pooling(params: dict, config: ModelConfig):
    """Drop the query-pooling stage; every parameter is bit-identical."""
    if config.pool_k <= 1:
        raise StateError("unpool requires pool_k > 1")
    return dict(params), config.with_(pool_k=1)


def extend_length(data_config, new_train_len: int, new_masks_per_seq: int):
    """Raise the data pipeline's truncation length and masks per sequence."""
    if new_train_len < data_config.train_len:
        raise ParamError(
            f"extend: new length {new_train_len} below current {data_config.train_len}")
    if new_train_len > data_config.seq_len_full:
        raise ParamError(
            f"extend: new length {new_train_len} exceeds full length "
            f"{data_config.seq_len_full}")
    if not 0 < new_masks_per_seq < new_train_len:
        raise ParamError(f"extend: masks {new_masks_per_seq} out of range")
    return replace(data_config, train_len=new_train_len,
                   masks_per_seq=new_masks_per_seq)


def apply_to_config(op: GrowthOp, config: ModelConfig, data_config):
    """Config-only transition (used by schedule validation and cost plans)."""
    if isinstance(op, StackDepth):
        if op.target_L < config.L or op.target_L % config.L != 0:
            raise ParamError(
                f"stack target {op.target_L} must be a positive multiple of L={config.L}")
        return config.with_(L=op.target_L), data_config
    if isinstance(op, UnshareFFN):
        if config.ffn_mode != "shared":
            raise StateError(f"unshare requires shared FFN mode, got {config.ffn_mode!r}")
        return config.with_(ffn_mode="full", ffn_k=1), data_config
    if isinstance(op, DefactorizeFFN):
        if config.ffn_mode != "factorized":
            raise StateError(
                f"defactorize requires factorized FFN mode, got {config.ffn_mode!r}")
        return config.with_(ffn_mode="full", ffn_h=0), data_config
    if isinstance(op, Unpool):
        if config.pool_k <= 1:
            raise StateError("unpool requires pool_k > 1")
        return config.with_(pool_k=1), data_config
    if isinstance(op, ExtendLength):
        return config, extend_length(data_config, op.new_train_len, op.new_masks_per_seq)
    raise ParamError(f"unknown growth op {op!r}")


def fold(ops_list, params: dict, config: ModelConfig, data_config):
    """Apply a list of growth ops in the fixed depth, width, length order.

    The result references every input tensor an op leaves unchanged, and
    ``stack`` repeats source layers under several names, so it is for
    reading only (forward passes); ``apply`` returns owned tensors.
    """
    ordered = sorted(ops_list, key=lambda op: _ORDER[type(op)])
    grown = params
    for op in ordered:
        if isinstance(op, StackDepth):
            grown, config = grow_depth_stack(grown, config, op.target_L)
        elif isinstance(op, UnshareFFN):
            grown, config = grow_ffn_unshare(grown, config)
        elif isinstance(op, DefactorizeFFN):
            grown, config = grow_ffn_defactorize(grown, config)
        elif isinstance(op, Unpool):
            grown, config = grow_remove_pooling(grown, config)
        elif isinstance(op, ExtendLength):
            data_config = extend_length(data_config, op.new_train_len,
                                        op.new_masks_per_seq)
        else:
            raise ParamError(f"unknown growth op {op!r}")
    return grown, config, data_config


def apply(ops_list, params: dict, config: ModelConfig, data_config):
    """``fold``, with every output tensor owned: a tensor that shares memory
    with an input or another output is copied."""
    grown, config, data_config = fold(ops_list, params, config, data_config)
    return _owned(grown, params), config, data_config


def _memory_owner(t: np.ndarray) -> int:
    """Identity of the buffer a tensor's memory belongs to."""
    while isinstance(t.base, np.ndarray):
        t = t.base
    return id(t if t.base is None else t.base)


def _owned(grown: dict, inputs: dict) -> dict:
    """Copy exactly the grown tensors whose memory belongs to an input
    tensor or to a tensor already kept under another name (``stack``
    repeats source layers); every other tensor is new and is kept as is."""
    taken = {_memory_owner(t) for t in inputs.values()}
    out = {}
    for name, t in grown.items():
        owner = _memory_owner(t)
        if owner in taken:
            t = t.copy()
            owner = id(t)
        taken.add(owner)
        out[name] = t
    return out


# ---------------------------------------------------------------------------
# Op spec strings (shared by config files and the grow/verify commands)
# ---------------------------------------------------------------------------

def parse_op(token: str) -> GrowthOp:
    token = token.strip()
    if token == "unshare":
        return UnshareFFN()
    if token == "defactorize":
        return DefactorizeFFN()
    if token == "unpool":
        return Unpool()
    if token.startswith("stack:"):
        return StackDepth(target_L=int(token.split(":", 1)[1]))
    if token.startswith("extend:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise ParamError(f"extend spec must be extend:<len>:<masks>, got {token!r}")
        return ExtendLength(new_train_len=int(parts[1]), new_masks_per_seq=int(parts[2]))
    raise ParamError(f"unknown growth op spec {token!r}")


def parse_ops(spec: str) -> list[GrowthOp]:
    spec = spec.strip()
    if not spec:
        return []
    return [parse_op(tok) for tok in spec.split(",")]


def format_op(op: GrowthOp) -> str:
    if isinstance(op, StackDepth):
        return f"stack:{op.target_L}"
    if isinstance(op, UnshareFFN):
        return "unshare"
    if isinstance(op, DefactorizeFFN):
        return "defactorize"
    if isinstance(op, Unpool):
        return "unpool"
    return f"extend:{op.new_train_len}:{op.new_masks_per_seq}"


# ---------------------------------------------------------------------------
# Preservation verification
# ---------------------------------------------------------------------------

@dataclass
class PreservationReport:
    op: str
    preservation_class: bool
    max_abs_diff: float
    tol: float
    passed: bool


def verify_function_preserving(params: dict, config: ModelConfig, op,
                               probe_batch, tol: float = 1e-9,
                               data_config=None) -> PreservationReport:
    """Compare masked-position logits before/after growth (dropout off).

    ``op`` may be a single op or a list.  Masked rows survive pooling, so
    logit shapes agree across every operator including Unpool.  The grown
    model is only read, so it is ``fold``'s output: no unchanged tensor is
    copied.
    """
    ops_list = op if isinstance(op, (list, tuple)) else [op]
    ids, masked = probe_batch
    ids = np.asarray(ids, dtype=np.int64)
    masked = np.asarray(masked, dtype=np.int64)
    rng = Rng(0)
    before = [encoder_forward(ids[j], masked[j], params, config, rng)[0]
              for j in range(ids.shape[0])]
    new_params, new_config, _ = fold(ops_list, params, config, data_config)
    after = [encoder_forward(ids[j], masked[j], new_params, new_config, rng)[0]
             for j in range(ids.shape[0])]
    diff = max(float(np.max(np.abs(b - a))) if b.size else 0.0
               for b, a in zip(before, after))
    preserving = all(isinstance(o, PRESERVING_OPS) for o in ops_list)
    passed = (diff <= tol) if preserving else True
    spec = ",".join(format_op(o) for o in ops_list)
    return PreservationReport(op=spec, preservation_class=preserving,
                              max_abs_diff=diff, tol=tol, passed=passed)
