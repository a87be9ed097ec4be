"""Growth operators applied between training stages.

Each operator is one frozen dataclass, registered in ``OPS``.  Inputs are
never mutated.  ``GrowthOp.params`` and ``fold``, which composes the ops,
return dicts that still reference the input tensors they leave unchanged;
``apply`` returns tensors that share memory with neither its input nor each
other, so they can be trained.  UnshareFFN and DefactorizeFFN are exactly
output-preserving; StackDepth and Unpool change the computed function and
are verified report-only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ParamError, StateError
from .model import ModelConfig, encoder_forward
from .rng import Rng


class GrowthOp:
    """An op's whole contract.  Class attributes: ``name`` (the spec
    prefix), ``order`` (0 depth, 1 width, 2 length: the composition order)
    and ``preserving`` (whether the model's outputs stay unchanged).
    Methods: ``config(cfg)`` validates, then returns the grown config;
    ``params(p, cfg)`` returns the grown tensor map of a model at ``cfg``."""

    @property
    def spec(self) -> str:
        """``name[:arg...]``, the form ``parse_op`` reads."""
        return ":".join([self.name, *(str(getattr(self, f.name)) for f in fields(self))])


@dataclass(frozen=True)
class StackDepth(GrowthOp):
    """Repeat the trained layer stack: new layer l copies source layer l mod L."""
    target_L: int
    name = "stack"
    order = 0
    preserving = False

    def config(self, cfg):
        if self.target_L < cfg.L or self.target_L % cfg.L != 0:
            raise ParamError(
                f"stack target {self.target_L} must be a positive multiple of L={cfg.L}")
        return cfg.with_(L=self.target_L)

    def params(self, p, cfg):
        new_params = {name: t for name, t in p.items() if not name.startswith("layer")}
        layer_keys = [k for k in p if k.startswith("layer")]
        for i in range(self.target_L):
            src_prefix = f"layer{i % cfg.L}."
            for name in layer_keys:
                if name.startswith(src_prefix):
                    new_params[f"layer{i}." + name[len(src_prefix):]] = p[name]
        return new_params


@dataclass(frozen=True)
class UnshareFFN(GrowthOp):
    """Tile k copies of W1' horizontally and k copies of W2'/k vertically."""
    name = "unshare"
    order = 1
    preserving = True

    def config(self, cfg):
        if cfg.ffn_mode != "shared":
            raise StateError(f"unshare requires shared FFN mode, got {cfg.ffn_mode!r}")
        return cfg.with_(ffn_mode="full", ffn_k=1)

    def params(self, p, cfg):
        k = cfg.ffn_k
        new_params = {}
        for name, t in p.items():
            if name.endswith("ffn.w1s"):
                new_params[name[:-len("w1s")] + "w1"] = np.concatenate([t] * k, axis=1)
            elif name.endswith("ffn.w2s"):
                w2 = np.concatenate([t] * k, axis=0)
                w2 /= k   # in place: the same quotients as t / k, no temporary
                new_params[name[:-len("w2s")] + "w2"] = w2
            else:
                new_params[name] = t
        return new_params


@dataclass(frozen=True)
class DefactorizeFFN(GrowthOp):
    """Multiply the thin factors out: W1 = W11 W12, W2 = W21 W22."""
    name = "defactorize"
    order = 1
    preserving = True

    def config(self, cfg):
        if cfg.ffn_mode != "factorized":
            raise StateError(
                f"defactorize requires factorized FFN mode, got {cfg.ffn_mode!r}")
        return cfg.with_(ffn_mode="full", ffn_h=0)

    def params(self, p, cfg):
        new_params = {}
        for i in range(cfg.L):
            pre = f"layer{i}.ffn."
            new_params[pre + "w1"] = p[pre + "w11"] @ p[pre + "w12"]
            new_params[pre + "w2"] = p[pre + "w21"] @ p[pre + "w22"]
        factor_suffixes = ("ffn.w11", "ffn.w12", "ffn.w21", "ffn.w22")
        for name, t in p.items():
            if not name.endswith(factor_suffixes):
                new_params[name] = t
        return new_params


@dataclass(frozen=True)
class Unpool(GrowthOp):
    """Drop the query-pooling stage; every parameter is bit-identical."""
    name = "unpool"
    order = 2
    preserving = False

    def config(self, cfg):
        if cfg.pool_k <= 1:
            raise StateError("unpool requires pool_k > 1")
        return cfg.with_(pool_k=1)

    def params(self, p, cfg):
        return dict(p)


# Spec prefix -> op class: the one table an operator is registered in.
OPS = {cls.name: cls for cls in (StackDepth, UnshareFFN, DefactorizeFFN, Unpool)}


def _ordered(ops_list) -> list:
    """The ops in the fixed depth, width, length composition order."""
    return sorted(ops_list, key=lambda op: op.order)


def grown_config(ops_list, config: ModelConfig) -> ModelConfig:
    """The config ``fold`` ends at, validated, without touching a tensor."""
    for op in _ordered(ops_list):
        config = op.config(config)
    return config


def fold(ops_list, params: dict, config: ModelConfig, data_config):
    """Apply a list of growth ops in the fixed depth, width, length order;
    ``data_config`` passes through unchanged.

    The result references every input tensor an op leaves unchanged, and
    ``stack`` repeats source layers under several names, so it is for
    reading only (forward passes, or ``grow`` writing a checkpoint);
    ``apply`` returns owned tensors for training.
    """
    grown = params
    for op in _ordered(ops_list):
        new_config = op.config(config)  # validates before any tensor is read
        grown, config = op.params(grown, config), new_config
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
    """``<name>[:<int>...]``: one integer per field of the op ``OPS[name]``."""
    token = token.strip()
    name, *args = token.split(":")
    cls = OPS.get(name)
    if cls is None:
        raise ParamError(f"unknown growth op spec {token!r}")
    if len(args) != len(fields(cls)):
        raise ParamError(f"{name} takes {len(fields(cls))} argument(s), got {token!r}")
    try:
        return cls(*map(int, args))
    except ValueError:
        raise ParamError(f"{name} arguments must be integers, got {token!r}") from None


def parse_ops(spec: str) -> list[GrowthOp]:
    spec = spec.strip()
    if not spec:
        return []
    return [parse_op(tok) for tok in spec.split(",")]


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
                               probe_batch, tol: float = 1e-9) -> PreservationReport:
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
    new_params, new_config, _ = fold(ops_list, params, config, None)
    after = [encoder_forward(ids[j], masked[j], new_params, new_config, rng)[0]
             for j in range(ids.shape[0])]
    # np.max, unlike Python's max, carries a NaN diff of any row through
    diff = float(np.max([np.max(np.abs(b - a), initial=0.0)
                         for b, a in zip(before, after)]))
    preserving = all(o.preserving for o in ops_list)
    passed = (diff <= tol) if preserving else True
    spec = ",".join(o.spec for o in ops_list)
    return PreservationReport(op=spec, preservation_class=preserving,
                              max_abs_diff=diff, tol=tol, passed=passed)
