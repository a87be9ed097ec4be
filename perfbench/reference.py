"""Independent reference for the benchmark's output checks.

Written from the method's definition, not from the program: it imports
nothing from ``growtrain.model``, ``growtrain.growth`` or
``growtrain.costs``.  It holds

- a checkpoint reader (JSON manifest + little-endian float64 blob),
- an encoder forward pass that loops over heads and applies the
  masked-row-preserving query-pooling rule in the first layer,
- the three parameter transforms of the growth operators,
- the forward Mult-Add formulas.

All arithmetic is float64 with dropout off.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

LN_EPS = 1e-12


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def read_checkpoint(path) -> tuple[dict, dict]:
    """Return (params, manifest) of a checkpoint directory."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    blob = (path / "tensors.bin").read_bytes()
    params = {}
    for entry in manifest["tensors"]:
        count = entry["element_count"]
        params[entry["name"]] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=entry["byte_offset"]
        ).astype(np.float64).reshape(entry["shape"])
    return params, manifest


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


def _softmax(s):
    e = np.exp(s - s.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def pooling_groups(n: int, masked, k: int) -> list[list[int]]:
    """Output rows of the first-layer query pooling, as lists of positions.

    A masked position is a row of its own.  The unmasked positions between
    two masked ones are cut into windows of k (the last may be shorter),
    and each window is one row.
    """
    masked = set(int(p) for p in masked)
    groups, run = [], []
    for pos in range(n):
        if pos in masked:
            groups.extend(run[s:s + k] for s in range(0, len(run), k))
            run = []
            groups.append([pos])
        else:
            run.append(pos)
    groups.extend(run[s:s + k] for s in range(0, len(run), k))
    return groups


def _ffn(x, params, prefix, cfg):
    mode = cfg["ffn_mode"]
    if mode == "full":
        return _gelu(x @ params[prefix + "ffn.w1"]) @ params[prefix + "ffn.w2"]
    if mode == "shared":
        return _gelu(x @ params[prefix + "ffn.w1s"]) @ params[prefix + "ffn.w2s"]
    a = _gelu((x @ params[prefix + "ffn.w11"]) @ params[prefix + "ffn.w12"])
    return (a @ params[prefix + "ffn.w21"]) @ params[prefix + "ffn.w22"]


def forward(params: dict, cfg: dict, ids, masked) -> np.ndarray:
    """Logits (len(masked), V) at the masked positions of one sequence.

    ``cfg`` is a checkpoint manifest's ``model_config``.  Attention per
    head m: softmax(q_m k_m^T * scale) v_m; the head contexts are
    concatenated and projected by ``w_v2_t`` transposed.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    D, M = cfg["D"], cfg["M"]
    dh = D // M
    scale = 1.0 / math.sqrt(dh) if cfg["attn_scale"] else 1.0
    k = cfg["pool_k"]
    groups = pooling_groups(n, masked, k) if k > 1 else [[i] for i in range(n)]
    x = params["token_emb"][ids] + params["pos_emb"][:n]
    for layer in range(cfg["L"]):
        p = f"layer{layer}."
        h = _layer_norm(x, params[p + "ln_attn.gain"], params[p + "ln_attn.bias"])
        if layer == 0 and k > 1:
            h_q = np.stack([h[g].mean(axis=0) for g in groups])
            residual = np.stack([x[g].mean(axis=0) for g in groups])
        else:
            h_q, residual = h, x
        q = h_q @ params[p + "w_q"]
        kk = h @ params[p + "w_k_t"]
        v = h @ params[p + "w_v1"]
        ctx = np.empty_like(q)
        for m in range(M):
            c = slice(m * dh, (m + 1) * dh)
            ctx[:, c] = _softmax((q[:, c] @ kk[:, c].T) * scale) @ v[:, c]
        x = residual + ctx @ params[p + "w_v2_t"].T
        h2 = _layer_norm(x, params[p + "ln_ffn.gain"], params[p + "ln_ffn.bias"])
        x = x + _ffn(h2, params, p, cfg)
    row_of = {g[0]: r for r, g in enumerate(groups) if len(g) == 1}
    rows = [row_of[int(pos)] for pos in masked] if k > 1 else [int(pos) for pos in masked]
    return x[rows] @ params["head.w"] + params["head.b"]


def sequence_loss(logits: np.ndarray, targets) -> float:
    """Mean negative log-likelihood of the targets under row softmaxes."""
    targets = np.asarray(targets, dtype=np.int64)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(targets.size), targets]))


# ---------------------------------------------------------------------------
# Growth transforms
# ---------------------------------------------------------------------------

def stack(params: dict, L: int, target_L: int) -> dict:
    """New layer l is a copy of trained layer l mod L."""
    out = {n: t.copy() for n, t in params.items() if not n.startswith("layer")}
    for layer in range(target_L):
        src = f"layer{layer % L}."
        for name, t in params.items():
            if name.startswith(src):
                out[f"layer{layer}." + name[len(src):]] = t.copy()
    return out


def unshare(params: dict, k: int) -> dict:
    """W1 = [W1' ... W1'] (k copies side by side); W2 = [W2'/k; ...; W2'/k]."""
    out = {}
    for name, t in params.items():
        if name.endswith("ffn.w1s"):
            out[name[:-1]] = np.tile(t, (1, k))
        elif name.endswith("ffn.w2s"):
            out[name[:-1]] = np.tile(t / k, (k, 1))
        else:
            out[name] = t.copy()
    return out


def defactorize(params: dict) -> dict:
    """W1 = W11 W12 and W2 = W21 W22."""
    out = {}
    for name, t in params.items():
        if name.endswith("ffn.w11"):
            base = name[:-len("w11")]
            out[base + "w1"] = t @ params[base + "w12"]
        elif name.endswith("ffn.w21"):
            base = name[:-len("w21")]
            out[base + "w2"] = t @ params[base + "w22"]
        elif not name.endswith(("ffn.w12", "ffn.w22")):
            out[name] = t.copy()
    return out


def grow(params: dict, cfg: dict, spec: str) -> tuple[dict, dict]:
    """Apply a comma-separated op spec (given in depth, width, length
    order) and return the grown (params, model config)."""
    cfg = dict(cfg)
    for op in spec.split(","):
        if op.startswith("stack:"):
            target = int(op.split(":")[1])
            params = stack(params, cfg["L"], target)
            cfg["L"] = target
        elif op == "unshare":
            params = unshare(params, cfg["ffn_k"])
            cfg.update(ffn_mode="full", ffn_k=1)
        elif op == "defactorize":
            params = defactorize(params)
            cfg.update(ffn_mode="full", ffn_h=0)
        elif op == "unpool":
            cfg["pool_k"] = 1
        else:
            raise ValueError(f"reference has no transform for {op!r}")
    return params, cfg


# ---------------------------------------------------------------------------
# Mult-Adds
# ---------------------------------------------------------------------------

def attn_mult_adds(n_q: int, n_kv: int, D: int) -> int:
    """Q and output projections at n_q rows, K and V projections at n_kv
    rows, scores and context at n_q x n_kv summed over heads."""
    return 2 * n_q * D * D + 2 * n_kv * D * D + 2 * n_q * n_kv * D


def ffn_mult_adds(N: int, cfg: dict) -> int:
    """2 N D H for a full FFN; H becomes H/k when shared; a rank-h
    factorization costs N h (D + H) on each side."""
    D, H = cfg["D"], cfg["H"]
    if cfg["ffn_mode"] == "factorized":
        return 2 * N * cfg["ffn_h"] * (D + H)
    width = H // cfg["ffn_k"] if cfg["ffn_mode"] == "shared" else H
    return 2 * N * D * width


def mult_adds_per_sequence(cfg: dict, train_len: int, masks: int) -> int:
    """Forward Mult-Adds of one sequence: layers plus the MLM head.

    A pooled model runs the first layer's queries at ceil(N/k) rows against
    N keys, and every later layer at ceil(N/k) rows.
    """
    N, D = train_len, cfg["D"]
    if cfg["pool_k"] > 1:
        n_p = -(-N // cfg["pool_k"])
        first = attn_mult_adds(n_p, N, D) + ffn_mult_adds(n_p, cfg)
        rest = attn_mult_adds(n_p, n_p, D) + ffn_mult_adds(n_p, cfg)
    else:
        first = rest = attn_mult_adds(N, N, D) + ffn_mult_adds(N, cfg)
    return first + (cfg["L"] - 1) * rest + 2 * masks * D * cfg["V"]
