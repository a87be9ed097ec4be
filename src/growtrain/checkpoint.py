"""Checkpoint serialization: JSON manifest + raw float64 tensor blob.

The manifest is human-readable and diff-friendly; tensors live in a
separate binary file of little-endian IEEE-754 float64 values, row-major,
concatenated in manifest index order.  Loading validates that the index
tiles the blob exactly and that every tensor matches the config's expected
shape.  Writes are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DataConfig
from .errors import IntegrityError
from .model import ModelConfig, shape_audit

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "tensors.bin"


@dataclass
class Checkpoint:
    params: dict
    model_config: ModelConfig
    data_config: DataConfig
    stage_index: int
    global_step: int
    rng_state: dict
    extra: dict = field(default_factory=dict)


@contextmanager
def _atomic_open(path: Path):
    """A binary file written as ``path.tmp`` and renamed over ``path`` once
    it is complete."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        yield fh
    os.replace(tmp, path)


def save_checkpoint(path, params: dict, model_config: ModelConfig,
                    data_config: DataConfig, stage_index: int, global_step: int,
                    rng_state: dict, extra: dict | None = None) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    index = []
    offset = 0
    with _atomic_open(path / BLOB_NAME) as fh:
        for name in sorted(params):
            # a C-contiguous little-endian float64 tensor is written from
            # its own buffer, without a bytes copy
            t = np.ascontiguousarray(params[name], dtype="<f8")
            index.append({"name": name, "shape": list(t.shape),
                          "byte_offset": offset, "element_count": int(t.size)})
            fh.write(t)
            offset += t.nbytes
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": model_config.to_dict(),
        "data_config": data_config.to_dict(),
        "stage_index": stage_index,
        "global_step": global_step,
        "rng_state": rng_state,
        "extra": extra or {},
        "tensors": index,
    }
    with _atomic_open(path / MANIFEST_NAME) as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True).encode())


_MANIFEST_KEYS = ("model_config", "data_config", "stage_index", "global_step",
                  "rng_state", "tensors")
_ENTRY_KEYS = ("name", "shape", "byte_offset", "element_count")


def _read_manifest(path: Path) -> dict:
    try:
        with open(path / MANIFEST_NAME) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise IntegrityError(f"{path}: no {MANIFEST_NAME}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise IntegrityError(f"{path}: {MANIFEST_NAME} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise IntegrityError(f"{path}: {MANIFEST_NAME} is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise IntegrityError(f"{path}: unsupported format version")
    for key in _MANIFEST_KEYS:
        if key not in manifest:
            raise IntegrityError(f"{path}: {MANIFEST_NAME} has no {key!r} field")
    if not isinstance(manifest["tensors"], list):
        raise IntegrityError(f"{path}: {MANIFEST_NAME} 'tensors' is not a list")
    for i, entry in enumerate(manifest["tensors"]):
        for key in _ENTRY_KEYS:
            if not isinstance(entry, dict) or key not in entry:
                raise IntegrityError(f"{path}: tensor entry {i} has no {key!r} field")
    return manifest


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    manifest = _read_manifest(path)
    try:
        fh = open(path / BLOB_NAME, "rb")
    except FileNotFoundError:
        raise IntegrityError(f"{path}: no {BLOB_NAME}") from None

    params = {}
    with fh:
        blob_size = os.fstat(fh.fileno()).st_size
        expected_offset = 0
        name = None
        for entry in manifest["tensors"]:
            name = entry["name"]
            shape = tuple(entry["shape"])
            count = entry["element_count"]
            if entry["byte_offset"] != expected_offset:
                raise IntegrityError(
                    f"tensor {name!r}: offset {entry['byte_offset']} leaves a "
                    f"gap or overlap (expected {expected_offset})")
            if count != int(np.prod(shape, dtype=np.int64)):
                raise IntegrityError(f"tensor {name!r}: element count does not match shape")
            nbytes = count * 8
            if expected_offset + nbytes > blob_size:
                raise IntegrityError(f"tensor {name!r}: blob truncated")
            # each tensor is read once, straight into the array it lives in
            t = np.empty(shape, dtype="<f8")
            if fh.readinto(t) != nbytes:
                raise IntegrityError(f"tensor {name!r}: short read from {BLOB_NAME}")
            params[name] = t
            expected_offset += nbytes
    if expected_offset != blob_size:
        raise IntegrityError(
            f"blob has {blob_size - expected_offset} trailing bytes after the "
            f"last tensor {name!r}")

    model_config = ModelConfig.from_dict(manifest["model_config"])
    data_config = DataConfig.from_dict(manifest["data_config"])
    shape_audit(params, model_config)
    return Checkpoint(params=params, model_config=model_config,
                      data_config=data_config,
                      stage_index=manifest["stage_index"],
                      global_step=manifest["global_step"],
                      rng_state=manifest["rng_state"],
                      extra=manifest.get("extra", {}))
