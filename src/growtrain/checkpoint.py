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
import typing
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
# field name -> type of each config stored in a manifest; resolving the
# annotations takes about 0.1 ms, so it is done once
_CONFIG_FIELDS = {cls: typing.get_type_hints(cls) for cls in (ModelConfig, DataConfig)}


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
    for key in ("stage_index", "global_step"):
        if not (_has_type(manifest[key], int) and manifest[key] >= 0):
            raise IntegrityError(f"{path}: {MANIFEST_NAME} {key!r} = {manifest[key]!r} "
                                 f"is not a non-negative integer")
    for key in ("rng_state", "extra"):
        if not isinstance(manifest.get(key, {}), dict):
            raise IntegrityError(f"{path}: {MANIFEST_NAME} {key!r} is not a JSON object")
    specs = manifest.get("extra", {}).get("boundary_ops", [])
    if not (isinstance(specs, list) and all(isinstance(s, str) for s in specs)):
        raise IntegrityError(f"{path}: {MANIFEST_NAME} extra.boundary_ops = {specs!r} "
                             f"is not a list of strings")
    if not isinstance(manifest["tensors"], list):
        raise IntegrityError(f"{path}: {MANIFEST_NAME} 'tensors' is not a list")
    for i, entry in enumerate(manifest["tensors"]):
        for key in _ENTRY_KEYS:
            if not isinstance(entry, dict) or key not in entry:
                raise IntegrityError(f"{path}: tensor entry {i} has no {key!r} field")
        shape = entry["shape"]
        if not (isinstance(shape, list) and all(_has_type(d, int) and d >= 0 for d in shape)):
            raise IntegrityError(f"{path}: tensor entry {i} has shape {shape!r}, "
                                 f"not a list of non-negative integers")
    return manifest


def _has_type(value, want: type) -> bool:
    """Type check of a parsed JSON value: a bool is no int, and a float
    field may hold an int."""
    return type(value) is want or (want is float and type(value) is int)


def _config_field(manifest: dict, key: str, cls, path: Path):
    """Build the ModelConfig or DataConfig stored under ``key``.  A field
    that is unknown, missing or of the wrong JSON type is an
    IntegrityError; value checks are the config's own ``validate``."""
    d = manifest[key]
    if not isinstance(d, dict):
        raise IntegrityError(f"{path}: {MANIFEST_NAME} {key!r} is not a JSON object")
    types = _CONFIG_FIELDS[cls]
    for name, value in d.items():
        if name not in types:
            raise IntegrityError(f"{path}: {key} has unknown field {name!r}")
        want = types[name]
        if not _has_type(value, want):
            raise IntegrityError(f"{path}: {key}.{name} = {value!r} is not of type "
                                 f"{want.__name__}")
    try:
        return cls.from_dict(d)
    except TypeError as exc:   # a missing field
        raise IntegrityError(f"{path}: {key}: {exc}") from None


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

    model_config = _config_field(manifest, "model_config", ModelConfig, path)
    data_config = _config_field(manifest, "data_config", DataConfig, path)
    shape_audit(params, model_config)
    return Checkpoint(params=params, model_config=model_config,
                      data_config=data_config,
                      stage_index=manifest["stage_index"],
                      global_step=manifest["global_step"],
                      rng_state=manifest["rng_state"],
                      extra=manifest.get("extra", {}))
