import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from growtrain import checkpoint
from growtrain.checkpoint import (BLOB_NAME, MANIFEST_NAME, load_checkpoint,
                                  save_checkpoint)
from growtrain.data import DataConfig
from growtrain.errors import IntegrityError, ValidationError
from growtrain.model import ModelConfig, init_params
from growtrain.rng import Rng


@pytest.fixture
def saved(tmp_path):
    cfg = ModelConfig(L=2, D=4, H=8, M=2, N_max=8, V=5, dropout_p=0.0)
    dc = DataConfig(V=5, corpus_size=4, seq_len_full=8, train_len=8,
                    masks_per_seq=2)
    params = init_params(cfg, Rng(42).fork("init"))
    path = tmp_path / "ckpt"
    save_checkpoint(path, params, cfg, dc, stage_index=1, global_step=77,
                    rng_state={"seed": 42}, extra={"boundary_ops": ["unshare"]})
    return path, params, cfg, dc


class TestRoundTrip:
    def test_bitwise_identical_params(self, saved):
        path, params, cfg, dc = saved
        ckpt = load_checkpoint(path)
        assert set(ckpt.params) == set(params)
        for name in params:
            assert ckpt.params[name].tobytes() == params[name].tobytes()
            assert ckpt.params[name].dtype == np.float64

    def test_metadata_preserved(self, saved):
        path, _, cfg, dc = saved
        ckpt = load_checkpoint(path)
        assert ckpt.model_config == cfg
        assert ckpt.data_config == dc
        assert (ckpt.stage_index, ckpt.global_step) == (1, 77)
        assert ckpt.rng_state == {"seed": 42}
        assert ckpt.extra["boundary_ops"] == ["unshare"]

    def test_loaded_arrays_are_owned_writable_c_contiguous_float64(self, saved):
        path, *_ = saved
        for name, t in load_checkpoint(path).params.items():
            assert t.dtype == np.float64, name
            assert t.flags.owndata and t.base is None, name
            assert t.flags.writeable and t.flags.c_contiguous, name

    def test_save_load_save_byte_identical(self, saved, tmp_path):
        path, _, cfg, dc = saved
        ckpt = load_checkpoint(path)
        other = tmp_path / "resaved"
        save_checkpoint(other, ckpt.params, ckpt.model_config, ckpt.data_config,
                        ckpt.stage_index, ckpt.global_step, ckpt.rng_state,
                        ckpt.extra)
        assert (other / BLOB_NAME).read_bytes() == (path / BLOB_NAME).read_bytes()
        assert ((other / MANIFEST_NAME).read_bytes()
                == (path / MANIFEST_NAME).read_bytes())


class TestIntegrity:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IntegrityError, match="manifest"):
            load_checkpoint(tmp_path / "nowhere")

    def test_wrong_format_version(self, saved):
        path, *_ = saved
        doc = json.loads((path / MANIFEST_NAME).read_text())
        doc["format_version"] = 99
        (path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="version"):
            load_checkpoint(path)

    def test_truncated_blob_names_tensor(self, saved):
        path, *_ = saved
        blob = (path / BLOB_NAME).read_bytes()
        (path / BLOB_NAME).write_bytes(blob[:-16])
        doc = json.loads((path / MANIFEST_NAME).read_text())
        last = doc["tensors"][-1]["name"]
        with pytest.raises(IntegrityError, match=last):
            load_checkpoint(path)

    def test_short_read_names_tensor(self, saved, monkeypatch):
        # the blob shrinks after its size was taken: the read comes up short
        path, *_ = saved
        blob = (path / BLOB_NAME).read_bytes()
        (path / BLOB_NAME).write_bytes(blob[:-16])
        real_fstat = os.fstat
        monkeypatch.setattr(checkpoint.os, "fstat", lambda fd: SimpleNamespace(
            st_size=real_fstat(fd).st_size + 16))
        doc = json.loads((path / MANIFEST_NAME).read_text())
        last = doc["tensors"][-1]["name"]
        with pytest.raises(IntegrityError, match=f"{last}.*short read"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, saved):
        path, *_ = saved
        blob = (path / BLOB_NAME).read_bytes()
        (path / BLOB_NAME).write_bytes(blob + b"\0" * 8)
        with pytest.raises(IntegrityError, match="trailing"):
            load_checkpoint(path)

    def test_offset_gap_rejected(self, saved):
        path, *_ = saved
        doc = json.loads((path / MANIFEST_NAME).read_text())
        doc["tensors"][1]["byte_offset"] += 8
        (path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="gap or overlap"):
            load_checkpoint(path)

    def test_element_count_mismatch_rejected(self, saved):
        path, *_ = saved
        doc = json.loads((path / MANIFEST_NAME).read_text())
        doc["tensors"][0]["element_count"] += 1
        (path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match="element count"):
            load_checkpoint(path)

    def test_shape_mutation_caught_by_audit(self, saved):
        path, *_ = saved
        doc = json.loads((path / MANIFEST_NAME).read_text())
        # swap a tensor's shape for its transpose; byte counts still tile
        for entry in doc["tensors"]:
            if entry["name"] == "head.w":
                entry["shape"] = entry["shape"][::-1]
        (path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="head.w"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("stage_index", "x"), ("stage_index", -1), ("stage_index", True),
        ("stage_index", 1.0), ("global_step", "x"), ("global_step", -3),
        ("rng_state", "x"), ("rng_state", [42]), ("extra", 5), ("extra", None),
        ("extra", {"boundary_ops": 5}), ("extra", {"boundary_ops": "unshare"}),
        ("extra", {"boundary_ops": ["unshare", 5]}),
    ])
    def test_malformed_scalar_field_rejected(self, saved, key, value):
        path, *_ = saved
        doc = json.loads((path / MANIFEST_NAME).read_text())
        doc[key] = value
        (path / MANIFEST_NAME).write_text(json.dumps(doc))
        with pytest.raises(IntegrityError, match=key):
            load_checkpoint(path)

    def test_manifest_without_extra_loads(self, saved):
        path, *_ = saved
        doc = json.loads((path / MANIFEST_NAME).read_text())
        del doc["extra"]
        (path / MANIFEST_NAME).write_text(json.dumps(doc))
        assert load_checkpoint(path).extra == {}

    def test_no_tmp_files_left_behind(self, saved):
        path, *_ = saved
        assert not list(path.glob("*.tmp"))
