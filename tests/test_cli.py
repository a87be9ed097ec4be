import json

import numpy as np
import pytest

from growtrain.checkpoint import load_checkpoint
from growtrain.cli import cli
from growtrain.config import parse_run_config
from growtrain.train import run_schedule


@pytest.fixture
def small_config(tmp_path):
    doc = {
        "model": {"L": 2, "D": 8, "H": 16, "M": 2, "N_max": 16, "V": 8,
                  "dropout": 0.1,
                  "init": {"L": 1, "ffn": "shared:2", "pool_k": 2}},
        "data": {"seed": 0, "corpus_size": 8, "seq_len_full": 16},
        "schedule": [
            {"steps": 4, "ops": "", "train_len": 16, "masks_per_seq": 3,
             "batch_size": 4},
            {"steps": 4, "ops": "stack:2,unshare,unpool", "train_len": 16,
             "masks_per_seq": 3, "batch_size": 4},
        ],
        "optimizer": {"peak_lr": 1e-3, "warmup": 0},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


class TestPlan:
    def test_stack_paper_preset_speedup(self, capsys):
        assert cli(["plan", "-c", "stack_base_paper"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs baseline: +65.5%" in out

    def test_compound_paper_preset_speedup(self, capsys):
        assert cli(["plan", "-c", "compound_base_paper"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs baseline: +104.2%" in out

    def test_json_output(self, capsys):
        assert cli(["plan", "-c", "stack_base_paper", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["speedup_vs_baseline"] - 0.655116) < 1e-4
        assert len(doc["stages"]) == 3

    def test_preset_file_equals_named_preset(self, capsys):
        assert cli(["plan", "-c", "configs/compound_base_paper.json",
                    "--json"]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert cli(["plan", "-c", "compound_base_paper", "--json"]) == 0
        from_name = json.loads(capsys.readouterr().out)
        assert from_file == from_name

    def test_missing_config_exits_1(self, capsys):
        assert cli(["plan", "-c", "no_such_preset"]) == 1
        assert "error" in capsys.readouterr().err


class TestFlops:
    def test_table_without_speedup(self, capsys):
        assert cli(["flops", "-c", "stack_base_paper"]) == 0
        out = capsys.readouterr().out
        assert "total (mult-adds):" in out
        assert "speedup" not in out

    def test_json_breakdown(self, capsys):
        assert cli(["flops", "-c", "stack_base_paper", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "speedup_vs_baseline" not in doc
        # stage 2 is full BERT-base: 12 x 4,026,531,840 per step
        assert doc["stages"][2]["layer_mult_adds"] == 48_318_382_080


class TestTrainGrowVerifyEval:
    def test_train_writes_checkpoints_and_log(self, small_config, tmp_path,
                                              capsys):
        out = tmp_path / "run1"
        assert cli(["train", "-c", str(small_config), "-o", str(out),
                    "--seed", "1"]) == 0
        assert (out / "final" / "manifest.json").exists()
        assert (out / "loss.csv").read_text().startswith("step,stage,lr,loss")
        ckpt = load_checkpoint(out / "final")
        assert ckpt.model_config.L == 2
        assert ckpt.model_config.ffn_mode == "full"

    def test_train_deterministic_across_runs(self, small_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli(["train", "-c", str(small_config), "-o", str(a),
                    "--seed", "7"]) == 0
        assert cli(["train", "-c", str(small_config), "-o", str(b),
                    "--seed", "7"]) == 0
        assert ((a / "final" / "tensors.bin").read_bytes()
                == (b / "final" / "tensors.bin").read_bytes())
        assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()

    def test_grow_stack_doubles_layers_bitwise(self, small_config, tmp_path,
                                               capsys):
        out = tmp_path / "run"
        cli(["train", "-c", str(small_config), "-o", str(out)])
        grown_path = tmp_path / "grown"
        assert cli(["grow", "--ckpt", str(out / "final"), "--op", "stack:4",
                    "-o", str(grown_path)]) == 0
        src = load_checkpoint(out / "final")
        grown = load_checkpoint(grown_path)
        assert grown.model_config.L == 4
        for suffix in ("w_q", "ffn.w1"):
            assert (grown.params[f"layer2.{suffix}"].tobytes()
                    == src.params[f"layer0.{suffix}"].tobytes())

    def test_verify_preserving_op_exits_0(self, small_config, tmp_path,
                                          capsys):
        out = tmp_path / "run"
        cli(["train", "-c", str(small_config), "-o", str(out)])
        pre = out / "stage1_pregrowth"
        assert cli(["verify", "--ckpt", str(pre), "--op", "unshare"]) == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        assert "preservation-class" in text

    def test_verify_report_only_op(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["train", "-c", str(small_config), "-o", str(out)])
        assert cli(["verify", "--ckpt", str(out / "final"),
                    "--op", "stack:4"]) == 0
        text = capsys.readouterr().out
        assert "report-only" in text
        assert "PASS" not in text

    def test_verify_invalid_op_exits_1(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["train", "-c", str(small_config), "-o", str(out)])
        # final model is already full-FFN: unshare is a state error
        assert cli(["verify", "--ckpt", str(out / "final"),
                    "--op", "unshare"]) == 1
        assert "error" in capsys.readouterr().err
        for op in ("stack:abc", "stack:", "", " "):
            assert cli(["verify", "--ckpt", str(out / "final"), "--op", op]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and "PASS" not in captured.out
            assert cli(["grow", "--ckpt", str(out / "final"), "--op", op,
                        "-o", str(tmp_path / "grown")]) == 1
            assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "grown").exists()

    def test_eval_prints_loss(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        cli(["train", "-c", str(small_config), "-o", str(out)])
        capsys.readouterr()
        assert cli(["eval", "--ckpt", str(out / "final"),
                    "-c", str(small_config)]) == 0
        text = capsys.readouterr().out
        loss = float(text.split(":")[1])
        assert 0.0 < loss < 10.0


def test_omitted_data_shape_inherits_previous_stage(tmp_path):
    """Later stages that omit train_len/masks_per_seq plan and train at
    stage 0's (32, 5), not at seq_len_full."""
    doc = {
        "model": {"L": 2, "D": 8, "H": 16, "M": 2, "N_max": 128, "V": 8,
                  "init": {"L": 1, "ffn": "shared:2", "pool_k": 2}},
        "data": {"seed": 0, "corpus_size": 8, "seq_len_full": 128},
        "schedule": [
            {"steps": 2, "ops": "", "train_len": 32, "masks_per_seq": 5,
             "batch_size": 2},
            {"steps": 2, "ops": "stack:2", "batch_size": 2},
            {"steps": 2, "ops": "unshare,unpool", "batch_size": 2},
        ],
    }
    rc = parse_run_config(doc)
    assert [(p.train_len, p.masks_per_seq) for p in rc.schedule.stage_plans()] == [(32, 5)] * 3
    out = tmp_path / "run"
    run_schedule(rc.schedule, seed=0, out_dir=out, opt_cfg=rc.optimizer)
    # each stage's data shape, as the checkpoint after its last step records it
    for label in ("stage1_pregrowth", "stage2_pregrowth", "final"):
        dc = load_checkpoint(out / label).data_config
        assert (dc.train_len, dc.masks_per_seq) == (32, 5), label


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_arg_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli(["plan"])
        assert exc.value.code == 2


class TestMalformedCheckpoint:
    """A damaged checkpoint ends ``eval`` with exit code 1 and an
    ``error:`` line, not a traceback."""

    @pytest.fixture
    def final(self, small_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli(["train", "-c", str(small_config), "-o", str(out)]) == 0
        capsys.readouterr()
        return out / "final"

    def _eval_fails(self, final, small_config, capsys):
        assert cli(["eval", "--ckpt", str(final), "-c", str(small_config)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_manifest_not_json(self, final, small_config, capsys):
        (final / "manifest.json").write_text('{"format_version": 1, "tens')
        self._eval_fails(final, small_config, capsys)

    def test_manifest_without_tensors(self, final, small_config, capsys):
        doc = json.loads((final / "manifest.json").read_text())
        del doc["tensors"]
        (final / "manifest.json").write_text(json.dumps(doc))
        self._eval_fails(final, small_config, capsys)

    def test_missing_blob(self, final, small_config, capsys):
        (final / "tensors.bin").unlink()
        self._eval_fails(final, small_config, capsys)

    @pytest.mark.parametrize("field", ["name", "shape", "byte_offset", "element_count"])
    def test_entry_without_field(self, final, small_config, capsys, field):
        doc = json.loads((final / "manifest.json").read_text())
        del doc["tensors"][1][field]
        (final / "manifest.json").write_text(json.dumps(doc))
        self._eval_fails(final, small_config, capsys)


def _edit_manifest(final, edit) -> None:
    doc = json.loads((final / "manifest.json").read_text())
    edit(doc)
    (final / "manifest.json").write_text(json.dumps(doc))


def _negate_2d_shape(doc):
    entry = next(e for e in doc["tensors"] if len(e["shape"]) == 2)
    entry["shape"] = [-d for d in entry["shape"]]   # same element count


class TestMalformedManifest:
    """A manifest with a malformed shape or config ends ``verify`` with exit
    code 1 and an ``error:`` line, not a traceback."""

    EDITS = {
        "negated_2d_shape": _negate_2d_shape,
        "string_shape": lambda doc: doc["tensors"][0].update(shape="ab"),
        "unknown_model_key": lambda doc: doc["model_config"].update(depth=2),
        "missing_model_key": lambda doc: doc["model_config"].pop("D"),
        "model_config_not_object": lambda doc: doc.update(model_config=[2, 8]),
        "string_width": lambda doc: doc["model_config"].update(D="8"),
        "float_heads": lambda doc: doc["model_config"].update(M=2.0),
        "unknown_data_key": lambda doc: doc["data_config"].update(vocab=8),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_verify_exits_1(self, small_config, tmp_path, capsys, edit):
        out = tmp_path / "run"
        assert cli(["train", "-c", str(small_config), "-o", str(out)]) == 0
        _edit_manifest(out / "final", self.EDITS[edit])
        capsys.readouterr()
        assert cli(["verify", "--ckpt", str(out / "final"), "--op", "stack:4"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
