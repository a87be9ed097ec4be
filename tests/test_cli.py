import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from growtrain import cli as cli_module
from growtrain import config, growth
from growtrain.checkpoint import load_checkpoint, save_checkpoint
from growtrain.cli import cli
from growtrain.config import parse_run_config
from growtrain.data import DataConfig
from growtrain.model import ModelConfig, init_params
from growtrain.rng import Rng
from growtrain.train import run_schedule

PRESETS = ("stack_base_paper", "compound_base_paper", "stack_base_desk",
           "compound_base_desk")

SMALL_DOC = {
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


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL_DOC))
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

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_file_equals_named_preset(self, capsys, name):
        shipped = Path(config.__file__).parent / "presets"
        assert sorted(p.stem for p in shipped.glob("*.json")) == sorted(PRESETS)
        path = shipped / f"{name}.json"
        assert cli(["plan", "-c", str(path), "--json"]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert cli(["plan", "-c", name, "--json"]) == 0
        from_name = json.loads(capsys.readouterr().out)
        assert from_file == from_name

    def test_preset_lookup_outside_the_source_tree(self, capsys, tmp_path):
        """A copy of the package, alone on the import path of a fresh
        interpreter, finds its presets as the source tree does."""
        site = tmp_path / "site"
        shutil.copytree(Path(config.__file__).parent, site / "growtrain",
                        ignore=shutil.ignore_patterns("__pycache__"))
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import growtrain; "
                  "assert growtrain.__file__.startswith(sys.argv[1]), growtrain.__file__; "
                  "from growtrain.cli import cli; sys.exit(cli(sys.argv[2:]))")
        # -I: no PYTHONPATH, no user site and no working directory on sys.path
        proc = subprocess.run(
            [sys.executable, "-I", "-c", script, str(site), "plan", "-c", "compound_base_desk"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert cli(["plan", "-c", "compound_base_desk"]) == 0
        assert proc.stdout == capsys.readouterr().out

    def test_missing_config_exits_1(self, capsys):
        # a preset name is matched against the shipped file names, never
        # joined into a path, so no relative spelling reaches a preset
        for name in ("no_such_preset", "presets/compound_base_paper",
                     "../presets/compound_base_paper"):
            assert cli(["plan", "-c", name]) == 1
            assert capsys.readouterr().err.startswith("error: ")


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
        # a probe batch larger than corpus_size (8) reuses corpus rows
        assert cli(["verify", "--ckpt", str(pre), "--op", "unshare", "--batch", "20"]) == 0
        assert "PASS" in capsys.readouterr().out

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
        for batch in ("0", "-1"):
            assert cli(["verify", "--ckpt", str(out / "final"), "--op", "stack:4",
                        "--batch", batch]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and "op stack" not in captured.out

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
    def test_verify_rejects_tolerance_before_loading(self, tol, tmp_path, capsys):
        # the checkpoint does not exist: the tolerance is checked first
        assert cli(["verify", "--ckpt", str(tmp_path / "missing"), "--op", "unshare",
                    f"--tol={tol}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --tol") and captured.out == ""

    def test_train_non_finite_loss_exits_1(self, tmp_path, capsys):
        # the first step's update at this rate makes the next forward overflow
        doc = copy.deepcopy(SMALL_DOC)
        doc["optimizer"]["peak_lr"] = 1e300
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        with np.errstate(all="ignore"):
            assert cli(["train", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 0 step 1: loss is nan; gradient ")
        assert "holds a non-finite value" in err

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


def _fresh_checkpoint(path, **model_kw) -> Path:
    """An untrained one-layer checkpoint of the given FFN and pooling."""
    cfg = ModelConfig(L=1, D=8, H=16, M=2, N_max=16, V=8, dropout_p=0.1, **model_kw)
    dc = DataConfig(V=8, corpus_size=8, seq_len_full=16, train_len=16, masks_per_seq=3)
    save_checkpoint(path, init_params(cfg, Rng(5).fork("init")), cfg, dc, 1, 4,
                    {"seed": 5, "stage": 1, "global_step": 4})
    return path


SOURCE_MODEL = {"stack:2": {}, "stack:4": {},
                "unshare,unpool": dict(ffn_mode="shared", ffn_k=2, pool_k=2),
                "defactorize": dict(ffn_mode="factorized", ffn_h=3)}


class TestGrowVerifyOutputs:
    """``grow`` saves ``fold``'s output and ``verify`` generates only its
    probe rows; both print and write what the owned-copy, full-corpus
    forms did."""

    @pytest.mark.parametrize("op", sorted(SOURCE_MODEL))
    def test_grow_writes_the_bytes_of_an_apply_based_save(self, tmp_path, op):
        src = _fresh_checkpoint(tmp_path / "src", **SOURCE_MODEL[op])
        assert cli(["grow", "--ckpt", str(src), "--op", op, "-o", str(tmp_path / "grown")]) == 0
        ck = load_checkpoint(src)
        ops_list = growth.parse_ops(op)
        params, cfg, dc = growth.apply(ops_list, ck.params, ck.model_config, ck.data_config)
        save_checkpoint(tmp_path / "ref", params, cfg, dc, ck.stage_index, ck.global_step,
                        ck.rng_state, extra={"boundary_ops": [o.spec for o in ops_list]})
        for name in ("tensors.bin", "manifest.json"):
            assert ((tmp_path / "grown" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes())

    @pytest.mark.parametrize("batch", ["1", "4", "8", "20"])
    def test_verify_stdout_equals_a_full_corpus_probe(self, tmp_path, capsys, monkeypatch,
                                                      batch):
        # corpus_size is 8: a batch of 20 repeats corpus rows
        src = _fresh_checkpoint(tmp_path / "src", ffn_mode="shared", ffn_k=2, pool_k=2)

        def stdout():
            for op in ("unshare", "stack:2"):
                assert cli(["verify", "--ckpt", str(src), "--op", op, "--batch", batch,
                            "--seed", "3"]) == 0
            return capsys.readouterr().out

        probe_rows_only = stdout()
        assert "PASS" in probe_rows_only and "report-only" in probe_rows_only
        full, whole = cli_module.gen_corpus, load_checkpoint(src).data_config
        monkeypatch.setattr(cli_module, "gen_corpus", lambda dc, rng: full(whole, rng))
        assert stdout() == probe_rows_only

    def test_verify_evaluates_each_distinct_row_once(self, tmp_path, capsys):
        # corpus_size is 8: rows past it repeat rows 0-7 with their masks, so
        # a huge batch prints what a batch of 8 does, in the same short time
        src = _fresh_checkpoint(tmp_path / "src", ffn_mode="shared", ffn_k=2, pool_k=2)
        printed = []
        for batch in ("8", "1000000"):
            for op in ("unshare", "stack:2"):
                assert cli(["verify", "--ckpt", str(src), "--op", op, "--batch", batch,
                            "--seed", "3"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]


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
    """A manifest with a malformed shape, config or scalar field ends
    ``verify`` with exit code 1 and an ``error:`` line, not a traceback."""

    EDITS = {
        "negated_2d_shape": _negate_2d_shape,
        "string_shape": lambda doc: doc["tensors"][0].update(shape="ab"),
        "unknown_model_key": lambda doc: doc["model_config"].update(depth=2),
        "missing_model_key": lambda doc: doc["model_config"].pop("D"),
        "model_config_not_object": lambda doc: doc.update(model_config=[2, 8]),
        "string_width": lambda doc: doc["model_config"].update(D="8"),
        "float_heads": lambda doc: doc["model_config"].update(M=2.0),
        "unknown_data_key": lambda doc: doc["data_config"].update(vocab=8),
        "string_stage_index": lambda doc: doc.update(stage_index="x"),
        "negative_global_step": lambda doc: doc.update(global_step=-1),
        "string_rng_state": lambda doc: doc.update(rng_state="x"),
        "int_extra": lambda doc: doc.update(extra=5),
        "int_boundary_ops": lambda doc: doc.update(extra={"boundary_ops": 5}),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_verify_exits_1(self, small_config, tmp_path, capsys, edit):
        out = tmp_path / "run"
        assert cli(["train", "-c", str(small_config), "-o", str(out)]) == 0
        _edit_manifest(out / "final", self.EDITS[edit])
        capsys.readouterr()
        assert cli(["verify", "--ckpt", str(out / "final"), "--op", "stack:4"]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def _set(path, value):
    """An edit that sets the key at ``path`` (a tuple of keys and indices)."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


class TestStrictConfig:
    """A config with an unknown key, a value of the wrong JSON type or a
    degenerate size ends ``plan`` and ``train`` with exit code 1 and an
    ``error:`` line that names the JSON path, before any work."""

    EDITS = {
        "misspelt_stage_key": (_set(("schedule", 1, "train-len"), 8), "$.schedule[1].train-len"),
        "deleted_optimizer_key": (_set(("optimizer", "carry_moments"), True),
                                  "$.optimizer.carry_moments"),
        "unknown_root_key": (_set(("steps",), 8), "$.steps"),
        "unknown_model_key": (_set(("model", "layers"), 2), "$.model.layers"),
        "unknown_init_key": (_set(("model", "init", "k"), 2), "$.model.init.k"),
        "unknown_data_key": (_set(("data", "vocab"), 8), "$.data.vocab"),
        "unknown_cost_key": (_set(("cost",), {"flops_x2": True}), "$.cost.flops_x2"),
        "float_train_len": (_set(("schedule", 0, "train_len"), 12.9), "$.schedule[0].train_len"),
        "bool_batch_size": (_set(("schedule", 0, "batch_size"), True),
                            "$.schedule[0].batch_size"),
        "string_dropout": (_set(("model", "dropout"), "0.1"), "$.model.dropout"),
        "string_lr": (_set(("optimizer", "peak_lr"), "1e-3"), "$.optimizer.peak_lr"),
        "int_attn_scale": (_set(("model", "attn_scale"), 1), "$.model.attn_scale"),
        "optimizer_not_object": (_set(("optimizer",), "x"), "$.optimizer"),
        "one_beta": (_set(("optimizer", "betas"), [0.9]), "$.optimizer.betas"),
        "string_beta": (_set(("optimizer", "betas"), [0.9, "0.999"]), "$.optimizer.betas"),
        "zero_batch_size": (_set(("schedule", 1, "batch_size"), 0), "batch_size"),
        "negative_batch_size": (_set(("schedule", 0, "batch_size"), -2), "batch_size"),
        "zero_corpus_size": (_set(("data", "corpus_size"), 0), "corpus_size"),
        # the mask token alone: nothing left for the corpus to emit
        "vocabulary_of_one": (_set(("model", "V"), 1), "$.data: V must be >= 2"),
        "zero_eval_batch_size": (_set(("eval_batch_size",), 0), "$.eval_batch_size"),
        "nan_peak_lr": (_set(("optimizer", "peak_lr"), math.nan), "$.optimizer.peak_lr"),
        "infinite_peak_lr": (_set(("optimizer", "peak_lr"), math.inf), "$.optimizer.peak_lr"),
        "negative_peak_lr": (_set(("optimizer", "peak_lr"), -1.0), "$.optimizer.peak_lr"),
        "zero_peak_lr": (_set(("optimizer", "peak_lr"), 0), "$.optimizer.peak_lr"),
        "negative_warmup": (_set(("optimizer", "warmup"), -5), "$.optimizer.warmup"),
        "beta1_one": (_set(("optimizer", "betas"), [1.0, 0.999]), "$.optimizer.betas[0]"),
        "beta1_negative": (_set(("optimizer", "betas"), [-0.1, 0.999]),
                           "$.optimizer.betas[0]"),
        "beta2_above_one": (_set(("optimizer", "betas"), [0.9, 1.5]), "$.optimizer.betas[1]"),
        "beta2_nan": (_set(("optimizer", "betas"), [0.9, math.nan]), "$.optimizer.betas[1]"),
        "zero_eps": (_set(("optimizer", "eps"), 0), "$.optimizer.eps"),
        "negative_eps": (_set(("optimizer", "eps"), -1e-8), "$.optimizer.eps"),
        "infinite_eps": (_set(("optimizer", "eps"), math.inf), "$.optimizer.eps"),
        "negative_weight_decay": (_set(("optimizer", "weight_decay"), -0.01),
                                  "$.optimizer.weight_decay"),
        "nan_weight_decay": (_set(("optimizer", "weight_decay"), math.nan),
                             "$.optimizer.weight_decay"),
        "infinite_weight_decay": (_set(("optimizer", "weight_decay"), math.inf),
                                  "$.optimizer.weight_decay"),
        "huge_int_peak_lr": (_set(("optimizer", "peak_lr"), 10**400), "$.optimizer.peak_lr"),
        "huge_int_beta": (_set(("optimizer", "betas"), [0.9, 10**400]),
                          "$.optimizer.betas[1]"),
        "huge_int_dropout": (_set(("model", "dropout"), 10**400), "$.model.dropout"),
    }

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_plan_and_train_exit_1(self, tmp_path, capsys, edit):
        change, path = self.EDITS[edit]
        doc = copy.deepcopy(SMALL_DOC)
        change(doc)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert cli(["plan", "-c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err
        assert cli(["train", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_config_not_json_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"model": {"L": 2,')
        assert cli(["plan", "-c", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_int_accepted_as_float(self):
        doc = copy.deepcopy(SMALL_DOC)
        doc["optimizer"].update(peak_lr=1, betas=[0, 0], eps=1, weight_decay=0)
        doc["model"]["dropout"] = 0
        rc = parse_run_config(doc)
        opt = rc.optimizer
        floats = (opt.peak_lr, opt.beta1, opt.beta2, opt.eps, opt.weight_decay,
                  rc.final_model.dropout_p)
        assert floats == (1, 0, 0, 1, 0, 0)
        assert all(type(v) is float for v in floats)
