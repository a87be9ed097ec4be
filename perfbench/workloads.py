"""The benchmark's workloads: set-up, one round, its checks and its metrics.

Every workload runs the same round, a closed loop with one caller:

1. ``train.run_schedule`` of a four-stage compound schedule (pooled,
   1 layer, shared FFN; then ``stack:2``, ``stack:4``, ``unshare,unpool``),
   writing a checkpoint at every boundary;
2. ``train.evaluate`` of the final model on held-out sequences;
3. in-process ``growtrain grow``, ``verify`` and ``eval`` commands on the
   boundary checkpoints and on a factorized-FFN checkpoint made in set-up.

The workloads differ in width and in the mix: compound-desk and
compound-wide weigh training, grow-verify weighs the commands.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from growtrain import checkpoint, cli, config, costs, data, growth, model, ops, train
from growtrain.rng import Rng

from perfbench import checks, reference
from perfbench.probe import ProbeClock
from perfbench.spans import PROBE, Tracer, rebind

SETUP_REPEATS = 5
MIN_ROUNDS = 2          # the second round replays the first: same seed, same logs
PROBES_AROUND = 3       # probes before and after each timed operation
FORWARD_CHECK_SEQS = 2

# compound_base_desk: the desk-scale compound schedule.  Workloads override
# dimensions, stage lengths, batch, corpus size and learning rate.
BASE_DOC = {
    "model": {"L": 4, "D": 32, "H": 64, "M": 2, "N_max": 128, "V": 64,
              "dropout": 0.1, "attn_scale": True,
              "init": {"L": 1, "ffn": "shared:2", "pool_k": 2}},
    "data": {"seed": 0, "corpus_size": 256, "seq_len_full": 128,
             "mask_token_id": 0, "markov_order": 1},
    "schedule": [
        {"steps": 400, "ops": "", "train_len": 128, "masks_per_seq": 19, "batch_size": 16},
        {"steps": 400, "ops": "stack:2", "train_len": 128, "masks_per_seq": 19,
         "batch_size": 16},
        {"steps": 600, "ops": "stack:4", "train_len": 128, "masks_per_seq": 19,
         "batch_size": 16},
        {"steps": 600, "ops": "unshare,unpool", "train_len": 128, "masks_per_seq": 19,
         "batch_size": 16},
    ],
    "optimizer": {"peak_lr": 1e-2, "warmup": 50},
    "cost": {"count_overhead": True},
}


@dataclass(frozen=True)
class Workload:
    name: str
    dims: dict                  # D, H, M overrides of the desk model
    corpus_size: int
    steps: tuple                # per stage
    batch_size: int
    peak_lr: float
    heldout_seqs: int           # sequences train.evaluate sees each round
    evaluate_reps: int          # train.evaluate calls per round
    grow_reps: int              # passes over ``grows`` per round
    grows: tuple                # (source checkpoint, op spec)
    verifies: tuple             # (checkpoint, op spec)
    evals: tuple                # checkpoints
    chance_gap: float | None    # held-out loss must sit this far below ln V
    loss_must_fall: bool


_COMPOUND_COMMANDS = dict(
    grows=(("stage3_pregrowth", "unshare,unpool"),),
    verifies=(("stage3_pregrowth", "unshare"), ("factorized", "defactorize")),
    evals=("final",),
)

WORKLOADS = {
    # 1/14.3 of compound_base_desk's steps (2:2:3:3 kept) at batch 8, so
    # that two rounds fit in a run; lr 2e-2 ends the held-out loss 1.1-1.5
    # nats below chance on the 20 seeds tried, where batch 4 ended 0.9 below
    # on some seeds.
    "compound-desk": Workload(
        name="compound-desk", dims={}, corpus_size=256, steps=(28, 28, 42, 42),
        batch_size=8, peak_lr=2e-2, heldout_seqs=128, evaluate_reps=1, grow_reps=3,
        chance_gap=1.0, loss_must_fall=False, **_COMPOUND_COMMANDS),
    # BLAS-bound width; lr 1e-2 diverges at D=256, 5e-4 does not.
    "compound-wide": Workload(
        name="compound-wide", dims={"D": 256, "H": 1024, "M": 4}, corpus_size=16,
        steps=(4, 4, 6, 6), batch_size=4, peak_lr=5e-4, heldout_seqs=16, evaluate_reps=2,
        grow_reps=3, chance_gap=None, loss_must_fall=True, **_COMPOUND_COMMANDS),
    "grow-verify": Workload(
        name="grow-verify", dims={}, corpus_size=256, steps=(3, 3, 3, 3),
        batch_size=16, peak_lr=1e-2, heldout_seqs=16, evaluate_reps=4, grow_reps=1,
        chance_gap=None, loss_must_fall=False,
        grows=(("stage1_pregrowth", "stack:2"), ("stage2_pregrowth", "stack:4"),
               ("stage3_pregrowth", "unshare,unpool"), ("factorized", "defactorize")),
        verifies=(("stage3_pregrowth", "unshare"), ("factorized", "defactorize"),
                  ("stage1_pregrowth", "stack:2"), ("stage3_pregrowth", "unpool")),
        evals=("final", "grown1")),
}

PRESERVING = {"unshare", "defactorize"}
STAGES = 4
# functions followed by a probe on every call (see Run._install_probe_hooks)
PROBED = ((train, "optimizer_step"), (model, "mlm_loss_value"), (model, "encoder_forward"))


def run_doc(w: Workload, seed: int) -> dict:
    doc = copy.deepcopy(BASE_DOC)
    doc["model"].update(w.dims)
    doc["data"].update(seed=seed, corpus_size=w.corpus_size)
    doc["optimizer"]["peak_lr"] = w.peak_lr
    for stage, steps in zip(doc["schedule"], w.steps):
        stage.update(steps=steps, batch_size=w.batch_size)
    return doc


def factorized_doc(w: Workload, seed: int) -> dict:
    """Two one-step stages, factorized FFN then ``defactorize``: the
    stage-1 pre-growth checkpoint is the factorized-FFN checkpoint that no
    preset reaches."""
    doc = run_doc(w, seed)
    L, D = doc["model"]["L"], doc["model"]["D"]
    doc["model"]["init"] = {"L": L, "ffn": f"factorized:{D // 4}", "pool_k": 1}
    first, last = doc["schedule"][0], doc["schedule"][-1]
    doc["schedule"] = [dict(first, steps=1, batch_size=1),
                       dict(last, steps=1, batch_size=1, ops="defactorize")]
    return doc


class CliError(Exception):
    pass


def run_cli(argv) -> str:
    """One in-process ``growtrain`` command; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.cli(argv)
        except SystemExit as exc:
            code = exc.code
    if code != 0:
        raise CliError(f"growtrain {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _sha(path: Path) -> str:
    return hashlib.sha256((path / "tensors.bin").read_bytes()).hexdigest()


class Run:
    """One process, one workload, one seed."""

    def __init__(self, w: Workload, seed: int, seconds: float, traced: bool, work: Path):
        self.w, self.seed, self.seconds = w, seed, seconds
        self.work = work
        self.tracer = Tracer() if traced else None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_spans: list[tuple] = []
        self.rounds: list[dict] = []
        self.clock = ProbeClock()
        self._stamps: list[tuple] = []

    # -- helpers ---------------------------------------------------------

    def _fail(self, msg: str) -> None:
        """A check on an output failed: the run is not correct."""
        self.problems.append(msg)
        print(f"check failed: {msg}", file=sys.stderr)

    def _op_failed(self, count: int, msg: str) -> None:
        """An operation failed: it is counted, and checks skip its outputs."""
        self.failed += count
        print(f"operation failed: {msg}", file=sys.stderr)

    def _ckpt(self, label: str) -> Path:
        if label == "factorized":
            return self.work / "factorized" / "stage1_pregrowth"
        if label.startswith("grown"):
            return self.work / "round" / label
        return self.work / "round" / "ckpt" / label

    def _install_probe_hooks(self) -> None:
        """A probe after every ``train.optimizer_step`` (with one timestamp
        per step), every ``model.mlm_loss_value`` batch and every
        ``model.encoder_forward`` sequence, so long spans are cut into short
        stretches.  ``self.inner[name]`` is the program's function, or its
        traced wrapper during traced rounds, so probes stay outside spans."""
        clock, stamps = self.clock, self._stamps
        self.tracing = False
        self.raw = {name: getattr(mod, name) for mod, name in PROBED}
        self.inner = dict(self.raw)

        def hook(name):
            def probed(*args, **kwargs):
                result = self.inner[name](*args, **kwargs)
                done = time.perf_counter_ns()
                if self.tracing:
                    with self.tracer.span(PROBE):
                        clock.probe()
                else:
                    clock.probe()
                if name == "optimizer_step":
                    stamps.append((done, clock.at[-1]))
                return result
            return probed

        for _mod, name in PROBED:
            rebind(self.raw[name], hook(name))

    def _timed(self, fn):
        """Call fn between probes; returns (result, start_ns, end_ns)."""
        self.clock.probe(PROBES_AROUND)
        t0 = time.perf_counter_ns()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter_ns()
            self.clock.probe(PROBES_AROUND)
        return result, t0, t1

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        self._install_probe_hooks()
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg_path = self.work / "config.json"
        self.cfg_path.write_text(json.dumps(run_doc(self.w, self.seed), indent=1))
        fact_path = self.work / "factorized.json"
        fact_path.write_text(json.dumps(factorized_doc(self.w, self.seed), indent=1))
        if self.tracer:
            self.tracer.round = -1
            self._trace_on()

        def setup_once():
            rc = config.load_run_config(str(self.cfg_path))
            dc = rc.schedule.data0
            corpus = data.gen_corpus(dc, Rng(dc.seed).fork("data"))
            heldout = data.gen_corpus(dc, Rng(dc.seed).fork("data"), stream="heldout")
            frc = config.load_run_config(str(fact_path))
            train.run_schedule(frc.schedule, self.seed, out_dir=self.work / "factorized",
                               opt_cfg=frc.optimizer, corpus=corpus)
            return rc, corpus, heldout, frc

        for _ in range(SETUP_REPEATS):
            made, t0, t1 = self._timed(setup_once)
            self.setup_spans.append((t0, t1))
        if self.tracer:
            self._trace_off()
        self.rc, self.corpus, self.heldout, self.frc = made
        self._check_mult_adds()

    def _check_mult_adds(self) -> None:
        plans = self.rc.schedule.stage_plans() + self.frc.schedule.stage_plans()[:1]
        for t, plan in enumerate(plans):
            count = costs.model_mult_adds_per_step(plan.config, plan.train_len,
                                                   plan.masks_per_seq).total
            try:
                checks.mult_adds_match(count, plan.config.to_dict(), plan.train_len,
                                       plan.masks_per_seq, f"plan {t} ({plan.config.ffn_mode})")
            except checks.CheckFailed as exc:
                self._fail(str(exc))

    # -- rounds ----------------------------------------------------------

    def measure(self) -> None:
        deadline = time.perf_counter() + self.seconds
        last = 0.0
        while len(self.rounds) < MIN_ROUNDS or time.perf_counter() + last <= deadline:
            t0 = time.perf_counter()
            traced = self.tracer is not None and len(self.rounds) % 2 == 1
            self.rounds.append(self.round(traced))
            self.check_round(self.rounds[-1], first=len(self.rounds) == 1)
            last = time.perf_counter() - t0

    def round(self, traced: bool) -> dict:
        w = self.w
        r = {"traced": traced, "grow": [], "verify": [], "eval": [],
             "grow_out": [], "verify_out": [], "eval_out": []}
        if traced:
            self.tracer.round = len(self.rounds)
            self._trace_on()
        start = time.perf_counter_ns()
        self._stamps.clear()
        shutil.rmtree(self.work / "round", ignore_errors=True)
        steps = sum(w.steps)
        self.attempted += steps + (STAGES - 1)
        try:
            result, *r["train"] = self._timed(lambda: train.run_schedule(
                self.rc.schedule, self.seed, out_dir=self.work / "round" / "ckpt",
                opt_cfg=self.rc.optimizer, log_every=1, corpus=self.corpus))
        except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
            self._op_failed(steps + (STAGES - 1), f"run_schedule raised {exc!r}")
            result = None
        r["stamps"] = list(self._stamps)
        r["result"] = result

        r["heldout_eval"] = []
        for _ in range(w.evaluate_reps):
            self.attempted += 1
            if result is None:
                self._op_failed(1, "no trained model to evaluate")
                continue
            dc = result.data_config
            try:
                r["heldout_loss"], t0, t1 = self._timed(lambda: train.evaluate(
                    result.params, result.config, dc, self.heldout[:w.heldout_seqs],
                    Rng(dc.seed).fork("heldout_mask")))
                r["heldout_eval"].append((t0, t1))
            except Exception as exc:  # noqa: BLE001
                self._op_failed(1, f"evaluate raised {exc!r}")

        for i, (src, op) in enumerate(w.grows * w.grow_reps):
            argv = ["grow", "--ckpt", str(self._ckpt(src)), "--op", op,
                    "-o", str(self._ckpt(f"grown{i}"))]
            self._command(argv, r["grow"], r["grow_out"])
        for src, op in w.verifies:
            argv = ["verify", "--ckpt", str(self._ckpt(src)), "--op", op]
            self._command(argv, r["verify"], r["verify_out"])
        for src in w.evals:
            argv = ["eval", "--ckpt", str(self._ckpt(src)), "-c", str(self.cfg_path)]
            self._command(argv, r["eval"], r["eval_out"])
        if traced:
            self._trace_off()
            self.tracer.round = -2
        r["span"] = (start, time.perf_counter_ns())
        return r

    def _command(self, argv, spans: list, outputs) -> None:
        self.attempted += 1
        try:
            text, t0, t1 = self._timed(lambda: run_cli(argv))
            spans.append((t0, t1))
        except CliError as exc:
            self._op_failed(1, str(exc))
            text = None
        outputs.append(text)

    # -- checks ----------------------------------------------------------

    def check_round(self, r: dict, first: bool) -> None:
        w = self.w
        where = f"{w.name} round {len(self.rounds)}"
        try:
            result = r["result"]
            if result is None:
                return
            checks.losses_finite(result.loss_log, where)
            r["final_sha"] = _sha(self._ckpt("final"))
            if first:
                self.first_log, self.first_sha = result.loss_log, r["final_sha"]
                self.first_texts = (r["verify_out"], r["eval_out"])
                self._check_stage_forwards(where)
                self._check_eval_losses(r["eval_out"], where)
            else:
                checks.identical_logs(self.first_log, result.loss_log, where)
                if r["final_sha"] != self.first_sha:
                    raise checks.CheckFailed(f"{where}: final tensors differ from round 1")
                if (r["verify_out"], r["eval_out"]) != self.first_texts:
                    raise checks.CheckFailed(f"{where}: command output differs from round 1")
            if "heldout_loss" in r:
                if not math.isfinite(r["heldout_loss"]):
                    raise checks.CheckFailed(f"{where}: held-out loss {r['heldout_loss']}")
                if w.chance_gap is not None:
                    checks.below_chance(r["heldout_loss"], result.config.V, w.chance_gap, where)
            if w.loss_must_fall:
                checks.loss_falls(result.loss_log, where)
            for i, ((src, op), text) in enumerate(zip(w.grows * w.grow_reps, r["grow_out"])):
                if text is None:
                    continue
                src_p, src_m = reference.read_checkpoint(self._ckpt(src))
                got_p, got_m = reference.read_checkpoint(self._ckpt(f"grown{i}"))
                checks.grown_matches(src_p, src_m["model_config"], op, got_p,
                                     got_m["model_config"], f"{where} grow {op} on {src}")
            for (src, op), text in zip(w.verifies, r["verify_out"]):
                if text is not None:
                    checks.verify_output(text, op in PRESERVING, f"{where} verify {op} on {src}")
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            self._fail(str(exc))

    def _masked_heldout(self, j: int, dc):
        seq = self.heldout[j][:dc.train_len]
        return data.mask_tokens(seq, dc.masks_per_seq, Rng(self.seed).fork(f"check{j}"),
                                dc.mask_token_id, dc.V)

    def _check_stage_forwards(self, where: str) -> None:
        """Program logits equal the reference forward at every stage's
        trained parameters (the checkpoint that closes each stage)."""
        labels = [f"stage{t}_pregrowth" for t in range(1, STAGES)] + ["final"]
        for t, label in enumerate(labels):
            ck = checkpoint.load_checkpoint(self._ckpt(label))
            params, manifest = reference.read_checkpoint(self._ckpt(label))
            for j in range(FORWARD_CHECK_SEQS):
                ids, pos, _ = self._masked_heldout(j, ck.data_config)
                logits, _ = model.encoder_forward(ids, pos, ck.params, ck.model_config, Rng(0))
                checks.forward_matches(logits, params, manifest["model_config"], ids, pos,
                                       f"{where} stage {t} sequence {j}")

    def _check_eval_losses(self, texts, where: str) -> None:
        """Each ``growtrain eval`` loss equals the reference forward's mean
        loss over the same held-out sequences and masks."""
        for label, text in zip(self.w.evals, texts):
            if text is None:
                continue
            params, manifest = reference.read_checkpoint(self._ckpt(label))
            dc = data.DataConfig.from_dict(manifest["data_config"])
            mask_rng = Rng(dc.seed).fork("heldout_mask")
            losses = []
            for idx in range(self.heldout.shape[0]):
                ids, pos, tgt = data.mask_tokens(
                    self.heldout[idx][:dc.train_len], dc.masks_per_seq,
                    mask_rng.fork(f"seq{idx}"), dc.mask_token_id, dc.V)
                logits = reference.forward(params, manifest["model_config"], ids, pos)
                losses.append(reference.sequence_loss(logits, tgt))
            checks.printed_loss_matches(text, sum(losses) / len(losses),
                                        f"{where} eval {label}")

    # -- tracing ---------------------------------------------------------

    def _trace_on(self) -> None:
        t = self.tracer
        mode_of_args = lambda a, k: a[3].ffn_mode  # noqa: E731 - (x, params, layer, config)
        mode_of_cache = lambda a, k: a[1]["config"].ffn_mode  # noqa: E731

        def pooled(a, k):
            return "pooled" if a[0].shape[0] != a[1].shape[0] else ""

        for name in ("gelu", "gelu_grad", "dropout_mask", "layer_norm", "layer_norm_backward",
                     "softmax_rows", "softmax_rows_backward", "cross_entropy_logits"):
            t.install(ops, name, f"ops.{name}")
        t.install(model, "attention_apply", "model.attention_apply", tag_of=pooled)
        t.install(model, "attention_backward", "model.attention_backward")
        t.install(model, "build_pooling", "model.build_pooling",
                  on_result=lambda a, k, res: t.add("model.pooled_rows", res[0].shape[0]))
        t.install(model, "ffn_apply", "model.ffn_apply", tag_of=mode_of_args)
        t.install(model, "ffn_backward", "model.ffn_backward", tag_of=mode_of_cache)
        for name in ("encoder_apply", "encoder_backward", "mlm_loss"):
            t.install(model, name, f"model.{name}")
        t.install_method(Rng, "fork", "rng.fork")
        t.install(data, "gen_corpus", "data.gen_corpus")
        t.install(data, "mask_tokens", "data.mask_tokens")
        orig_batches = data.iter_batches

        def iter_batches(*args, **kwargs):
            batches = orig_batches(*args, **kwargs)
            while True:
                with t.span("data.batch"):
                    batch = next(batches)
                yield batch

        t.install(data, "iter_batches", "data.batch", wrapper=iter_batches)
        self.tracing = True
        for mod, name in PROBED:
            self.inner[name] = t.wrapped(self.raw[name], f"{mod.__name__.split('.')[-1]}.{name}")
        t.install(train, "run_schedule", "train.run_schedule")
        t.install(growth, "apply", "growth.apply")
        t.install(growth, "verify_function_preserving", "growth.verify_function_preserving")

        def saved(a, k, res):
            path = Path(a[0])
            t.add("checkpoint.bytes", sum((path / f).stat().st_size
                                          for f in ("tensors.bin", "manifest.json")))

        t.install(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint", on_result=saved)
        t.install(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")
        t.install(config, "load_run_config", "config.load_run_config")

    def _trace_off(self) -> None:
        self.tracer.remove()
        self.inner = dict(self.raw)
        self.tracing = False

    # -- metrics ---------------------------------------------------------

    def step_samples(self, rounds, scaled: bool = True) -> list[list[float]]:
        """ms/step samples of each stage: the gaps between consecutive
        ``optimizer_step`` timestamps of one stage (a stage's first step is
        left out: its gap holds the growth boundary)."""
        bounds = [0]
        for s in self.w.steps:
            bounds.append(bounds[-1] + s)
        per_stage = [[] for _ in self.w.steps]
        for r in rounds:
            st = r["stamps"]
            for t in range(len(self.w.steps)):
                for i in range(bounds[t] + 1, min(bounds[t + 1], len(st))):
                    start, end = st[i - 1][1], st[i][0]   # after the probe, after the step
                    per_stage[t].append(self.clock.seconds(start, end, scaled) * 1e3)
        return per_stage

    def step_ms(self, rounds, scaled: bool = True) -> list[float]:
        """Median ms/step of each stage."""
        return [statistics.median(v) if v else math.nan
                for v in self.step_samples(rounds, scaled)]

    def train_s(self, rounds, scaled: bool = True) -> list[float]:
        return [self.clock.seconds(*r["train"], scaled) for r in rounds if "train" in r]

    def end_to_end(self, scaled: bool = True) -> dict:
        """Medians over the run's untraced repetitions of the same work, each
        time scaled to the reference machine speed by the probe, or as
        measured if not ``scaled``."""
        import resource

        plain = [r for r in self.rounds if not r["traced"]]
        med = statistics.median
        sec = lambda span: self.clock.seconds(*span, scaled)  # noqa: E731
        metrics = {"setup_s": (med(map(sec, self.setup_spans)), "s"),
                   "train_s": (med(self.train_s(plain, scaled)), "s")}
        for t, v in enumerate(self.step_ms(plain, scaled)):
            metrics[f"step_ms.stage{t}"] = (v, "ms")
        metrics["heldout_eval_s"] = (med(sec(x) for r in plain for x in r["heldout_eval"]), "s")
        for key in ("grow", "verify", "eval"):
            # commands of one kind differ (ops, checkpoint sizes): take each
            # command's median over rounds, then their mean
            per_command = zip(*(r[key] for r in plain))
            metrics[f"{key}_ms"] = (statistics.mean(med(map(sec, spans)) * 1e3
                                                    for spans in per_command), "ms")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                  "MB")
        return metrics

    def per_layer(self) -> dict:
        t = self.tracer
        traced = [i for i, r in enumerate(self.rounds) if r["traced"]]
        plain = [r for r in self.rounds if not r["traced"]]
        n = len(traced)
        incl, own, calls = t.totals(traced)
        all_incl, _, all_calls = t.totals(set(s[5] for s in t.spans))
        # span times are scaled to the reference speed like the end-to-end ones
        k = statistics.mean(self.clock.factor(*self.rounds[i]["span"]) for i in traced)
        ms = lambda key: incl.get(key, 0) * k / 1e6 / n  # noqa: E731 - per traced round
        m = {}
        for name in ("gelu", "gelu_grad", "dropout_mask", "layer_norm", "layer_norm_backward",
                     "softmax_rows", "softmax_rows_backward", "cross_entropy_logits"):
            m[f"ops.{name}.ms"] = (ms(f"ops.{name}"), "ms")
        m["model.attention_apply.ms"] = (ms("model.attention_apply"), "ms")
        m["model.attention_backward.ms"] = (ms("model.attention_backward"), "ms")
        m["model.attention_pooled.ms"] = (ms("model.attention_apply.pooled"), "ms")
        m["model.build_pooling.ms"] = (ms("model.build_pooling"), "ms")
        pool_calls = calls.get("model.build_pooling", 0)
        m["model.pooled_rows.mean"] = (
            t.count_sum("model.pooled_rows", traced) / pool_calls if pool_calls else 0.0, "rows")
        for mode in ("full", "shared", "factorized"):
            m[f"model.ffn_apply.ms.{mode}"] = (ms(f"model.ffn_apply.{mode}"), "ms")
        for mode in ("full", "shared"):
            m[f"model.ffn_backward.ms.{mode}"] = (ms(f"model.ffn_backward.{mode}"), "ms")
        for name in ("encoder_apply", "encoder_backward"):
            m[f"model.{name}.self_ms"] = (own.get(f"model.{name}", 0) * k / 1e6 / n, "ms")
        for name in ("mlm_loss", "mlm_loss_value", "encoder_forward"):
            m[f"model.{name}.ms"] = (ms(f"model.{name}"), "ms")
        m["rng.fork.calls_per_step"] = (self._forks_per_step(traced), "calls")
        m["rng.fork.ms"] = (ms("rng.fork"), "ms")
        gen_calls = all_calls.get("data.gen_corpus", 0)
        m["data.gen_corpus.s"] = (all_incl.get("data.gen_corpus", 0) * k / 1e9 / gen_calls, "s")
        m["data.batch.ms"] = (ms("data.batch"), "ms")
        m["data.mask_tokens.calls"] = (calls.get("data.mask_tokens", 0) / n, "calls")
        m["train.optimizer_step.ms"] = (ms("train.optimizer_step"), "ms")
        m["growth.apply.ms"] = (ms("growth.apply"), "ms")
        m["growth.verify_function_preserving.ms"] = (ms("growth.verify_function_preserving"),
                                                     "ms")
        m["checkpoint.save_checkpoint.ms"] = (ms("checkpoint.save_checkpoint"), "ms")
        m["checkpoint.load_checkpoint.ms"] = (ms("checkpoint.load_checkpoint"), "ms")
        m["checkpoint.bytes"] = (t.count_sum("checkpoint.bytes", traced) / n, "B")
        m.update(self.cost_metrics(plain))
        cfg_calls = all_calls.get("config.load_run_config", 0)
        m["config.load_run_config.ms"] = (all_incl.get("config.load_run_config", 0) * k / 1e6
                                          / cfg_calls, "ms")
        traced_train = statistics.median(self.train_s([self.rounds[i] for i in traced]))
        plain_train = statistics.median(self.train_s(plain))
        m["trace.overhead_s"] = (traced_train - plain_train, "s")
        m["trace.overhead_share"] = ((traced_train - plain_train) / plain_train, "1")
        return m

    def _forks_per_step(self, traced) -> float:
        """Rng.fork calls made while run_schedule ran, per optimizer step."""
        spans = self.tracer.spans
        windows = [(s[2], s[3]) for s in spans
                   if s[0] == "train.run_schedule" and s[5] in set(traced)]
        forks = 0
        for s in spans:
            if s[0] == "rng.fork" and any(a <= s[2] <= b for a, b in windows):
                forks += 1
        return forks / (sum(self.w.steps) * len(windows))

    def cost_metrics(self, plain) -> dict:
        """Analytic Mult-Adds next to the measured step times."""
        plans = self.rc.schedule.stage_plans()
        step_s = [v / 1e3 for v in self.step_ms(plain)]
        m = {}
        for t, (plan, s) in enumerate(zip(plans, step_s)):
            fwd = costs.model_mult_adds_per_step(plan.config, plan.train_len,
                                                 plan.masks_per_seq).total
            m[f"costs.fwd_mult_adds.stage{t}"] = (fwd, "mult-adds")
            # forward plus backward, counting backward as twice forward
            batch = self.rc.schedule.stages[t].batch_size
            m[f"costs.achieved_gma_per_s.stage{t}"] = (3 * fwd * batch / s / 1e9, "G/s")
        report = costs.schedule_cost(plans, self.rc.schedule.baseline_plans(),
                                     count_overhead=self.rc.cost.count_overhead)
        m["costs.speedup.analytic"] = (report.speedup_vs_baseline, "1")
        staged = sum(p.steps * s for p, s in zip(plans, step_s))
        baseline = sum(p.steps for p in plans) * step_s[-1]
        m["costs.speedup.measured"] = (baseline / staged - 1.0, "1")
        return m

    def summary(self) -> dict:
        """Per-round samples, scaled to the reference speed."""
        sec = lambda span: self.clock.seconds(*span)  # noqa: E731
        return {"workload": self.w.name, "seed": self.seed, "rounds": len(self.rounds),
                "traced_rounds": sum(r["traced"] for r in self.rounds),
                "heldout_loss": [r.get("heldout_loss") for r in self.rounds],
                "train_s": [sec(r["train"]) if "train" in r else None for r in self.rounds],
                "heldout_eval_s": [list(map(sec, r["heldout_eval"])) for r in self.rounds],
                **{f"{key}_ms": [[sec(x) * 1e3 for x in r[key]] for r in self.rounds]
                   for key in ("grow", "verify", "eval")},
                "step_ms": self.step_samples([r for r in self.rounds if not r["traced"]]),
                "probe_ms": statistics.quantiles([t / 1e6 for t in self.clock.took], n=4),
                "setup_s": list(map(sec, self.setup_spans)), "problems": self.problems}
