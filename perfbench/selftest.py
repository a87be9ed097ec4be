"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Each check in ``checks.py`` must pass on the program's real output and fail
when one value of its input is perturbed: a weight nudged by 1e-6, a
Mult-Add count off by one, a printed loss off in its last digit, a PASS
turned to FAIL, one logged loss one ulp away.  Exits 0 when every check
behaves so, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from growtrain import checkpoint, costs, data, growth, model  # noqa: E402
from growtrain.model import ModelConfig  # noqa: E402
from growtrain.rng import Rng  # noqa: E402

from perfbench import checks, reference, workloads  # noqa: E402

N, MASKS, V = 24, 4, 12
CONFIGS = {
    "pooled-shared": ModelConfig(L=2, D=8, H=16, M=2, N_max=N, V=V, ffn_mode="shared",
                                 ffn_k=2, pool_k=2),
    "full": ModelConfig(L=2, D=8, H=16, M=2, N_max=N, V=V),
    "factorized": ModelConfig(L=2, D=8, H=16, M=2, N_max=N, V=V, ffn_mode="factorized",
                              ffn_h=3),
}
GROWS = {"pooled-shared": ["stack:4", "unshare", "unshare,unpool"],
         "factorized": ["defactorize"], "full": ["stack:4"]}

results: list[tuple[str, bool]] = []


def expect(name: str, fn, fires: bool) -> None:
    try:
        fn()
        fired = False
    except checks.CheckFailed:
        fired = True
    results.append((f"{name}: {'fails on perturbed input' if fires else 'passes'}",
                    fired == fires))


def nudged(params: dict, name: str, by: float = 1e-6) -> dict:
    out = {k: t.copy() for k, t in params.items()}
    out[name].reshape(-1)[0] += by
    return out


def main() -> int:
    work = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    dc = data.DataConfig(V=V, corpus_size=6, seq_len_full=N, train_len=N,
                         masks_per_seq=MASKS, seed=3)
    corpus = data.gen_corpus(dc, Rng(dc.seed).fork("data"), stream="heldout")
    ids, pos, _ = data.mask_tokens(corpus[0], MASKS, Rng(1), dc.mask_token_id, V)

    for label, cfg in CONFIGS.items():
        # larger than the default init, so logits are far from uniform
        params = {k: t * 25 if t.ndim == 2 else t
                  for k, t in model.init_params(cfg, Rng(0).fork("init")).items()}
        cd = cfg.to_dict()
        logits, _ = model.encoder_forward(ids, pos, params, cfg, Rng(0))
        for fires, p in ((False, params), (True, nudged(params, "head.w")),
                         (True, nudged(params, "layer0.w_q"))):
            expect(f"forward {label}", lambda p=p: checks.forward_matches(
                logits, p, cd, ids, pos, label), fires)

        count = costs.model_mult_adds_per_step(cfg, N, MASKS).total
        for fires, c in ((False, count), (True, count + 1), (True, count - 1)):
            expect(f"mult-adds {label}", lambda c=c: checks.mult_adds_match(
                c, cd, N, MASKS, label), fires)

        for spec in GROWS[label]:
            grown, gcfg, _ = growth.apply(growth.parse_ops(spec), params, cfg, None)
            first = sorted(grown)[0]
            for fires, g in ((False, grown), (True, nudged(grown, first))):
                expect(f"grow {spec} on {label}", lambda g=g: checks.grown_matches(
                    params, cd, spec, g, gcfg.to_dict(), label), fires)
            expect(f"grow {spec} on {label}, nudged source",
                   lambda: checks.grown_matches(nudged(params, "layer0.ln_ffn.gain"), cd,
                                                spec, grown, gcfg.to_dict(), label), True)

        ckpt = work / label
        checkpoint.save_checkpoint(ckpt, params, cfg, dc, 0, 0, {})
        if label != "full":
            op = "unshare" if label == "pooled-shared" else "defactorize"
            text = workloads.run_cli(["verify", "--ckpt", str(ckpt), "--op", op])
            expect(f"verify {op}", lambda: checks.verify_output(text, True, op), False)
            expect(f"verify {op}", lambda: checks.verify_output(
                text.replace("PASS", "FAIL"), True, op), True)
            expect(f"verify {op}", lambda: checks.verify_output(
                "op x (preservation-class): max abs diff 2.000e-09 (tol 1.0e-09)\nPASS",
                True, op), True)

        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(workloads.run_doc(workloads.WORKLOADS["grow-verify"], 0)))
        text = workloads.run_cli(["eval", "--ckpt", str(ckpt), "-c", str(cfg_path)])
        mask_rng = Rng(dc.seed).fork("heldout_mask")
        losses = []
        for idx in range(corpus.shape[0]):
            i, p_, t = data.mask_tokens(corpus[idx], MASKS, mask_rng.fork(f"seq{idx}"),
                                        dc.mask_token_id, V)
            losses.append(reference.sequence_loss(reference.forward(params, cd, i, p_), t))
        ref = sum(losses) / len(losses)
        for fires, r in ((False, ref), (True, ref + 1.5e-6)):
            expect(f"eval loss {label}", lambda r=r: checks.printed_loss_matches(
                text, r, label), fires)

    log = [(0, 0, 0.01, 4.1), (1, 0, 0.01, 3.9), (2, 1, 0.005, 3.5), (3, 1, 0.0, 3.2)]
    expect("finite losses", lambda: checks.losses_finite(log, "log"), False)
    expect("finite losses", lambda: checks.losses_finite(
        log[:-1] + [(3, 1, 0.0, math.nan)], "log"), True)
    expect("identical logs", lambda: checks.identical_logs(log, list(log), "log"), False)
    expect("identical logs", lambda: checks.identical_logs(
        log, log[:-1] + [(3, 1, 0.0, float(np.nextafter(3.2, 4.0)))], "log"), True)
    expect("loss falls", lambda: checks.loss_falls(log, "log"), False)
    expect("loss falls", lambda: checks.loss_falls(
        [(s, t, lr, 8.0 - x) for s, t, lr, x in log], "log"), True)
    expect("below chance", lambda: checks.below_chance(math.log(64) - 1.001, 64, 1.0, "x"),
           False)
    expect("below chance", lambda: checks.below_chance(math.log(64) - 0.999, 64, 1.0, "x"),
           True)

    shutil.rmtree(work, ignore_errors=True)
    bad = [name for name, ok in results if not ok]
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"{len(results) - len(bad)}/{len(results)} check behaviours as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
