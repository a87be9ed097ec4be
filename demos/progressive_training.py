"""Run a shortened staged schedule end to end and inspect the boundaries.

Uses a scaled-down version of the compound desk preset (tens of steps per
stage) so the demo finishes in seconds, then checks loss continuity at each
growth boundary: exact for unshare, report-only for stacking and unpooling.
"""

import tempfile
from pathlib import Path

import numpy as np

from growtrain.checkpoint import load_checkpoint
from growtrain.config import load_run_config
from growtrain.data import assemble, gen_corpus
from growtrain.rng import Rng
from growtrain.train import (OptimizerConfig, evaluate, loss_continuity_check,
                             run_schedule)


def probe(dc, rng, batch):
    """(ids, masked positions, targets) of the first ``batch`` synthetic
    sequences, masked the way training masks them."""
    return assemble(gen_corpus(dc, rng.fork("corpus")), np.arange(batch), dc, rng)


def main():
    rc = load_run_config("compound_base_desk")
    stages = tuple(type(s)(steps=20, ops_at_start=s.ops_at_start,
                           train_len=s.train_len, masks_per_seq=s.masks_per_seq,
                           batch_size=8)
                   for s in rc.schedule.stages)
    schedule = type(rc.schedule)(stages=stages, model0=rc.schedule.model0,
                                 data0=rc.schedule.data0)
    opt = OptimizerConfig(peak_lr=rc.optimizer.peak_lr, warmup=2)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        result = run_schedule(schedule, seed=0, out_dir=out, opt_cfg=opt,
                              log_every=5)
        print("loss trajectory (step, stage, lr, loss):")
        for row in result.loss_log:
            print(f"  {row[0]:>3} {row[1]} {row[2]:.2e} {row[3]:.4f}")

        batch = probe(result.data_config, Rng(9).fork("probe"), 4)
        for t in range(1, len(stages)):
            pre = load_checkpoint(out / f"stage{t}_pregrowth")
            post = load_checkpoint(out / f"stage{t}_postgrowth")
            rep = loss_continuity_check(pre, post, batch)
            ops = ",".join(post.extra["boundary_ops"])
            kind = "exact" if rep.preservation_class else "report-only"
            print(f"boundary {t} [{ops}] ({kind}): "
                  f"loss {rep.loss_before:.4f} -> {rep.loss_after:.4f} "
                  f"(diff {rep.diff:.2e})")

        dc = result.data_config
        held = gen_corpus(dc, Rng(dc.seed).fork("data"), stream="heldout")
        loss = evaluate(result.params, result.config, dc, held,
                        Rng(1).fork("eval"))
        print(f"held-out loss after {sum(s.steps for s in stages)} steps: "
              f"{loss:.4f} (chance is ln {dc.V} = {np.log(dc.V):.4f})")


if __name__ == "__main__":
    main()
