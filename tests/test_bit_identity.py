"""Fast bit-identity guard for the training numerics.

A two-stage desk-shaped compound schedule (pooled, shared FFN, then
``unshare,unpool``) trains a few steps with dropout on.  The loss log and a
sha256 of the final parameters must equal the pinned values exactly: a change
meant only to make the program faster fails here in seconds if it moves any
bit of any result.  The pins were captured from the code before the
raw-bit dropout masks, cached layer-norm statistics and in-place softmax
landed; see CHANGES.md.  The run also writes its checkpoints, and the bytes
of the final checkpoint and of ``loss.csv`` are pinned as well; those pins
were captured from the code before checkpoints were streamed tensor by
tensor.  The parameter and ``final/tensors.bin`` pins were re-captured when
the last encoder layer began to compute only the rows the head reads: the
losses stayed bit-identical, and the gradients moved by at most a few
1e-19, the rounding of BLAS products over fewer rows.
"""

import hashlib

import numpy as np

from growtrain.data import DataConfig
from growtrain.growth import Unpool, UnshareFFN
from growtrain.model import ModelConfig
from growtrain.train import OptimizerConfig, Schedule, Stage, run_schedule

PINNED_LOSSES = [
    4.159280306257447, 4.155469226070121, 4.145699548319687, 4.1842151362628766,
    4.11508297094565, 3.9362721430223595, 4.027537265085091, 4.203274035181825,
]
PINNED_PARAMS_SHA256 = "cb57e29a9743032a31f215c7ef6f0aca6f868a4272cb486910f4a7da88a1a350"
PINNED_FILE_SHA256 = {
    "final/tensors.bin": "ad932dd71e80e2de0d3d577b5bc13a4680b6a78d4d2171a653b36d5ac5077644",
    "final/manifest.json": "a803ab9c93e540afdd222a5f4e2a2f1fcfd7e345716d3914df61cb03d62b4b14",
    "loss.csv": "825aaa16656889f2b6fe7bd2ee98bd0427c6a344446668304f0124e1ecb6b844",
}


def guard_schedule() -> Schedule:
    model0 = ModelConfig(L=2, D=32, H=64, M=2, N_max=128, V=64, dropout_p=0.1,
                         ffn_mode="shared", ffn_k=2, pool_k=2)
    data0 = DataConfig(V=64, corpus_size=16, seq_len_full=128, train_len=128,
                       masks_per_seq=19)
    stages = (
        Stage(steps=4, train_len=128, masks_per_seq=19, batch_size=4),
        Stage(steps=4, ops_at_start=(UnshareFFN(), Unpool()), train_len=128,
              masks_per_seq=19, batch_size=4),
    )
    return Schedule(stages=stages, model0=model0, data0=data0)


def params_sha256(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def run_guard(out_dir):
    result = run_schedule(guard_schedule(), seed=5, out_dir=out_dir, log_every=1,
                          opt_cfg=OptimizerConfig(peak_lr=2e-2, warmup=1))
    return [loss for _, _, _, loss in result.loss_log], params_sha256(result.params)


def test_training_numerics_are_bit_identical_to_pins(tmp_path):
    losses, digest = run_guard(tmp_path)
    assert losses == PINNED_LOSSES
    assert digest == PINNED_PARAMS_SHA256
    for name, pinned in PINNED_FILE_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == pinned, name
