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
1e-19, the rounding of BLAS products over fewer rows.  The loss, parameter,
``final/tensors.bin`` and ``loss.csv`` pins were re-captured again when
that layer began to draw its dropout masks for those rows only, a different
random stream by design; the manifest pin did not move.

The guard schedule starts at L = 2, so a second guard pins the one-layer
pooled model of a compound schedule's first stage (L = 1, ``pool_k = 2``,
``shared:2``, dropout 0.1) exactly: the loss, logits and every gradient of
one ``mlm_loss`` call, and a forward-only ``encoder_forward``.  Its digests
were captured before the encoder kernels began to reuse their buffers and
the last layer's query map became row indices.
"""

import hashlib

import numpy as np

from growtrain.data import DataConfig, assemble, gen_corpus
from growtrain.growth import Unpool, UnshareFFN
from growtrain.model import (ModelConfig, encoder_apply, encoder_forward,
                             init_params, mlm_loss)
from growtrain.rng import Rng
from growtrain.train import OptimizerConfig, Schedule, Stage, run_schedule

PINNED_LOSSES = [
    4.159260292335238, 4.156004842758851, 4.146375761839446, 4.182758149536517,
    4.122072150987923, 3.8669944185360787, 3.9474185195912104, 4.23707833347194,
]
PINNED_PARAMS_SHA256 = "67d28c7f40ab62b9bc38e455672641352a40db2ebc0cfe188014997f2dee7021"
PINNED_STAGE0_LOSS = 4.158971152557775
PINNED_STAGE0_SHA256 = {
    "train_logits": "21d405230fba929e73dab3445be3991cf1ee7e8fd738d6b0909b44a7e179959d",
    "grads": "2d63e6ec20f48368402529842f15e11140f287acdab651a90d2566f015ef70aa",
    "forward": "2d8e9b29bea8e82cb1c3ee2f173a8c90fc4cc78fd4e16216278e67a9102b685b",
}
PINNED_FILE_SHA256 = {
    "final/tensors.bin": "bf620af11696228e5230541f693e3c55109c1c8260cdc5ebefa7caaea37071f4",
    "final/manifest.json": "a803ab9c93e540afdd222a5f4e2a2f1fcfd7e345716d3914df61cb03d62b4b14",
    "loss.csv": "bb0d448488d4dbaa6be9281764067c12461b4d7d19480ea4fde6099c22d56892",
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


def arrays_sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def stage0_digests() -> tuple[float, dict]:
    """The loss and digests of one training call and one forward-only pass of the
    pooled one-layer stage-0 model on four masked corpus rows."""
    cfg = ModelConfig(L=1, D=32, H=64, M=2, N_max=128, V=64, dropout_p=0.1,
                      ffn_mode="shared", ffn_k=2, pool_k=2)
    dc = DataConfig(V=64, corpus_size=4, seq_len_full=128, train_len=128,
                    masks_per_seq=19)
    params = init_params(cfg, Rng(5).fork("init"))
    rng = Rng(5)
    ids, masked, targets = assemble(gen_corpus(dc, rng.fork("data")), range(4), dc,
                                    rng.fork("mask"))
    step = rng.fork("step")
    loss, grads = mlm_loss((ids, masked, targets), params, cfg, step, training=True)
    # mlm_loss runs sequence j on step.fork(f"seq{j}"); these are its logits
    train_logits = [encoder_apply(ids[j], masked[j], params, cfg, step.fork(f"seq{j}"),
                                  True)[0] for j in range(4)]
    forward = [a for j in range(4)
               for a in encoder_forward(ids[j], masked[j], params, cfg, Rng(0))]
    return loss, {"train_logits": arrays_sha256(train_logits),
                  "grads": params_sha256(grads),
                  "forward": arrays_sha256(forward)}


def test_pooled_one_layer_model_is_bit_identical_to_pins():
    loss, digests = stage0_digests()
    assert loss == PINNED_STAGE0_LOSS
    assert digests == PINNED_STAGE0_SHA256
