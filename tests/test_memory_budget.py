"""Memory budgets of the growth path (checkpoint I/O, ``growth.apply``, the
preservation check behind ``growtrain verify`` and ``growtrain grow``) and
of one encoder sequence, forward-only and in training.

``tracemalloc`` sees numpy's data buffers as well as Python ``bytes``
objects, so the peak it reports counts every model-sized intermediate
copy.  The bounds are counts of bytes, not timings, and repeat exactly:
saving allocates next to nothing, loading allocates the tensors once,
growing allocates the grown model once, verifying a growth op allocates
only the tensors the op makes, and ``grow`` allocates only the loaded
tensors and the ones the op makes.  The encoder's kernels write their
results into buffers already in hand, so a throwaway copy of a score or
hidden array shows up as a higher peak.
"""

import tracemalloc

import pytest

from growtrain import growth
from growtrain.checkpoint import load_checkpoint, save_checkpoint
from growtrain.cli import cli
from growtrain.data import DataConfig, assemble, gen_corpus
from growtrain.model import ModelConfig, encoder_forward, init_params, mlm_loss, zero_grads
from growtrain.rng import Rng

from conftest import random_batch

SLACK = 0.05


@pytest.fixture(scope="module")
def model():
    # about 2.4 MB of float64: shared FFN, pooled first layer
    cfg = ModelConfig(L=2, D=128, H=512, M=2, N_max=128, V=64, dropout_p=0.1,
                      ffn_mode="shared", ffn_k=2, pool_k=2)
    dc = DataConfig(V=64, corpus_size=4, seq_len_full=128, train_len=128,
                    masks_per_seq=19)
    return init_params(cfg, Rng(3).fork("init")), cfg, dc


def nbytes(params: dict) -> int:
    return sum(t.nbytes for t in params.values())


def peak_allocation(fn):
    """(result, bytes allocated at the peak of ``fn`` above what was live
    before it)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def test_model_is_about_two_megabytes(model):
    params, _, _ = model
    assert 2e6 < nbytes(params) < 3e6


def test_save_allocates_no_model_sized_buffer(model, tmp_path):
    params, cfg, dc = model
    _, peak = peak_allocation(
        lambda: save_checkpoint(tmp_path / "ckpt", params, cfg, dc, 0, 0, {}))
    assert peak < SLACK * nbytes(params)


def test_load_allocates_the_tensors_once(model, tmp_path):
    params, cfg, dc = model
    save_checkpoint(tmp_path / "ckpt", params, cfg, dc, 0, 0, {})
    ckpt, peak = peak_allocation(lambda: load_checkpoint(tmp_path / "ckpt"))
    assert nbytes(ckpt.params) == nbytes(params)
    assert peak <= (1 + SLACK) * nbytes(params)


def test_apply_allocates_the_grown_model_once(model):
    params, cfg, dc = model
    ops_list = growth.parse_ops("unshare,unpool")
    (grown, _, _), peak = peak_allocation(
        lambda: growth.apply(ops_list, params, cfg, dc))
    assert nbytes(grown) > nbytes(params)
    assert peak <= (1 + SLACK) * nbytes(grown)


def test_grow_allocates_the_loaded_and_the_new_tensors_only(model, tmp_path, capsys):
    params, cfg, dc = model
    save_checkpoint(tmp_path / "ckpt", params, cfg, dc, 0, 0, {})
    grown, _, _ = growth.fold(growth.parse_ops("unshare,unpool"), params, cfg, dc)
    made = sum(t.nbytes for name, t in grown.items() if name not in params)
    code, peak = peak_allocation(lambda: cli(
        ["grow", "--ckpt", str(tmp_path / "ckpt"), "--op", "unshare,unpool",
         "-o", str(tmp_path / "grown")]))
    assert code == 0
    # the unchanged tensors are written from the loaded ones, not copied
    assert peak <= (1 + SLACK) * (nbytes(params) + made)


def test_verify_allocates_only_the_new_tensors(model):
    params, cfg, dc = model
    ops_list = growth.parse_ops("unshare")
    grown, _, _ = growth.apply(ops_list, params, cfg, dc)
    made = sum(t.nbytes for name, t in grown.items() if name not in params)
    # a short probe batch keeps the forward passes' share small
    ids, masked, _ = random_batch(Rng(4), 4, 16, 3, cfg.V)
    report, peak = peak_allocation(lambda: growth.verify_function_preserving(
        params, cfg, ops_list, (ids, masked)))
    assert report.passed
    # the unshared FFN matrices are most of it; no owned copy of the grown
    # model (its unchanged tensors included) is made
    assert made <= peak < nbytes(grown)


@pytest.fixture(scope="module")
def desk_final():
    """compound_base_desk's final stage: L=4, D=32, full FFN, no pooling,
    one sequence of 128 tokens with 19 masks."""
    cfg = ModelConfig(L=4, D=32, H=64, M=2, N_max=128, V=64, dropout_p=0.1)
    dc = DataConfig(V=64, corpus_size=1, seq_len_full=128, train_len=128,
                    masks_per_seq=19)
    batch = assemble(gen_corpus(dc, Rng(4)), [0], dc, Rng(5))
    return init_params(cfg, Rng(3).fork("init")), cfg, batch


# bytes of one layer's (M, n, n) attention scores at that shape
SCORES = 2 * 128 * 128 * 8


def test_forward_pass_peak(desk_final):
    params, cfg, (ids, masked, _) = desk_final
    _, peak = peak_allocation(
        lambda: encoder_forward(ids[0], masked[0], params, cfg, Rng(0)))
    # 8.66 SCORES (about 2.27 MB); 9.03 (about 2.37 MB) when the kernels
    # made a fresh array for each result
    assert peak < 8.85 * SCORES


def test_training_sequence_peak(desk_final):
    params, cfg, batch = desk_final
    grads = zero_grads(params)
    _, peak = peak_allocation(
        lambda: mlm_loss(batch, params, cfg, Rng(6), True, grads))
    # 13.23 SCORES (about 3.47 MB); 14.29 (about 3.75 MB) when the kernels
    # made a fresh array for each result
    assert peak < 13.75 * SCORES
