"""Memory budgets of the growth path: checkpoint I/O, ``growth.apply``, the
preservation check behind ``growtrain verify`` and ``growtrain grow``.

``tracemalloc`` sees numpy's data buffers as well as Python ``bytes``
objects, so the peak it reports counts every model-sized intermediate
copy.  The bounds are counts of bytes, not timings, and repeat exactly:
saving allocates next to nothing, loading allocates the tensors once,
growing allocates the grown model once, verifying a growth op allocates
only the tensors the op makes, and ``grow`` allocates only the loaded
tensors and the ones the op makes.
"""

import tracemalloc

import pytest

from growtrain import growth
from growtrain.checkpoint import load_checkpoint, save_checkpoint
from growtrain.cli import cli
from growtrain.data import DataConfig
from growtrain.model import ModelConfig, init_params
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
