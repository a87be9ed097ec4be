"""The program's forward pass against the benchmark's independent reference.

``perfbench/reference.py`` is written from the method's definition and
imports nothing from the model; the benchmark rejects a run whose logits
differ from it by more than 1e-9.  The same check here covers each stage of
the desk compound schedule and a factorized-FFN model, at the desk
sequence shape, so a forward pass the benchmark would refuse fails in the
tests first.
"""

import numpy as np
import numpy.testing as npt
import pytest

from growtrain.config import load_run_config
from growtrain.data import DataConfig, gen_corpus, mask_tokens
from growtrain.model import encoder_forward, init_params
from growtrain.rng import Rng
from perfbench import checks, reference

STAGES = load_run_config("compound_base_desk").schedule.stage_plans()
CONFIGS = {f"stage{t}": plan.config for t, plan in enumerate(STAGES)}
CONFIGS["factorized"] = STAGES[0].config.with_(L=2, ffn_mode="factorized", ffn_k=1,
                                               ffn_h=6)


def test_stage_configs_cover_the_compound_shapes():
    shapes = [(c.L, c.ffn_mode, c.pool_k) for c in CONFIGS.values()]
    assert shapes == [(1, "shared", 2), (2, "shared", 2), (4, "shared", 2),
                      (4, "full", 1), (2, "factorized", 2)]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_logits_match_reference_forward(name):
    cfg = CONFIGS[name]
    params = init_params(cfg, Rng(50).fork("init"))
    # weights well away from the near-zero init, so every block matters
    for pname, t in params.items():
        t += Rng(51).fork(pname).normal(0.0, 0.2, t.shape)
    dc = DataConfig(V=cfg.V, corpus_size=4, seq_len_full=128, train_len=128,
                    masks_per_seq=19)
    corpus = gen_corpus(dc, Rng(52))
    for j, seq in enumerate(corpus):
        ids, masked, _ = mask_tokens(seq, dc.masks_per_seq, Rng(53).fork(f"seq{j}"),
                                     dc.mask_token_id, dc.V)
        logits, _ = encoder_forward(ids, masked, params, cfg, Rng(0))
        ref = reference.forward(params, cfg.to_dict(), ids, masked)
        assert logits.shape == ref.shape == (19, cfg.V)
        npt.assert_allclose(logits, ref, rtol=0, atol=checks.FORWARD_TOL)
        assert np.ptp(ref) > 1.0
