"""Show each growth operator and its function-preservation class.

Builds a small shared-FFN, pooled model, applies every operator, and prints
the max absolute change in masked-position logits on a probe batch.  FFN
unsharing and defactorization are exact; stacking and unpooling change the
computed function and are reported without a pass requirement.
"""

import numpy as np

from growtrain.data import DataConfig, assemble, gen_corpus
from growtrain.growth import (DefactorizeFFN, StackDepth, UnshareFFN, Unpool,
                              apply, verify_function_preserving)
from growtrain.model import ModelConfig, init_params, param_count
from growtrain.rng import Rng


def probe(dc, rng, batch):
    """(ids, masked positions) of the first ``batch`` synthetic sequences."""
    ids, masked, _ = assemble(gen_corpus(dc, rng.fork("corpus")), np.arange(batch),
                              dc, rng)
    return ids, masked


def main():
    cfg = ModelConfig(L=2, D=16, H=32, M=2, N_max=32, V=32, dropout_p=0.0,
                      ffn_mode="shared", ffn_k=2, pool_k=2)
    params = init_params(cfg, Rng(0).fork("init"))
    dc = DataConfig(V=cfg.V, corpus_size=4, seq_len_full=16, train_len=16,
                    masks_per_seq=3)
    batch = probe(dc, Rng(1).fork("probe"), 4)

    print(f"start: L={cfg.L}, ffn={cfg.ffn_mode}(k={cfg.ffn_k}), "
          f"pool_k={cfg.pool_k}, params={param_count(cfg)['total']:,}")

    for op in (StackDepth(4), UnshareFFN(), Unpool()):
        report = verify_function_preserving(params, cfg, op, batch)
        kind = "exact" if report.preservation_class else "report-only"
        print(f"{report.op:>10} ({kind:>11}): max abs logit diff "
              f"{report.max_abs_diff:.3e}")

    fac = ModelConfig(L=2, D=16, H=32, M=2, N_max=32, V=32, dropout_p=0.0,
                      ffn_mode="factorized", ffn_h=3)
    fac_params = init_params(fac, Rng(2).fork("init"))
    report = verify_function_preserving(fac_params, fac, DefactorizeFFN(), batch)
    print(f"{report.op:>10} ({'exact':>11}): max abs logit diff "
          f"{report.max_abs_diff:.3e}")

    grown, final_cfg, _ = apply([StackDepth(4), UnshareFFN(), Unpool()],
                                params, cfg, None)
    print(f"\nafter compound growth: L={final_cfg.L}, ffn={final_cfg.ffn_mode}, "
          f"pool_k={final_cfg.pool_k}, params={param_count(final_cfg)['total']:,}")


if __name__ == "__main__":
    main()
