"""Command-line driver.

Subcommands: plan, train, grow, verify, flops, eval.  Exit codes: 0 on
success, 1 for validation/integrity failures (and failed preservation
checks under ``verify``), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import growth
from .checkpoint import load_checkpoint, save_checkpoint
from .config import load_run_config
from .costs import format_report, report_to_dict, schedule_cost
from .data import assemble, gen_corpus
from .errors import GrowtrainError, ParamError
from .rng import Rng
from .train import evaluate, run_schedule


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="growtrain",
        description="Progressive compound growth for a toy Transformer MLM.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="cost report for a schedule vs. its baseline")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("train", help="run a staged training schedule")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("grow", help="apply growth ops to a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("verify", help="check function preservation of an op")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("flops", help="per-stage cost table for a schedule")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("eval", help="held-out MLM loss of a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("-c", "--config", required=True)
    return parser


def _cmd_cost(args) -> int:
    """``plan`` and ``flops``: the schedule's cost report; only ``plan``
    compares it with the baseline."""
    rc = load_run_config(args.config)
    report = schedule_cost(rc.schedule.stage_plans(), rc.schedule.baseline_plans(),
                           count_overhead=rc.cost.count_overhead)
    baseline = args.command == "plan"
    if args.json:
        print(json.dumps(report_to_dict(report, baseline), indent=1))
    else:
        print(format_report(report, baseline))
    return 0


def _cmd_train(args) -> int:
    rc = load_run_config(args.config)
    result = run_schedule(rc.schedule, seed=args.seed, out_dir=args.out,
                          opt_cfg=rc.optimizer)
    last = result.loss_log[-1]
    print(f"done: {last[0] + 1} steps, final logged loss {last[3]:.4f}")
    print(f"checkpoints in {args.out}")
    return 0


def _cli_ops(spec: str) -> list:
    """An ``--op`` list, which must name at least one op."""
    ops_list = growth.parse_ops(spec)
    if not ops_list:
        raise ParamError("--op names no growth op")
    return ops_list


def _cmd_grow(args) -> int:
    ckpt = load_checkpoint(args.ckpt)
    ops_list = _cli_ops(args.op)
    # the grown tensors are only written out, so unchanged ones are not copied
    params, config, dc = growth.fold(ops_list, ckpt.params, ckpt.model_config,
                                     ckpt.data_config)
    save_checkpoint(args.out, params, config, dc, ckpt.stage_index,
                    ckpt.global_step, ckpt.rng_state,
                    extra={"boundary_ops": [o.spec for o in ops_list]})
    print(f"grew {args.op}: L={config.L}, ffn_mode={config.ffn_mode}, "
          f"pool_k={config.pool_k} -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.batch < 1:
        raise ParamError(f"--batch must be >= 1, got {args.batch}")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ParamError(f"--tol must be finite and >= 0, got {args.tol}")
    ckpt = load_checkpoint(args.ckpt)
    ops_list = _cli_ops(args.op)
    # a probe batch of the checkpoint's data shape, corpus rows 0, 1, ...;
    # only the rows it reads are generated
    dc = ckpt.data_config
    rng = Rng(args.seed).fork("probe")
    rows = gen_corpus(replace(dc, corpus_size=min(args.batch, dc.corpus_size)),
                      rng.fork("corpus"))
    ids, masked, _ = assemble(rows, np.arange(args.batch) % dc.corpus_size, dc, rng)
    report = growth.verify_function_preserving(
        ckpt.params, ckpt.model_config, ops_list, (ids, masked), tol=args.tol)
    kind = "preservation-class" if report.preservation_class else "report-only"
    print(f"op {report.op} ({kind}): max abs diff {report.max_abs_diff:.3e} "
          f"(tol {report.tol:.1e})")
    if report.preservation_class:
        print("PASS" if report.passed else "FAIL")
        return 0 if report.passed else 1
    return 0


def _cmd_eval(args) -> int:
    rc = load_run_config(args.config)
    ckpt = load_checkpoint(args.ckpt)
    dc = ckpt.data_config
    data_rng = Rng(dc.seed)
    corpus = gen_corpus(dc, data_rng.fork("data"), stream="heldout")
    loss = evaluate(ckpt.params, ckpt.model_config, dc, corpus,
                    data_rng.fork("heldout_mask"),
                    batch_size=rc.eval_batch_size)
    print(f"held-out MLM loss: {loss:.6f}")
    return 0


_COMMANDS = {"plan": _cmd_cost, "train": _cmd_train, "grow": _cmd_grow,
             "verify": _cmd_verify, "flops": _cmd_cost, "eval": _cmd_eval}


def cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GrowtrainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
