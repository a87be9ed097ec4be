"""Output checks.  Each raises CheckFailed with a message naming what
differed; ``selftest.py`` shows that every one of them fires on a perturbed
input."""

from __future__ import annotations

import math
import re

import numpy as np

from perfbench import reference

FORWARD_TOL = 1e-9
TRANSFORM_TOL = 1e-12
PRESERVE_TOL = 1e-9
# ``growtrain eval`` prints the loss with six decimals.
PRINTED_LOSS_TOL = 0.5e-6 + 1e-12


class CheckFailed(Exception):
    pass


def forward_matches(program_logits: np.ndarray, params: dict, cfg: dict,
                    ids, masked, where: str) -> None:
    """Program logits agree with the reference forward within 1e-9."""
    ref = reference.forward(params, cfg, ids, masked)
    if program_logits.shape != ref.shape:
        raise CheckFailed(f"{where}: logits shape {program_logits.shape} != {ref.shape}")
    diff = float(np.max(np.abs(program_logits - ref)))
    if not diff <= FORWARD_TOL:
        raise CheckFailed(f"{where}: logits differ from the reference by {diff:.3e}")


def mult_adds_match(program_count: int, cfg: dict, train_len: int, masks: int,
                    where: str) -> None:
    """The program's per-sequence forward Mult-Adds equal the reference count."""
    ref = reference.mult_adds_per_sequence(cfg, train_len, masks)
    if program_count != ref:
        raise CheckFailed(f"{where}: program counts {program_count} Mult-Adds, "
                          f"reference {ref}")


def grown_matches(src_params: dict, src_cfg: dict, spec: str,
                  grown_params: dict, grown_cfg: dict, where: str) -> None:
    """A grown checkpoint equals the reference transform of its source."""
    want, want_cfg = reference.grow(src_params, src_cfg, spec)
    if want_cfg != grown_cfg:
        raise CheckFailed(f"{where}: grown config {grown_cfg} != {want_cfg}")
    if set(want) != set(grown_params):
        raise CheckFailed(f"{where}: tensor names {sorted(set(want) ^ set(grown_params))} "
                          f"differ from the reference transform")
    for name, t in want.items():
        got = grown_params[name]
        if got.shape != t.shape:
            raise CheckFailed(f"{where}: {name} has shape {got.shape}, want {t.shape}")
        diff = float(np.max(np.abs(got - t))) if t.size else 0.0
        if not diff <= TRANSFORM_TOL:
            raise CheckFailed(f"{where}: {name} differs from the reference "
                              f"transform by {diff:.3e}")


_VERIFY = re.compile(r"max abs diff (\S+)")


def verify_output(text: str, preserving: bool, where: str) -> float:
    """Parse ``growtrain verify`` output; a preserving op must print PASS
    with a diff of at most 1e-9.  Returns the printed diff."""
    m = _VERIFY.search(text)
    if m is None:
        raise CheckFailed(f"{where}: no diff in verify output {text!r}")
    diff = float(m.group(1))
    if not math.isfinite(diff):
        raise CheckFailed(f"{where}: verify printed diff {diff}")
    if preserving:
        lines = text.split()
        if "PASS" not in lines or "FAIL" in lines:
            raise CheckFailed(f"{where}: verify did not print PASS: {text!r}")
        if not diff <= PRESERVE_TOL:
            raise CheckFailed(f"{where}: preserving op changed logits by {diff:.3e}")
    return diff


_EVAL = re.compile(r"held-out MLM loss: (\S+)")


def printed_loss_matches(text: str, ref_loss: float, where: str) -> float:
    """The loss ``growtrain eval`` prints agrees with the reference loss to
    the printed precision.  Returns the printed value."""
    m = _EVAL.search(text)
    if m is None:
        raise CheckFailed(f"{where}: no loss in eval output {text!r}")
    printed = float(m.group(1))
    if not abs(printed - ref_loss) <= PRINTED_LOSS_TOL:
        raise CheckFailed(f"{where}: eval printed {printed}, reference loss {ref_loss:.9f}")
    return printed


def losses_finite(loss_log, where: str) -> None:
    for step, stage, _lr, loss in loss_log:
        if not math.isfinite(loss):
            raise CheckFailed(f"{where}: loss {loss} at step {step} (stage {stage})")


def identical_logs(first, again, where: str) -> None:
    """Two runs with the same seed logged bit-identical losses."""
    if len(first) != len(again):
        raise CheckFailed(f"{where}: {len(again)} log rows, first run had {len(first)}")
    for a, b in zip(first, again):
        if a != b:
            raise CheckFailed(f"{where}: log row {b} differs from the first run's {a}")


def below_chance(loss: float, V: int, gap: float, where: str) -> None:
    """Held-out loss at least ``gap`` nats below the uniform guess ln V."""
    if not loss <= math.log(V) - gap:
        raise CheckFailed(f"{where}: held-out loss {loss:.4f} is not {gap} nat "
                          f"below ln V = {math.log(V):.4f}")


def loss_falls(loss_log, where: str) -> None:
    """The last stage's mean logged loss is below the first stage's."""
    first = [loss for _s, stage, _lr, loss in loss_log if stage == 0]
    last_stage = max(stage for _s, stage, _lr, _l in loss_log)
    last = [loss for _s, stage, _lr, loss in loss_log if stage == last_stage]
    if not np.mean(last) < np.mean(first):
        raise CheckFailed(f"{where}: mean loss {np.mean(last):.4f} in the last stage "
                          f"is not below {np.mean(first):.4f} in the first")
