"""Each demo's ``main()`` runs to the end and prints what it promises."""

import re
import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name: str, capsys) -> str:
    runpy.run_path(str(DEMOS / f"{name}.py"))["main"]()
    return capsys.readouterr().out


def test_cost_model(capsys):
    out = run_demo("cost_model", capsys)
    assert "speedup vs baseline: +65.5%" in out
    assert "speedup vs baseline: +104.2%" in out


def test_growth_operators(capsys):
    out = run_demo("growth_operators", capsys)
    exact = re.findall(r"\(\s*exact\): max abs logit diff (\S+)", out)
    assert len(exact) == 2 and all(float(d) <= 1e-9 for d in exact)
    assert "after compound growth: L=4, ffn=full, pool_k=1" in out


def test_progressive_training(capsys):
    out = run_demo("progressive_training", capsys)
    assert len(re.findall(r"^boundary \d", out, flags=re.M)) == 3
    loss = float(re.search(r"held-out loss after \d+ steps: (\S+)", out).group(1))
    assert 0.0 < loss < 10.0
