"""The README's library quick tour runs as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_tour_runs(tmp_path, monkeypatch):
    # The block writes per_rep.csv into the working directory.
    monkeypatch.chdir(tmp_path)
    ns: dict = {}
    exec(compile(_quick_tour(), str(README), "exec"), ns)
    assert (ns["plan"].n0, ns["plan"].n) == (160, 112)
    assert ns["result"].estimates.shape == (10000, 4)
    sol, stats, design = ns["sol"], ns["stats"], ns["design"]
    family = ns["RatioProductRatio"](sol.alpha_star, sol.beta_star)
    assert ns["family_theory"](family, stats, design).mse1 == pytest.approx(
        ns["minimal_mse1"](stats, design), rel=1e-12
    )
    assert (tmp_path / "per_rep.csv").exists()
