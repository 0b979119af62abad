"""The README's library quick tour runs as written, and its command-line
examples parse."""
import re
import shlex
from pathlib import Path

import pytest

from rpratio import cli

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


def _cli_examples():
    """The argv of each rpratio command in the README's sh blocks, with
    continuation lines joined and comments stripped."""
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["rpratio"]:
                yield argv[1:]


def test_cli_examples_parse(capsys):
    examples = list(_cli_examples())
    assert {argv[0] for argv in examples} == {
        "analyze", "plan", "theory", "simulate", "surface", "generate",
    }
    parser = cli._build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"rpratio {shlex.join(argv)}: {capsys.readouterr().err}")
