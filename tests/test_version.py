"""The package version is written in pyproject.toml and in
rpratio.__version__; the two must agree."""
import tomllib
from pathlib import Path

import rpratio

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    with PYPROJECT.open("rb") as fh:
        assert rpratio.__version__ == tomllib.load(fh)["project"]["version"]
