"""Write one workload's input files through the rpratio CLI.

    python3 perfbench/setup_inputs.py <workload> <seed> <directory>

run.py times this script in fresh processes for the setup_s metric, so
each run pays for interpreter start, the rpratio import and `rpratio
generate`, as a user's first command would.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    sys.path.insert(0, str(SRC))
    from rpratio import cli
    from workloads import WORKLOADS

    for setup_argv in WORKLOADS[name].setup_argvs(int(seed), Path(workdir)):
        code = cli.main(setup_argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
