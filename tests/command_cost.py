"""Report the cost of one ``finmeas`` command.

Prints the median wall ms of 11 cold ``python -m finmeas`` children, for a
command that runs no flow (``space``) and one that does (``dist
prohorov``), and the number of argparse parsers ``finmeas space`` builds
(the whole tree is 34).  Run it with PYTHONDONTWRITEBYTECODE=1 from a tree
without ``__pycache__`` to time children that compile the package from
source.  A report, not a gate; run it from any directory (it imports the
package in ../src):

    PYTHONDONTWRITEBYTECODE=1 python tests/command_cost.py
"""

import argparse
import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

EXAMPLES = SRC / "finmeas" / "examples"
COMMANDS = {
    "space": ["space", "--name", "G", "-m", str(EXAMPLES / "decomposition.json")],
    "dist prohorov": ["dist", "prohorov", "--left", "dirac_a", "--right", "nu_p",
                      "--metric", "d2", "-m", str(EXAMPLES / "metrics.json")],
}


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for name, argv in COMMANDS.items():
        times = []
        for _ in range(11):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "finmeas", *argv],
                           check=True, capture_output=True, env=env)
            times.append(time.perf_counter() - start)
        ms = statistics.median(times) * 1000
        print(f"finmeas {name}: {ms:.1f} ms median of 11")

    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    argparse.ArgumentParser.__init__ = counted
    from finmeas.cli import main as finmeas_main

    with contextlib.redirect_stdout(io.StringIO()):
        finmeas_main(COMMANDS["space"])
    print(f"finmeas space builds {len(made)} ArgumentParsers")


if __name__ == "__main__":
    main()
