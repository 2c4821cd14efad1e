"""Check every benchmark pool case against bench/digests.json.

Runs each distances, chains and cli pool case in compare mode (nothing is
written), so a changed unique result anywhere in the pool fails, not only
in the short smoke decks the bench tests run.  Every --json stdout must
also be strict JSON, so a printed Infinity or NaN fails too.  Takes about
45 s; run it from any directory (it checks the package in ../src):

    PYTHONDONTWRITEBYTECODE=1 python tests/digest_pool.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import record_digests as rd  # noqa: E402
from record_digests import inputs, ops  # noqa: E402


class Counted(ops.Gate):
    checked = 0
    parsed = 0

    def digest(self, *args):
        self.checked += 1
        super().digest(*args)


def refuse(constant):
    raise ValueError(f"--json output holds the non-JSON number {constant}")


check_cli = ops.check_cli


def strict_check_cli(gate, op, stdout, *rest):
    check_cli(gate, op, stdout, *rest)
    if "--json" in op.argv:
        json.loads(stdout, parse_constant=refuse)
        gate.parsed += 1


def main():
    ops.check_cli = strict_check_cli
    gate = Counted()
    rd.record_inprocess(gate, inputs.DISTANCES_LADDERS, inputs.distances_case,
                        ops.run_distances, ops.check_distances)
    rd.record_inprocess(gate, inputs.CHAINS_LADDERS, inputs.chains_case,
                        ops.run_chains, ops.check_chains)
    with tempfile.TemporaryDirectory() as tmp:
        rd.record_cli(gate, Path(tmp))
    print(f"{gate.checked} pool digests match bench/digests.json")
    print(f"{gate.parsed} --json outputs are strict JSON")


if __name__ == "__main__":
    main()
