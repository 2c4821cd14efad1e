"""Record the digests of every pool case into digests.json.

    python3 bench/record_digests.py

Runs each distances and chains pool case in-process and each CLI command
on every generated and bundled model (through ``finmeas.cli.main`` with
stdout captured, which prints the bytes a child would), and stores the
digest of each unique result.  Non-unique results are checked by
certificate here too, so a wrong result is never recorded.  Run it only on
a commit whose results are known to be right; a later change that alters
a unique result then shows up as a failed op.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402

os.environ["FINMEAS_ATOM_CAP"] = str(inputs.PATH_ATOM_CAP)

import ops  # noqa: E402
from finmeas import cli as fm_cli  # noqa: E402


def pool(ladders, make_case):
    for kind, ladder in ladders.items():
        for n in ladder:
            for idx in range(inputs.CASES_PER_LEVEL):
                yield make_case(kind, n, idx)


def record_inprocess(gate, ladders, make_case, run_op, check):
    for case in pool(ladders, make_case):
        model = fm_cli.parse_model(json.loads(inputs.dump(case.doc)))
        check(gate, case, model, run_op(case, model))


def record_cli(gate, tmp):
    paths = {
        name: SRC / "finmeas" / "examples" / f"{name}.json"
        for name in ("decomposition", "processes", "metrics")
    }
    cli_ops = [inputs.CliOp(*command) for command in inputs.BUNDLED_COMMANDS]
    for size in inputs.CLI_SIZES:
        for idx in range(inputs.CASES_PER_LEVEL):
            name = inputs.case_key("model", size, idx)
            doc, half = inputs.cli_model(size, idx)
            paths[name] = tmp / (name.replace(":", "_") + ".json")
            paths[name].write_bytes(inputs.dump(doc))
            cli_ops += [inputs.CliOp(name, *command) for command in inputs.cli_commands(half)]
    for op in cli_ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
            code = fm_cli.main([*op.argv, "-m", str(paths[op.model])])
        ops.check_cli(
            gate, op, out.getvalue().encode(), code, err.getvalue().encode(),
            lambda name: fm_cli.load_model(paths[name]),
        )


def main():
    gate = ops.Gate(record=True)
    record_inprocess(gate, inputs.DISTANCES_LADDERS, inputs.distances_case, ops.run_distances, ops.check_distances)
    record_inprocess(gate, inputs.CHAINS_LADDERS, inputs.chains_case, ops.run_chains, ops.check_chains)
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        record_cli(gate, Path(tmp))
    ops.DIGESTS_PATH.write_text(json.dumps(gate.table, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(gate.table)} digests in {ops.DIGESTS_PATH.name}")


if __name__ == "__main__":
    main()
