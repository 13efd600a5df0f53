"""A seeded fuzzer of the exit-code contract: whatever a table holds, a stage ends in
exit 0, 2 (validation) or 3 (numerical failure), and on 2 or 3 it logs exactly one
one-line message and lets no exception escape.

The inputs are the malformed tables of `tools/pipeline_digest.py`'s `ERROR_CASES`,
its valid tables, the packaged demo files and the counts `count` makes of the demo
possibility matrix. Each mutant applies one or two seeded mutations to one of them
and runs the stage that reads it through `cli.main`. The seed and the count were
fixed before the first run.
"""

import importlib.util
import logging
import logging.handlers
from pathlib import Path

import numpy as np

from grancount import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pipeline_digest", ROOT / "tools" / "pipeline_digest.py")
DIGEST = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(DIGEST)

SEED = 14
COUNT = 300
# the settings that keep a run on valid mutated inputs short; they follow the digest's own
FAST = ["--set", "hmc.n_chains=1", "--set", "hmc.n_warmup=10", "--set", "hmc.n_draws=10",
        "--set", "hmc.max_leapfrog=4", "--set", "ppc.n_reps=2"]
# cells a mutation puts in place of a cell, and characters it puts inside one
CELLS = ["nan", "inf", "1e400", "", "9" * 200_000]
CHARACTERS = ["\ufeff", "\x00", "\r"]


def truncate(text, rng):
    return text[: rng.integers(0, len(text) + 1)]


def duplicate_row(text, rng):
    lines = text.split("\n")
    i = rng.integers(0, len(lines))
    return "\n".join(lines[: i + 1] + lines[i:])


def swap_columns(text, rng):
    rows = [line.split(",") for line in text.split("\n")]
    j, k = rng.integers(0, max(len(rows[0]), 2), size=2)
    for row in rows:
        if max(j, k) < len(row):
            row[j], row[k] = row[k], row[j]
    return "\n".join(",".join(row) for row in rows)


def change_cell(text, rng):
    rows = [line.split(",") for line in text.split("\n")]
    row = rows[rng.integers(0, len(rows))]
    j = rng.integers(0, len(row))
    if rng.random() < 0.5:
        row[j] = CELLS[rng.integers(0, len(CELLS))]
    else:
        at = rng.integers(0, len(row[j]) + 1)
        row[j] = row[j][:at] + CHARACTERS[rng.integers(0, len(CHARACTERS))] + row[j][at:]
    return "\n".join(",".join(row) for row in rows)


MUTATIONS = (truncate, duplicate_row, swap_columns, change_cell)


def sources(tmp_path: Path) -> list[tuple[str, str]]:
    """(stage, table text) pairs for the digest's error stages to mutate."""
    data = Path(cli.__file__).parent / "data"
    possibility = (data / "demo_possibility.csv").read_text()
    counts = tmp_path / "demo_counts.csv"
    assert cli.main(["count", str(data / "demo_possibility.csv"), "--out", str(counts)]) == 0
    valid = DIGEST.VALID_INPUTS
    return [*DIGEST.ERROR_CASES.values(),
            ("infer-stats", valid["stats.csv"]), ("infer-covariates", valid["covariates.csv"]),
            ("ppc-draws", valid["draws.csv"]), ("count", possibility),
            ("infer-covariates", (data / "demo_covariates.csv").read_text()),
            ("fit", counts.read_text())]


def run_stage(stage: str, text: str, work: Path) -> tuple[int, list[str]]:
    """Exit code and logged warning-or-worse messages of `stage` on `bad.csv` = `text`."""
    work.mkdir()
    for name, content in DIGEST.VALID_INPUTS.items():
        (work / name).write_text(content)
    (work / "bad.csv").write_bytes(text.encode("utf-8"))
    argv = DIGEST.ERROR_STAGES[stage]
    start = next(i for i, arg in enumerate(argv) if arg in ("count", "fit", "infer", "ppc"))
    argv = [*argv[:start], *FAST, *argv[start:]]
    argv = [str(work / arg) if arg.endswith((".csv", ".json")) else arg for arg in argv]
    records = logging.handlers.BufferingHandler(capacity=1000)
    records.setLevel(logging.WARNING)
    logger = logging.getLogger("grancount")
    logger.addHandler(records)
    try:
        code = cli.main(argv)
    finally:
        logger.removeHandler(records)
    return code, [record.getMessage() for record in records.buffer]


def test_mutated_tables_keep_the_exit_code_contract(tmp_path):
    pool = sources(tmp_path)
    rng = np.random.default_rng(SEED)
    codes = []
    for case in range(COUNT):
        stage, text = pool[rng.integers(0, len(pool))]
        for _ in range(rng.integers(1, 3)):
            text = MUTATIONS[rng.integers(0, len(MUTATIONS))](text, rng)
        code, messages = run_stage(stage, text, tmp_path / f"case{case}")
        assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_NUMERICAL), (stage, text[:200])
        if code != cli.EXIT_OK:
            assert len(messages) == 1 and "\n" not in messages[0], (stage, text[:200], messages)
            assert "Traceback" not in messages[0]
        codes.append(code)
    # the mutants reach both sides of the contract
    assert codes.count(cli.EXIT_OK) > 0 and codes.count(cli.EXIT_VALIDATION) > 0
