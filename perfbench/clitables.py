"""The cli-tables workload: real ``uhl`` command lines through ``cli.main``.

Each command imports ``uhlenbeck`` afresh (so import time and every module
cache start cold, as in a new ``uhl`` process) and runs ``cli.main`` in this
process with stdout captured.  A cycle runs every recorded variant of every
command once, in a seeded order, so every seed times the same commands.
Each command's stdout, and the CSV files ``report`` writes, must match byte
for byte the golden outputs in ``golden.json`` (SHA-256 digest and length),
which ``record_golden.py`` records from real ``uhl`` processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
REPORT_DIR = ".perfbench_out/report"

# The same entry point as the ``uhl`` console script.
LAUNCH = "import sys; from uhlenbeck.cli import main; sys.exit(main())"

# Each short command has four recorded variants.
SHORT = [
    [["quiver", "alpha", "--r", r, "--d", d, "--n", n] for r, d, n in (("1", "0", "2"), ("2", "1", "2"), ("3", "1", "4"), ("2", "0", "1"))],
    [["ic", "stalk", "--n", "20", "--m", m, "--lambda", lam] for m, lam in (("14", "3,2,1"), ("10", "4,3,2,1"), ("0", "5,5,4,3,2,1"), ("12", "8"))],
    [["ic", "betti", "--n", n] for n in ("30", "29", "28", "27")],
    [["cm", "fixed-points", "--n", n] for n in ("20", "19", "18", "17")],
    [["nc", "normal-form", "--word", w] for w in ("yxzyx", "zyxzyx", "yyxxz", "xzyzyx")],
    [["bvar", "jordan", "--k", "6", f"--u={u}"] for u in ("0", "1/2", "-3", "2/5")],
    [["cm", "sample", "--n", "5", f"--spectrum={s}"] for s in ("0,1,3,-2,5", "1,2,3,4,5", "-4,-1,2,7,9", "1/2,-1/3,2,3,-5")],
]

# Each heavy command has two recorded variants.  With 28 short and 14 heavy
# commands the median falls among the short ones and the tail percentile
# among the heavy ones, not on the boundary between them.
HEAVY = [
    [["report", "--n", n, "--out", REPORT_DIR] for n in ("16", "15")],
    [["nc", "dims", "--max-degree", "24", "--tau", t] for t in ("1", "3/7")],
    [["ic", "audit", "--n", n] for n in ("20", "19")],
    [["ic", "strata", "--n", n] for n in ("20", "19")],
    [["ic", "fixed-points", "--n", n] for n in ("15", "14")],
    [["bvar", "components", "--k", k] for k in ("7", "6")],
    [["bvar", "fiber", "--lambda", lam] for lam in ("3,2", "2,2,1")],
]

CYCLE_ITEMS = sum(len(variants) for variants in SHORT + HEAVY)
POOL_CYCLES = 4
# The highest percentile with at least ten of a cycle's items beyond it.
TAIL_PCT = 76


def all_commands() -> list[list[str]]:
    return [argv for variants in SHORT + HEAVY for argv in variants]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def cycle(rng) -> list[list[str]]:
    """One cycle: every command variant once, in a seeded order."""
    cmds = [list(argv) for argv in all_commands()]
    rng.shuffle(cmds)
    return cmds


def clear_report_dir(root: Path):
    shutil.rmtree(root / REPORT_DIR, ignore_errors=True)


def observed(root: Path, argv: list[str], stdout: bytes) -> dict:
    """Digest of a command's stdout plus any report files it wrote."""
    out = {"stdout": digest(stdout)}
    if argv[0] == "report":
        out["files"] = {p.name: digest(p.read_bytes()) for p in sorted((root / REPORT_DIR).glob("*.csv"))}
    return out


def run_command(root: Path, env: dict, argv: list[str]) -> tuple[int, bytes]:
    """Run one command as its own ``uhl`` process; returns (exit code, stdout)."""
    proc = subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=root, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def call_main(cli, argv: list[str]) -> tuple[int, bytes]:
    """``cli.main(argv)`` with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().encode("utf-8")


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))
