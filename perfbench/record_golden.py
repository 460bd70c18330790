"""Record the golden outputs of the cli-tables commands into golden.json.

Run from the repository root: ``python3 perfbench/record_golden.py``.  The
recorded digests are what every cli-tables run compares against, so record
them only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import clitables

ROOT = clitables.HERE.parent


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.pop("UHL_SEED", None)
    golden = {}
    for argv in clitables.all_commands():
        clitables.clear_report_dir(ROOT)
        rc, stdout = clitables.run_command(ROOT, env, argv)
        if rc != 0:
            print(f"{clitables.key(argv)!r} exited {rc}", file=sys.stderr)
            return 1
        golden[clitables.key(argv)] = clitables.observed(ROOT, argv, stdout)
    clitables.clear_report_dir(ROOT)
    Path(clitables.GOLDEN).write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(golden)} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
