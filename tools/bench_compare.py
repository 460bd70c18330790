"""Compare the benchmark of two source trees, pair by pair, and write a BENCH file.

Usage (from the repository root):

    python3 tools/bench_compare.py BASE [--head HEAD] [--pairs 10] [--seconds 4]
                                    [--seed 1] [--workload NAME ...] [--out BENCH.json]

BASE and HEAD are each a directory holding a checkout (with its own
``perfbench/run.py``) or a git revision of this repository, which is exported
with ``git archive`` into a temporary directory.  HEAD defaults to the
checkout this script lives in, uncommitted edits included.  Each tree runs
its own ``perfbench/run.py``, since ``run.py`` benchmarks only the sources
next to it.  Runs are sequential, and each pair alternates which side runs
first.

Two sides are comparable on an in-process workload when their input
fingerprints match.  The cli-tables fingerprint changes with run length, so
there the two trees must hold byte-identical ``perfbench/golden.json`` and
``perfbench/clitables.py`` instead; the rule used is recorded.

The JSON written to --out holds both commits, the settings, nproc, the
Python version and the load average before and after, every run's metrics,
and per workload and metric: both sides' medians and quartiles, the number
of pairs in which HEAD was better, and the HEAD / BASE ratio of the medians
next to the metric's bound from ``BENCHMARK.json``.  A markdown table of the
same goes to stdout.  The exit status is 1 when a run fails, reads
``"correct": false`` or the sides are not comparable, else 0.

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("verify-points", "nilpotent-scan", "quiver-search", "cli-tables")
CLI_FILES = ("perfbench/golden.json", "perfbench/clitables.py")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base", metavar="BASE", help="a checkout directory or a git revision")
    p.add_argument("--head", help="a checkout directory or a git revision (default: this checkout)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=WORKLOADS, help="repeat for several (default: all four)")
    p.add_argument("--out", type=Path, help="where to write the JSON record")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be at least 1 and --seconds positive")
    return args


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def _commit(tree: Path) -> dict:
    """The commit a checkout is at and whether its sources differ from it, if it is a git checkout."""
    try:
        sha = _git("rev-parse", "HEAD", cwd=tree)
        dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json", cwd=tree))
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": sha, "dirty": dirty}


def _tree(spec: str | None, scratch: Path, name: str) -> tuple[Path, dict]:
    """(directory, description) of a side: a checkout as it is (None for this one), or a
    revision exported by git archive."""
    path = ROOT if spec is None else Path(spec)
    if (path / "perfbench" / "run.py").is_file():
        return path.resolve(), {"spec": spec or "this checkout", "source": "directory", **_commit(path)}
    sha = _git("rev-parse", "--verify", f"{spec}^{{commit}}")
    blob = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True).stdout
    out = scratch / name
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(out, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return out, {"spec": spec, "source": "git archive", "commit": sha, "dirty": False}


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run: its last line (the end-to-end metrics) and its fingerprint."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        final, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    except (IndexError, ValueError, KeyError):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail}"}
    metrics = {name: m["value"] for name, m in final["metrics"].items()}
    ok = final["correct"] and proc.returncode == 0
    return {"ok": ok, "correct": final["correct"], "attempted": final["attempted"], "failed": final["failed"],
            "fingerprint": detail.get("fingerprint"), "metrics": metrics}


def _quartiles(xs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"q1": q1, "median": median, "q3": q3}


def _summary(pairs: list[dict], spec: dict) -> dict:
    """Per metric of BENCHMARK.json's end-to-end list: both sides' quartiles, HEAD's wins and the ratio."""
    out = {}
    for metric in spec["end_to_end"]:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
        sides = {"base": _quartiles(base), "head": _quartiles(head)}
        ratio = sides["head"]["median"] / sides["base"]["median"] if sides["base"]["median"] else None
        worse = ratio is not None and (ratio < 1 - bound if higher else ratio > 1 + bound)
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": bound, **sides,
                     "head_wins": wins, "pairs": len(pairs), "ratio": ratio, "worse_than_bound": worse}
    return out


def _comparable(workload: str, pairs: list[dict], trees: dict) -> dict:
    if workload == "cli-tables":
        same = all((trees["base"] / f).read_bytes() == (trees["head"] / f).read_bytes() for f in CLI_FILES)
        return {"rule": "identical " + " and ".join(CLI_FILES), "comparable": same}
    prints = {run["fingerprint"] for p in pairs for run in (p["base"], p["head"])}
    return {"rule": "equal input fingerprints", "comparable": len(prints) == 1, "fingerprints": sorted(prints)}


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def table(record: dict) -> str:
    """Markdown: one row per workload and metric, HEAD against BASE."""
    lines = [
        f"bench_compare: base {record['base']['spec']} ({(record['base']['commit'] or '?')[:12]}), "
        f"head {record['head']['spec']} ({(record['head']['commit'] or '?')[:12]}"
        f"{', with uncommitted edits' if record['head']['dirty'] else ''}), "
        f"{record['settings']['pairs']} pair(s) of {record['settings']['seconds']} s, seed {record['settings']['seed']}",
        "",
        "| workload | metric | base median [q1, q3] | head median [q1, q3] | head / base | head better | bound |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, w in record["workloads"].items():
        if "metrics" not in w:
            lines.append(f"| {workload} | run failed: {w['error']} | | | | | |")
            continue
        note = "" if w["comparable"] else " (not comparable)"
        for name, m in w["metrics"].items():
            ratio = "n/a" if m["ratio"] is None else _fmt(m["ratio"]) + (" worse than bound" if m["worse_than_bound"] else "")
            lines.append(
                f"| {workload}{note} | {name} ({m['unit']}) | {_fmt(m['base']['median'])} [{_fmt(m['base']['q1'])}, {_fmt(m['base']['q3'])}]"
                f" | {_fmt(m['head']['median'])} [{_fmt(m['head']['q1'])}, {_fmt(m['head']['q3'])}]"
                f" | {ratio} | {m['head_wins']} of {m['pairs']} | ±{m['bound']:.0%} |"
            )
    return "\n".join(lines)


def compare(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as scratch:
        (base, base_info), (head, head_info) = (_tree(s, Path(scratch), n) for s, n in ((args.base, "base"), (args.head, "head")))
        trees = {"base": base, "head": head}
        record = {
            "tool": "tools/bench_compare.py",
            "argv": sys.argv[1:],
            "base": base_info,
            "head": head_info,
            "settings": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed},
            "environment": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
                "loadavg_start": list(os.getloadavg()),
            },
            "workloads": {},
        }
        for workload in args.workload or WORKLOADS:
            pairs = []
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], workload, args.seed, args.seconds)
                pairs.append(pair)
            failed = [p[s]["error"] for p in pairs for s in ("base", "head") if "error" in p[s]]
            entry = {"pairs": pairs, "ok": not failed and all(p[s]["ok"] for p in pairs for s in ("base", "head"))}
            if failed:
                entry["error"] = failed[0]
            else:
                entry.update(_comparable(workload, pairs, trees), metrics=_summary(pairs, spec))
            record["workloads"][workload] = entry
        record["environment"]["loadavg_end"] = list(os.getloadavg())
    return record


def main(argv=None) -> int:
    args = _parse(argv)
    record = compare(args)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(table(record))
    return 0 if all(w["ok"] and w.get("comparable") for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
