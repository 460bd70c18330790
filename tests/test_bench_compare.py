"""``tools/bench_compare.py``: a checkout compared with itself, and the summary rules."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_compare.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_checkout_compared_with_itself_reads_one_fingerprint(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = [sys.executable, str(TOOL), str(ROOT), "--pairs", "1", "--seconds", "0.2", "--workload", "quiver-search", "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["base"]["source"] == record["head"]["source"] == "directory"
    assert record["settings"] == {"pairs": 1, "seconds": 0.2, "seed": 1}
    assert {"python", "nproc", "loadavg_start", "loadavg_end"} <= set(record["environment"])
    (name, w), = record["workloads"].items()
    assert name == "quiver-search" and w["ok"] and w["comparable"] and w["rule"] == "equal input fingerprints"
    assert len(w["fingerprints"]) == 1
    (pair,) = w["pairs"]
    assert pair["first"] == "base" and pair["base"]["correct"] and pair["head"]["correct"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(w["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        m = w["metrics"][metric["name"]]
        assert m["bound"] == metric["bound"] and m["pairs"] == 1 and m["head_wins"] in (0, 1)
        assert m["base"]["median"] == pair["base"]["metrics"][metric["name"]]
        assert m["ratio"] == m["head"]["median"] / m["base"]["median"]
    assert "| quiver-search | items_per_s (1/s) |" in proc.stdout


def test_summary_counts_wins_by_the_better_direction_and_flags_the_bound():
    tool = _tool()
    spec = {"end_to_end": [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                           {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}
    pairs = [{"base": {"metrics": {"items_per_s": b, "item_p50_ms": b}}, "head": {"metrics": {"items_per_s": h, "item_p50_ms": h}}}
             for b, h in [(10, 14), (11, 13), (12, 11), (10, 16)]]
    summary = tool._summary(pairs, spec)
    up, down = summary["items_per_s"], summary["item_p50_ms"]
    assert up["head_wins"] == 3 and down["head_wins"] == 1
    assert up["base"] == {"q1": 10, "median": 10.5, "q3": 11.25} and up["head"]["median"] == 13.5
    assert up["ratio"] == down["ratio"] == 13.5 / 10.5
    # 13.5 / 10.5 is 29% more: fine for a higher-is-better metric, past the bound for a lower-is-better one
    assert not up["worse_than_bound"] and down["worse_than_bound"]
    assert tool._quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}
