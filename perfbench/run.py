"""Benchmark for the uhlenbeck package: four workloads, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-points --seed 1 --seconds 16 --trace 0

Workloads: verify-points, nilpotent-scan, quiver-search, cli-tables (see
perfbench/README.md).  With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics.  The line before it is a detail record with every metric,
its unit and sample count, the input fingerprint and the pinned environment.
"""

from __future__ import annotations

import argparse
import compileall
import copy
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BENCHMARK = ROOT / "BENCHMARK.json"

LIBRARY_MODULES = ("core", "partitions", "bvariety", "calogero", "quiver", "ncalgebra", "ic", "serialize")
SETUP_REPEATS = 7
RUN_LIMIT_S = 170
REF_PROBE_S = 0.25e-3
WORKLOAD_NAMES = ("verify-points", "nilpotent-scan", "quiver-search", "cli-tables")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _pin_environment():
    """Re-exec once with a fixed hash seed, UHL_SEED unset and bytecode on."""
    want = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("UHL_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE"):
        want.pop(var, None)
    flags = sys.flags
    if want == dict(os.environ) and flags.hash_randomization == 0 and not (flags.optimize or flags.dont_write_bytecode):
        return
    if os.environ.get("PERFBENCH_PINNED") == "1":
        raise SystemExit("perfbench: could not pin the interpreter environment")
    want["PERFBENCH_PINNED"] = "1"
    os.execve(sys.executable, [sys.executable, *sys.argv], want)


def _environment_record() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "UHL_SEED": os.environ.get("UHL_SEED", "unset"),
        "bytecode_cache": "warm (compiled before any timing)",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def _forget_modules():
    for name in [n for n in sys.modules if n == "uhlenbeck" or n.startswith("uhlenbeck.")]:
        del sys.modules[name]


def _drop_modules():
    """Forget every imported ``uhlenbeck`` module and collect what it held, so
    the next timed call starts on a clean heap, as a new process would."""
    _forget_modules()
    gc.collect()


def _fresh_import(modules=LIBRARY_MODULES) -> SimpleNamespace:
    """Import the given ``uhlenbeck`` modules from scratch, dropping any
    earlier import, so module code and module-level caches start cold."""
    _forget_modules()
    mods = {m: importlib.import_module(f"uhlenbeck.{m}") for m in modules}
    package = Path(sys.modules["uhlenbeck"].__file__).resolve().parent
    if package != (SRC / "uhlenbeck").resolve():
        raise SystemExit(f"perfbench: imported uhlenbeck from {package}, not from {SRC}")
    return SimpleNamespace(**mods)


def _run_cli_command(argv: list[str]) -> tuple[int, bytes]:
    """Fresh import plus one command, as a new ``uhl`` process would run it."""
    import clitables

    return clitables.call_main(_fresh_import(("cli",)).cli, argv)


class _Clock:
    """Times calls in CPU time and reports them at a fixed reference speed.

    This host shares its cores with other tenants.  Their load slows this
    process by up to 2.5x, in stretches from a tenth of a second to minutes,
    and how much of the time it is slowed drifts from run to run.  Two things
    take that out.  First, a call is timed in process CPU time, so time
    spent waiting for a core while other processes run on it is left out;
    every timed call is single-threaded computation that does no I/O beyond
    reading installed files, so on an idle core its CPU time equals its wall
    time.  Second, the core itself runs slower while the host is busy, and
    CPU time slows with it.  So a fixed probe of ``Fraction`` arithmetic, the
    kind of work the program does, is timed in CPU time right before and
    right after each call, and the call's time is reported as
    ``cpu * REF_PROBE_S / probe``, with ``probe`` the mean of the two probes:
    its time at the speed where the probe takes REF_PROBE_S (the probe's time
    on an idle core of the 2-vCPU x86-64 host the benchmark was built on).
    A change to the program moves the call's CPU time and leaves the probe
    alone, so it moves the reported time in full.  Each call's wall time,
    CPU time and probe are kept for the detail record.
    """

    def __init__(self):
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.probes: list[float] = []

    @staticmethod
    def _probe() -> float:
        c0 = time.process_time()
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        return time.process_time() - c0

    def timed(self, fn):
        """Run ``fn()``; returns (time at reference speed, result)."""
        before = self._probe()
        t0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        probe = (before + self._probe()) / 2
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.probes.append(probe)
        return cpu * REF_PROBE_S / probe, result

    def record(self) -> dict:
        ps = sorted(self.probes)
        return {
            "ref_probe_ms": REF_PROBE_S * 1e3,
            "probe_ms": {q: ps[int(f * (len(ps) - 1))] * 1e3 for q, f in (("min", 0), ("p10", 0.1), ("p50", 0.5), ("p90", 0.9))},
            "calls": len(ps),
        }


# ---------------------------------------------------------------------------
# statistics


def _tail(latencies: list[float], pct: int) -> tuple[float, int]:
    """pct-th percentile (inclusive method) and the number of items above it."""
    cut = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return cut, len(latencies) - math.ceil(len(latencies) * pct / 100)


def _e2e(times, setups, rss_mb, tail_pct) -> dict:
    """End-to-end metrics from item latencies at the reference speed."""
    tail, beyond = _tail(times, tail_pct)
    n = len(times)
    return {
        "items_per_s": {"value": n / sum(times), "unit": "1/s", "samples": n},
        "item_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms", "samples": n},
        "item_tail_ms": {"value": tail * 1e3, "unit": "ms", "samples": n, "percentile": tail_pct, "items_beyond": beyond},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "samples": 1},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups)},
    }


def _raw_record(clock: _Clock, n_items: int) -> dict:
    """The timed items' unscaled wall and CPU times (the last ``n_items`` calls)."""
    wall, cpu = clock.wall[-n_items:], clock.cpu[-n_items:]
    return {
        "wall_items_per_s": n_items / sum(wall),
        "wall_item_p50_ms": statistics.median(wall) * 1e3,
        "cpu_items_per_s": n_items / sum(cpu),
        "cpu_item_p50_ms": statistics.median(cpu) * 1e3,
    }


def _per_kind_ms(kinds: list[str], latencies: list[float]) -> dict:
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(dt)
    return {k: {"items": len(v), "median_ms": statistics.median(v) * 1e3} for k, v in sorted(by_kind.items())}


def _run_cycles(run_one, pool_len: int, cycle: int, seconds: float):
    """Closed loop over whole cycles of the pool until ``seconds`` of wall
    time have passed; returns (pool indices run, latencies)."""
    order, latencies = [], []
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end or i % cycle:
        latencies.append(run_one(i % pool_len))
        order.append(i % pool_len)
        i += 1
    return order, latencies


def _fingerprint(inputs, golden=None) -> str:
    blob = json.dumps({"inputs": inputs, "golden": golden}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# per-layer metrics

def _layer_metrics(calls: Counter, self_s: dict, counts: Counter, extra: dict) -> dict:
    """Every per-layer metric, by name, with its unit."""
    import spans

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in spans.LAYERS:
        put(f"{layer}.calls", calls.get(layer, 0), "count")
        put(f"{layer}.self_s", self_s.get(layer, 0.0), "s")
    put("core.elim.cells", counts.get("core.elim.cells", 0), "count")
    put("core.matmul.mults", counts.get("core.matmul.mults", 0), "count")
    put("partitions.enum.items", counts.get("partitions.enum.items", 0), "count")
    triples = extra["triple_items"]
    put("bvariety.check.per_item", calls.get("bvariety.check", 0) / triples if triples else 0.0, "ratio")
    solvable = counts.get("bvariety.solvable.calls", 0)
    put("bvariety.fast_reject_ratio", counts.get("bvariety.solvable.fast_rejects", 0) / solvable if solvable else 0.0, "ratio")
    closures = calls.get("quiver.closure", 0)
    put("quiver.closure.useful_ratio", counts.get("quiver.closure.useful", 0) / closures if closures else 0.0, "ratio")
    put("ncalgebra.reduce_cache.growth", extra["reduce_cache_growth"], "count")
    put("cli.import_s", extra.get("cli_import_s", 0.0), "s")
    put("cli.output_bytes", extra.get("cli_output_bytes", 0), "bytes")
    layers_total = sum(self_s.values())
    put("trace.wall_s", extra["traced_wall_s"], "s")
    put("trace.unspanned_s", extra["unspanned_s"], "s")
    put("trace.layers_self_s", layers_total, "s")
    put("trace.overhead_ratio", extra["traced_s"] / extra["untraced_s"], "ratio")
    return m


# ---------------------------------------------------------------------------
# in-process workloads


class _Items:
    """Runs pool items one at a time and tallies the oracle's verdicts.

    Each run gets a fresh copy of its item, made outside the timed interval,
    so nothing the program stores on an input object carries over to the
    next run of that item when the pool wraps around.
    """

    def __init__(self, wl, U, items, clock):
        self.wl, self.U, self.items, self.clock = wl, U, items, clock
        self.attempted = self.failed = self.unknown = self.searches = 0
        self.rec = None
        self.span_walls: list[float] = []

    def __call__(self, idx: int) -> float:
        wl, item = self.wl, copy.deepcopy(self.items[idx])
        error = result = None
        start = time.perf_counter()
        try:
            run = (lambda: wl.run(self.U, item)) if self.rec is None else (lambda: self._traced(item))
            dt, result = self.clock.timed(run)
        except Exception as exc:  # an item that raises is counted as failed
            error, dt = exc, time.perf_counter() - start
        self.attempted += 1
        if error is None and wl.check(item, result):  # the oracle runs outside the timed interval
            if hasattr(wl, "unknowns"):
                u, n = wl.unknowns(item, result)
                self.unknown += u
                self.searches += n
        else:
            if not self.failed:
                print(f"perfbench: item {idx} ({wl.kind(item)}) failed", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
            self.failed += 1
        return dt

    def _traced(self, item):
        """One item as a root span; its wall time goes to ``span_walls``."""
        self.rec.begin_item(self.attempted)
        try:
            return self.wl.run(self.U, item)
        finally:
            self.span_walls.append(self.rec.end_item())


def _setup(wl, seed: int):
    """One set-up: a fresh import of every library module plus the seeded pool."""
    U = _fresh_import()
    return U, wl.build(U, random.Random(seed))


def _selftest(wl, U, items) -> int:
    """Run the first cycle; each checker must accept the real results and
    reject every deliberately wrong one."""
    tested = 0
    for item in items[: wl.cycle]:
        good = wl.run(U, item)
        if not wl.check(item, good):
            raise SystemExit(f"perfbench: self-test: a correct {wl.kind(item)} result was rejected")
        for bad in wl.corrupt(item, good):
            if wl.check(item, bad):
                raise SystemExit(f"perfbench: self-test: a wrong {wl.kind(item)} result was accepted")
            tested += 1
    return tested


def _run_in_process(args, env_record):
    import workloads

    wl = workloads.IN_PROCESS[args.workload]
    clock = _Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        dt, (U, items) = clock.timed(lambda: _setup(wl, args.seed))
        setups.append(dt)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": _fingerprint([wl.describe(it) for it in items]),
        "pool_items": len(items),
        "selftest_rejections": _selftest(wl, U, items),
        "environment": env_record,
    }
    runner = _Items(wl, U, items, clock)
    if not args.trace:
        order, times = _run_cycles(runner, len(items), wl.cycle, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = _e2e(times, setups, rss_mb, wl.tail_pct)
        detail["unscaled"] = _raw_record(clock, len(order))
    else:
        import spans

        order, plain = _run_cycles(runner, len(items), wl.cycle, args.seconds / 2)
        rec = runner.rec = spans.Recorder().install()
        cache_before = len(U.ncalgebra._reduce_cache)
        try:
            traced = [runner(idx) for idx in order]
        finally:
            rec.uninstall()
            runner.rec = None
        unspanned = rec.self_s.get(spans.ITEM, 0.0)
        extra = {
            "triple_items": sum(items[idx][0] == "triple" for idx in order),
            "reduce_cache_growth": len(U.ncalgebra._reduce_cache) - cache_before,
            "traced_wall_s": sum(runner.span_walls),
            "traced_s": sum(traced),
            "untraced_s": sum(plain),
            "unspanned_s": unspanned,
        }
        metrics = _layer_metrics(rec.calls, rec.layer_self_s(), rec.counts, extra)
        detail["trace_closure_error_s"] = sum(runner.span_walls) - unspanned - sum(rec.layer_self_s().values())
        times = traced
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{wl.name}-seed{args.seed}.json.gz"
        rec.write_spans(spans_file, {"workload": wl.name, "seed": args.seed, "fingerprint": detail["fingerprint"]})
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    detail["item_kinds"] = _per_kind_ms([wl.kind(items[idx]) for idx in order], times)
    detail["clock"] = clock.record()
    detail["failed_ratio"] = {"value": runner.failed / runner.attempted, "unit": "ratio", "samples": runner.attempted}
    if runner.searches:
        detail["unknown_ratio"] = {"value": runner.unknown / runner.searches, "unit": "ratio", "samples": runner.searches}
    return runner.attempted, runner.failed, metrics, detail


# ---------------------------------------------------------------------------
# cli-tables


def _run_cli(args, env_record):
    import clitables

    clock = _Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        _drop_modules()
        dt, _ = clock.timed(lambda: _fresh_import(("cli",)))
        setups.append(dt)
    golden = clitables.load_golden()
    rng = random.Random(args.seed)
    missing = [clitables.key(a) for a in clitables.all_commands() if clitables.key(a) not in golden]
    if missing:
        raise SystemExit(f"perfbench: no golden output for {missing}")
    failures = []

    def verify(argv, rc, stdout) -> bool:
        ok = rc == 0 and clitables.observed(ROOT, argv, stdout) == golden[clitables.key(argv)]
        if not ok and not failures:
            print(f"perfbench: {clitables.key(argv)!r} exited {rc} or differs from its golden output", file=sys.stderr)
        failures.append(not ok)
        return ok

    # self-test: the recorded output passes; one changed byte or a bad exit code fails
    probe = clitables.SHORT[0][0]
    rc, stdout = _run_cli_command(probe)
    if not verify(probe, rc, stdout):
        raise SystemExit("perfbench: self-test: a correct cli output was rejected")
    if verify(probe, rc, stdout[:-2] + b"!" + stdout[-1:]) or verify(probe, 1, stdout):
        raise SystemExit("perfbench: self-test: a wrong cli output was accepted")
    failures.clear()

    pool = [argv for _ in range(clitables.POOL_CYCLES) for argv in clitables.cycle(rng)]

    def run_one(idx: int) -> float:
        argv = pool[idx]
        clitables.clear_report_dir(ROOT)
        _drop_modules()
        dt, (rc, stdout) = clock.timed(lambda: _run_cli_command(argv))
        verify(argv, rc, stdout)
        return dt

    detail = {"workload": "cli-tables", "seed": args.seed, "trace": args.trace, "environment": env_record}
    if not args.trace:
        order, times = _run_cycles(run_one, len(pool), clitables.CYCLE_ITEMS, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = _e2e(times, setups, rss_mb, clitables.TAIL_PCT)
        detail["unscaled"] = _raw_record(clock, len(order))
    else:
        import spans

        order = list(range(clitables.CYCLE_ITEMS))
        untraced = sum(run_one(idx) for idx in order)
        rec = spans.Recorder()
        growth = out_bytes = 0
        imports, walls, times = [], [], []

        def traced_command(i, argv):
            rec.begin_item(i)
            try:
                t0 = time.perf_counter()
                cli = _fresh_import(("cli",)).cli
                imports.append(time.perf_counter() - t0)
                rec.install()
                try:
                    return clitables.call_main(cli, argv)
                finally:
                    rec.uninstall()
            finally:
                walls.append(rec.end_item())

        for i, idx in enumerate(order):
            argv = pool[idx]
            clitables.clear_report_dir(ROOT)
            _drop_modules()
            dt, (rc, stdout) = clock.timed(lambda: traced_command(i, argv))
            times.append(dt)
            verify(argv, rc, stdout)
            growth += len(sys.modules["uhlenbeck.ncalgebra"]._reduce_cache)
            out_bytes += len(stdout)
        unspanned = rec.self_s.get(spans.ITEM, 0.0)
        extra = {
            "triple_items": 0,
            "reduce_cache_growth": growth,
            "traced_wall_s": sum(walls),
            "traced_s": sum(times),
            "untraced_s": untraced,
            "unspanned_s": unspanned,
            "cli_import_s": statistics.median(imports),
            "cli_output_bytes": out_bytes,
        }
        metrics = _layer_metrics(rec.calls, rec.layer_self_s(), rec.counts, extra)
        detail["trace_closure_error_s"] = sum(walls) - unspanned - sum(rec.layer_self_s().values())
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-cli-tables-seed{args.seed}.json.gz"
        rec.write_spans(spans_file, {"workload": "cli-tables", "seed": args.seed})
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    commands = [clitables.key(pool[idx]) for idx in order]
    detail["fingerprint"] = _fingerprint(commands, {k: golden[k] for k in sorted(set(commands))})
    detail["item_kinds"] = _per_kind_ms(commands, times)
    detail["clock"] = clock.record()
    attempted, failed = len(failures), sum(failures)
    detail["failed_ratio"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    return attempted, failed, metrics, detail


# ---------------------------------------------------------------------------


def _out_of_time(signum, frame):
    raise TimeoutError(f"perfbench: run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "uhlenbeck" / "__init__.py").is_file():
        print(f"perfbench: no uhlenbeck sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    _pin_environment()
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(RUN_LIMIT_S)
    compileall.compile_dir(str(SRC / "uhlenbeck"), quiet=1)
    sys.path.insert(0, str(SRC))
    env_record = _environment_record()

    os.chdir(ROOT)  # the report command writes under .perfbench_out/ relative to here
    if args.workload == "cli-tables":
        attempted, failed, metrics, detail = _run_cli(args, env_record)
    else:
        attempted, failed, metrics, detail = _run_in_process(args, env_record)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    detail["metrics"] = metrics
    print(json.dumps({"detail": detail}, sort_keys=True))
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]} for name in wanted},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
