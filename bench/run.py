"""revbcd benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a revbcd checkout; the program is imported from its
``src`` directory, never from an installed copy.  Each set-up and each
measured loop runs in a fresh interpreter started by this script:

* set-up samples: ``SETUP_SAMPLES`` interpreters that import revbcd, build
  and compile what the workload needs and generate its inputs, then stop.
  ``setup_s`` is the median wall time from spawning one until it is ready,
  the measuring interpreter's own set-up included;
* the measuring interpreter sets up the same way and then runs workload
  cycles, warm, for ``--seconds`` seconds with tracing off (``--trace 0``),
  or alternating untraced and traced cycles (``--trace 1``), so the
  tracing overhead is measured in the same process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it record the run: seed, machine, commit, sample counts
and the workload's own figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_SAMPLES = 7
REFERENCE_LOOPS = 20_000  # about 5 ms of reference work between calls
RUN_LIMIT_S = 170  # every child is killed by then, so a run ends in time
READY = "ready"


def _import_program():
    """Import revbcd from this checkout's src directory, or fail."""
    sys.path.insert(0, str(SRC))
    import revbcd

    if Path(revbcd.__file__).resolve().parent != SRC / "revbcd":
        raise ImportError(f"revbcd imported from {revbcd.__file__}, not {SRC}")


def _make_workload(name: str, seed: int):
    import workloads  # imports revbcd, so only the child interpreters load it

    return workloads.WORKLOADS[name](seed)


def _work_dir(role: str) -> Path:
    path = OUT / f"work-{role}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- child roles ------------------------------------------------------------------


def child_setup(args) -> int:
    _import_program()
    work = _work_dir("setup")
    try:
        _make_workload(args.workload, args.seed).setup(work)
        print(READY, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def reference_kernel() -> int:
    """Fixed interpreter-bound work: dict updates, integer arithmetic and a
    loop, like the program's own hot paths.  Its time tracks how fast this
    shared machine runs Python at the moment."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_LOOPS):
        key = i % 97
        table[key] = table.get(key, 0) + (i * i) % 7
        acc += (i >> 3) & 5
    return acc


def _reference_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def _run_cycle(workload, before: float) -> tuple[list, float]:
    """Run one cycle, timing the reference kernel after every call; each
    call's `ref` is the mean of the kernel times just before and after it.
    Returns the cycle's operations and the last kernel time."""
    ops = []
    for op in workload.cycle():
        after = _reference_seconds()
        op.ref = (before + after) / 2
        before = after
        ops.append(op)
    return ops, before


def _loop(workload, seconds: float) -> list:
    cycles = []
    before = _reference_seconds()
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        ops, before = _run_cycle(workload, before)
        cycles.append(ops)
    return cycles


def _cycle_seconds(cycles) -> list[float]:
    return [sum(op.seconds for op in ops) for ops in cycles]


def _cycle_refs(cycles) -> list[float]:
    return [sum(op.refs for op in ops) for ops in cycles]


def child_measure(args) -> int:
    _import_program()
    work = _work_dir("measure")
    try:
        workload = _make_workload(args.workload, args.seed)
        workload.setup(work)
        print(READY, flush=True)
        if args.trace:
            result = _measure_traced(workload, args)
        else:
            result = _measure_plain(workload, args)
        final = list(workload.final_checks())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ops = [op for ops in result.pop("cycles") for op in ops] + final
    result["attempted"] = len(ops)
    result["failed"] = sum(not op.ok for op in ops)
    result["failed_steps"] = sorted({op.step for op in ops if not op.ok})
    print(json.dumps(result))
    return 0


def _measure_plain(workload, args) -> dict:
    import workloads

    cycles = _loop(workload, args.seconds)
    metrics = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cycle_p50_ref": statistics.median(_cycle_refs(cycles)),
        "items_per_ref": workloads.rate(cycles, workload.main_step, in_refs=True),
    }
    figures = workload.figures(cycles)
    figures["cycle_p50_ms"] = (workloads.median_ms(_cycle_seconds(cycles)), "ms")
    figures["items_per_s"] = (workloads.rate(cycles, workload.main_step), "1/s")
    figures["reference_ms"] = (
        workloads.median_ms([op.ref for ops in cycles for op in ops]), "ms")
    return {"cycles": cycles, "metrics": metrics, "figures": figures}


def _measure_traced(workload, args) -> dict:
    """Alternate untraced and traced cycles, so both see the same warm
    process and the difference between them is the tracing overhead."""
    import tracer as tracing
    from revbcd import simulator

    tracer = tracing.Tracer()
    plain, traced = [], []
    hits = misses = 0
    ref = _reference_seconds()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        ops, ref = _run_cycle(workload, ref)
        plain.append(ops)
        cache_before = simulator.compile_netlist.cache_info()
        tracer.install()
        try:
            ops, ref = _run_cycle(workload, ref)
        finally:
            tracer.uninstall()
        traced.append(ops)
        cache_after = simulator.compile_netlist.cache_info()
        hits += cache_after.hits - cache_before.hits
        misses += cache_after.misses - cache_before.misses
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    overhead = statistics.median(_cycle_refs(traced)) / statistics.median(_cycle_refs(plain)) - 1
    metrics = tracing.layer_values(
        tracer, len(traced), hits, misses, sum(_cycle_seconds(traced)), overhead)
    figures = {"trace.cycles_traced": (len(traced), "count"),
               "trace.spans_kept": (len(tracer.spans), "count"),
               "trace.spans_dropped": (tracer.dropped, "count")}
    return {"cycles": plain + traced, "metrics": metrics, "figures": figures}


# -- parent -----------------------------------------------------------------------


def _spawn(role: str, args) -> subprocess.Popen:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _wait_ready(proc: subprocess.Popen, started: float, deadline: float) -> float:
    wait = max(0.0, deadline - time.perf_counter())
    readable, _, _ = select.select([proc.stdout], [], [], wait)
    line = proc.stdout.readline().strip() if readable else ""
    ready = time.perf_counter()
    if line != READY:
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up failed in a fresh interpreter")
    return ready - started


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("benchmark child did not finish in time")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return out


def _setup_sample(args, deadline: float) -> float:
    started = time.perf_counter()
    proc = _spawn("setup", args)
    seconds = _wait_ready(proc, started, deadline)
    _finish(proc, deadline)
    return seconds


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args) -> int:
    if not (SRC / "revbcd" / "__init__.py").is_file():
        print(f"error: no revbcd sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup_samples = [] if args.trace else [
        _setup_sample(args, deadline) for _ in range(SETUP_SAMPLES - 1)
    ]
    started = time.perf_counter()
    proc = _spawn("measure", args)
    setup_samples.append(_wait_ready(proc, started, deadline))
    result = json.loads(_finish(proc, deadline).splitlines()[-1])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_samples)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "start_state": "fresh interpreter for each set-up sample and for the "
                       "measured loop; loop runs warm after set-up",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu": _cpu_model()},
        "commit": _commit(),
        "setup_samples": len(setup_samples),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_steps": result["failed_steps"],
    }
    print("run " + json.dumps(record))
    figures = dict(result["figures"])
    figures["failed_frac"] = (result["failed"] / result["attempted"], "ratio")
    for name, (value, unit) in sorted(figures.items()):
        print(f"figure {name} = {value:.6g} {unit}")
    units = _units(args.trace)
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


def _units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-sampled", "ledger-fold", "analyze-wide",
                                 "simulate-wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("run", "setup", "measure"), default="run",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role == "setup":
        return child_setup(args)
    if args.role == "measure":
        return child_measure(args)
    try:
        return run(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
