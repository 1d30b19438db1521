"""Runs one workload against a real Host and reports its metrics.

With tracing off (``--trace 0``) the run reports the end-to-end metrics.
With tracing on it reports the per-layer metrics; its rounds alternate
untraced and traced, so the same run also gives the tracing overhead.  The
last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .spans import Tracer
from .workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = Path(__file__).resolve().parent / ".work"

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "idle_tick_p50_ms": "ms",
    "swap_tick_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "chain.unit_calls": "count/op",
    "chain.handler_us": "us",
    "chain.overhead_per_unit_us": "us",
    "chain.handoff_us": "us",
    "contract.copy_us": "us",
    "contract.copy_calls": "count/call",
    "contract.validate_us": "us",
    "contract.validate_calls": "count/call",
    "contract.verify_payload_us": "us",
    "contract.bytes_hashed": "B/scan",
    "contract.parse_manifest_us": "us",
    "registry.scan_ms": "ms",
    "registry.bundles_scanned": "count/scan",
    "registry.useful_rehash_ratio": "ratio",
    "registry.activate_ms": "ms",
    "registry.deactivate_ms": "ms",
    "loading.load_module_ms": "ms",
    "loading.modules_loaded": "count",
    "host.dispatch_self_us": "us",
    "host.tick_self_ms": "ms",
    "diagnostics.emit_p50_us": "us",
    "diagnostics.emit_p90_us": "us",
    "diagnostics.lines": "count/op",
    "app.op_self_ms": "ms",
    "bench.tick_lag_ms": "ms",
    "bench.tracing_overhead_pct": "%",
}


@dataclass
class OpLog:
    start: float = 0.0
    # (completion time, latency, output correct) per op, in completion order
    ops: list[tuple[float, float, bool]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not good for _, _, good in self.ops)

    @property
    def latencies(self) -> list[float]:
        return [lat for _, lat, _ in self.ops]


@dataclass
class TickLog:
    idle: list[float] = field(default_factory=list)
    swap: list[float] = field(default_factory=list)
    lag: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    count: int = 0
    # (tick start, tick end, churned version after it) per changing tick
    history: list[tuple[float, float, str | None]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(values) -> float:
    return statistics.median(values) if len(values) else 0.0


MAX_WINDOWS = 10

# A run is this many rounds of set-up, dispatch and (unless they run
# beside dispatch) ticks, so that slow spells of a shared machine fall on
# every metric alike instead of on whichever phase they hit.
ROUNDS = 6


def window_count(n: int, q: float) -> int:
    """Windows of consecutive samples, each with at least ten samples
    beyond the q-quantile, and at most MAX_WINDOWS of them."""
    return max(1, min(MAX_WINDOWS, n // round(10 / (1 - q))))


def windowed_percentile(values: list[float], q: float) -> float:
    """Median over consecutive windows of each window's q-quantile, so a
    burst of noise from outside the process moves one window, not the
    result."""
    n = len(values)
    w = window_count(n, q)
    return median([percentile(values[i * n // w:(i + 1) * n // w], q) for i in range(w)])


def windowed_rate(rounds: list["OpLog"]) -> float:
    """Median over windows of correct ops per second.  Each round's ops are
    cut into windows as for p50; a window's rate counts from the end of the
    window before it in the same round."""
    rates = []
    for log in rounds:
        n = len(log.ops)
        if not n:
            continue
        w = window_count(n, 0.5)
        prev_end = log.start
        for i in range(w):
            chunk = log.ops[i * n // w:(i + 1) * n // w]
            end = chunk[-1][0]
            rates.append(sum(good for _, _, good in chunk) / (end - prev_end))
            prev_end = end
    return median(rates)


def _note(errors: list[str], text: str) -> None:
    if len(errors) < 5:
        errors.append(text)


def run_clients(wl: Workload, rngs, seconds: float, ticks: TickLog | None, tracer: Tracer | None) -> OpLog:
    """Closed-loop clients for ``seconds``; the calling thread runs the
    open-loop tick schedule meanwhile when ``ticks`` is given."""
    log = OpLog(start=time.perf_counter())
    lock = threading.Lock()
    deadline = log.start + seconds

    def client(rng: random.Random) -> None:
        samples, errors = [], []
        while time.perf_counter() < deadline:
            t0 = time.perf_counter()
            span = tracer.span("app.op") if tracer else contextlib.nullcontext()
            try:
                with span:
                    request = wl.request(rng)
                    t0 = time.perf_counter()
                    result = wl.call(request)
                    t1 = time.perf_counter()
                good = wl.check(request, result, t0, t1)
                if not good:
                    _note(errors, f"wrong output: {str(result)[:200]}")
            except Exception as exc:  # a raising op is a failed op, not a crash
                t1 = time.perf_counter()
                good = False
                _note(errors, f"{type(exc).__name__}: {exc}")
            samples.append((time.perf_counter(), t1 - t0, good))
        with lock:
            log.ops.extend(samples)
            log.errors.extend(errors)

    threads = [threading.Thread(target=client, args=(rng,), name=f"bench-client-{i}") for i, rng in enumerate(rngs)]
    for t in threads:
        t.start()
    try:
        if ticks is not None:
            run_ticks(wl, deadline, ticks)
    finally:
        for t in threads:
            t.join()
    log.ops.sort()
    return log


def run_ticks(wl: Workload, deadline: float, log: TickLog) -> None:
    """Tick on a fixed schedule until ``deadline``; every second tick
    follows a file change to the churned unit.  A tick is timed from when it
    was due, so a late schedule shows in the tick time."""
    period = wl.tick_period_s
    due = time.perf_counter() + period
    while due <= deadline:
        expected = wl.churn.apply() if log.count % 2 == 1 else None
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        t0 = time.perf_counter()
        try:
            report = wl.host.hot_swap_cycle()
            if expected is None:
                good = not report.changed and not report.rejects
            else:
                good = (
                    (report.activated, report.deactivated) == expected
                    and report.end_epoch == report.start_epoch + 1
                    and not report.rejects
                )
            if not good:
                _note(log.errors, f"tick {log.count}: expected {expected}, got {report}")
        except Exception as exc:  # a raising tick is a failed tick
            good = False
            _note(log.errors, f"tick {log.count}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        (log.idle if expected is None else log.swap).append(t1 - due)
        log.lag.append(t0 - due)
        if expected is not None:
            log.history.append((t0, t1, wl.churn.active))
        log.attempted += 1
        log.failed += not good
        log.count += 1
        due += period


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    faulty: bool = False,
) -> dict:
    """Run one workload; return the result object and the report details."""
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    wl: Workload | None = None
    host = None
    try:
        wl = WORKLOADS[name](work, seed, tiny=tiny, faulty=faulty)
        rngs = [random.Random(seed * 1009 + i + 1) for i in range(wl.clients)]
        setup_times: list[float] = []
        ticks = TickLog()
        ops: list[tuple[bool, OpLog]] = []
        for r in range(ROUNDS):
            # traced runs alternate untraced and traced rounds, so drift
            # over the run hits both sides of the tracing overhead alike
            traced = tracer is not None and r % 2 == 1
            if traced:
                tracer.install()
            elif tracer:
                tracer.uninstall()
            for _ in range(wl.setup_reps):
                if host is not None:
                    host.stop()
                with tracer.span("bench.setup") if traced else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    host = wl.new_host()
                    host.start()
                    setup_times.append(time.perf_counter() - t0)
            wl.attach(host)
            log = run_clients(
                wl, rngs, seconds * wl.op_share / ROUNDS,
                ticks if wl.concurrent_ticks else None,
                tracer if traced else None,
            )
            ops.append((traced, log))
            if not wl.concurrent_ticks:
                run_ticks(wl, time.perf_counter() + seconds * (1 - wl.op_share) / ROUNDS, ticks)
        host.stop()
        if tracer:
            tracer.uninstall()

        late_failures = wl.final_failures(ticks.history)
        attempted = sum(len(log.ops) for _, log in ops) + ticks.attempted
        failed = sum(log.failed for _, log in ops) + ticks.failed + late_failures
        errors = [e for _, log in ops for e in log.errors] + ticks.errors
        if late_failures:
            errors.append(f"{late_failures} dispatches saw versions of no single epoch")

        if tracer:
            metrics, counts = per_layer_metrics(tracer, ops, ticks)
        else:
            metrics, counts = end_to_end_metrics([log for _, log in ops], ticks, setup_times)
        units = PER_LAYER if tracer else END_TO_END
        return {
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            },
            "samples": counts,
            "errors": errors[:10],
            "meta": {
                "workload": name,
                "seed": seed,
                "seconds": seconds,
                "trace": int(trace),
                "nproc": len(os.sched_getaffinity(0)),
                "machine_cpus": os.cpu_count(),
                "python": platform.python_version(),
                "commit": git_commit(ROOT),
                "client_threads": wl.clients,
                "op_loop": "closed",
                "tick_loop": f"open, every {wl.tick_period_s * 1000:g} ms"
                + (", concurrent with dispatch" if wl.concurrent_ticks else ", after dispatch"),
                "rounds": ROUNDS,
                "setup_reps": len(setup_times),
            },
        }
    finally:
        if tracer:
            tracer.uninstall()
        if host is not None:
            host.stop()
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def end_to_end_metrics(rounds: list[OpLog], ticks: TickLog, setup_times) -> tuple[dict, dict]:
    latencies = [lat for log in rounds for lat in log.latencies]
    metrics = {
        "op_p50_ms": windowed_percentile(latencies, 0.5) * 1e3,
        "op_p90_ms": windowed_percentile(latencies, 0.9) * 1e3,
        "ops_per_s": windowed_rate(rounds),
        "idle_tick_p50_ms": windowed_percentile(ticks.idle, 0.5) * 1e3,
        "swap_tick_p50_ms": windowed_percentile(ticks.swap, 0.5) * 1e3,
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n_ops = len(latencies)

    def count(n: int, q: float) -> str:
        return f"{n} in {window_count(n, q)} windows"

    counts = {
        "op_p50_ms": count(n_ops, 0.5),
        "op_p90_ms": count(n_ops, 0.9),
        "ops_per_s": f"{n_ops} in {sum(window_count(len(log.ops), 0.5) for log in rounds)} windows",
        "idle_tick_p50_ms": count(len(ticks.idle), 0.5),
        "swap_tick_p50_ms": count(len(ticks.swap), 0.5),
        "setup_s": len(setup_times),
    }
    return metrics, counts


def per_layer_metrics(tracer: Tracer, ops, ticks: TickLog) -> tuple[dict, dict]:
    agg = tracer.agg
    under = agg.under
    rc = "chain.run_chain"

    def inside(name: str) -> tuple[int, float]:
        count, total = under.get((rc, name), (0, 0.0))
        return count, total

    n_ops = len(agg.dur["app.op"])
    calls, _ = inside("chain.call_unit")
    per_call = 1e6 / calls if calls else 0.0
    chain_total = sum(agg.dur[rc])
    handler = inside("loading.execute")[1] + inside("loading.next")[1]
    copies, copy_s = inside("contract.deepcopy")
    validations, validate_s = inside("contract.validate")
    emit_s = inside("diagnostics.emit")[1]
    counters = agg.counters
    scans = counters["scans"] or 1
    emits = agg.dur["diagnostics.emit"]
    traced = [log for t, log in ops if t]
    untraced = [log for t, log in ops if not t]
    p50_traced = median([x for log in traced for x in log.latencies])
    p50_untraced = median([x for log in untraced for x in log.latencies])
    metrics = {
        "chain.unit_calls": calls / n_ops if n_ops else 0.0,
        "chain.handler_us": handler * per_call,
        "chain.overhead_per_unit_us": (chain_total - handler) * per_call,
        "chain.handoff_us": (chain_total - handler - copy_s - validate_s - emit_s) * per_call,
        "contract.copy_us": copy_s * per_call,
        "contract.copy_calls": copies / calls if calls else 0.0,
        "contract.validate_us": validate_s * per_call,
        "contract.validate_calls": validations / calls if calls else 0.0,
        "contract.verify_payload_us": median(agg.dur["contract.verify_payload"]) * 1e6,
        "contract.bytes_hashed": counters["bytes_hashed"] / scans,
        "contract.parse_manifest_us": median(agg.dur["contract.parse_manifest"]) * 1e6,
        "registry.scan_ms": median(agg.dur["registry.scan"]) * 1e3,
        "registry.bundles_scanned": counters["bundles_scanned"] / scans,
        "registry.useful_rehash_ratio": counters["useful_rehash"] / (counters["bundles_hashed"] or 1),
        "registry.activate_ms": median(agg.dur["registry.activate"]) * 1e3,
        "registry.deactivate_ms": median(agg.dur["registry.deactivate"]) * 1e3,
        "loading.load_module_ms": median(agg.dur["loading.load_module"]) * 1e3,
        "loading.modules_loaded": float(len(agg.dur["loading.load_module"])),
        "host.dispatch_self_us": median(agg.self_time["host.dispatch"]) * 1e6,
        "host.tick_self_ms": median(agg.self_time["host.tick"]) * 1e3,
        "diagnostics.emit_p50_us": median(emits) * 1e6,
        "diagnostics.emit_p90_us": percentile(emits, 0.9) * 1e6,
        "diagnostics.lines": under.get(("app.op", "diagnostics.emit"), (0, 0.0))[0] / n_ops if n_ops else 0.0,
        "app.op_self_ms": median(agg.op_outside_host) * 1e3,
        "bench.tick_lag_ms": median(ticks.lag) * 1e3,
        "bench.tracing_overhead_pct": (p50_traced / p50_untraced - 1) * 100 if p50_untraced else 0.0,
    }
    counts = {
        "ops_traced": n_ops,
        "unit_calls": calls,
        "scans": int(counters["scans"]),
        "activations": len(agg.dur["registry.activate"]),
        "deactivations": len(agg.dur["registry.deactivate"]),
        "emits": len(emits),
        "ticks": len(ticks.lag),
        "spans": agg.spans,
        "min_self_us": agg.min_self * 1e6,
    }
    return metrics, counts


def git_commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else ``unknown``.
    Without a ``.git`` of its own git is not run at all: it would search the
    parent directories."""
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_report(out: dict) -> None:
    result = out["result"]
    print(f"# scpa-host benchmark {json.dumps(out['meta'], sort_keys=True)}")
    for key, metric in result["metrics"].items():
        n = out["samples"].get(key)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"{key:32s} {metric['value']:14.4f} {metric['unit']}{suffix}")
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{'failed_frac':32s} {failed_frac:14.4f} ratio  ({result['failed']} of {result['attempted']})")
    print(f"# samples {json.dumps(out['samples'], sort_keys=True)}")
    for error in out["errors"]:
        print(f"# error: {error}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The whole process runs on one CPU, so the figures describe a
    # single-CPU host.  The host is GIL-bound Python, and unpinned on a
    # two-vCPU VM, GIL handoffs between threads on different CPUs put whole
    # runs into fast or slow regimes: five unpinned 40-second chain_small
    # runs spread by 41-47% of the median between quartiles on op latency
    # and throughput.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(out)
    sys.stdout.flush()
    return 0
