"""Run one benchmark workload (or all of them) and report its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wordcount-reads --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` splits the window into alternating untraced and traced
segments and reports the per-layer metrics, including the tracing
overhead as the ratio of the traced to the untraced median call latency.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by
name with its unit.  The exit code is 0 when every check passed, 1 when
an output was wrong, and 2 when the program under test cannot be found.

Each run also writes ``perfbench/out/<workload>-seed<seed>-trace<t>/``:
``result.json`` (metrics, counts, host fingerprint, git SHA, seed) and,
for a traced run, ``spans.jsonl.gz`` (name, start, end, parent, op per
span) and ``layers.json`` (the per-layer table).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / "out"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = {"wordcount-reads": 3, "product-serving": 9}
#: ``recover`` runs in each of the two recovery processes, as (untimed,
#: timed); ``recover_s`` is the median of all timed ones.  The untimed
#: one takes lazy imports and cold file reads off the first timed run,
#: where a run is short enough to afford it.
RECOVERIES = {
    "wordcount-reads": (0, 1),
    "product-serving": (1, 8),
}
#: Untimed calls before the window, so lazy set-up is done.
WARMUP_CALLS = 50
#: A traced run alternates this many untraced and traced segment pairs,
#: so drift in host speed affects both sides of the overhead ratio alike.
TRACE_PAIRS = 5

END_TO_END_UNITS = {
    "step_p50_us": "us",
    "step_p99_us": "us",
    "changes_per_s": "1/s",
    "setup_s": "s",
    "recover_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "lang.infer_ms": "ms",
    "derive.derive_ms": "ms",
    "optimize.optimize_ms": "ms",
    "compile.compile_ms": "ms",
    "incremental.initialize_s": "s",
    "runtime.durability.initialize_ms": "ms",
    "data.oplus_us": "us",
    "data.pmap.entries_copied_per_op": "count",
    "client.read_us": "us",
    "incremental.engine.self_us": "us",
    "incremental.caching.self_us": "us",
    "semantics.thunks_forced_per_op": "count",
    "semantics.primitive_calls_per_op": "count",
    "runtime.supervisor.self_us": "us",
    "runtime.supervisor.coalesced_ratio": "ratio",
    "runtime.resilience.self_us": "us",
    "runtime.durability.self_us": "us",
    "persistence.codec.encode_us": "us",
    "persistence.journal.append_us": "us",
    "persistence.journal.bytes_per_row": "bytes",
    "runtime.telemetry.self_us": "us",
    "observability.self_us": "us",
    "observability.records_per_op": "count",
    "observability.spans_per_op": "count",
    "persistence.snapshot.write_ms": "ms",
    "persistence.snapshot.writes": "count",
    "persistence.recovery.records_replayed": "count",
    "persistence.codec.decode_us": "us",
    "trace.overhead_ratio": "ratio",
}


class Window:
    """Latencies and counts of the client calls in one timed window."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.rows = 0
        self.failures = 0
        self.wall_s = 0.0

    def changes_per_s(self) -> float:
        return self.rows / self.wall_s

    def summary(self) -> Dict[str, float]:
        return {
            "samples": len(self.latencies),
            "step_p50_us": self.p50_us(),
            "step_p99_us": self.p99_us(),
            "step_mean_us": statistics.fmean(self.latencies) * 1e6,
            "changes_per_s": self.changes_per_s(),
        }

    def extend(self, other: "Window") -> None:
        self.latencies.extend(other.latencies)
        self.rows += other.rows
        self.failures += other.failures
        self.wall_s += other.wall_s

    def p50_us(self) -> float:
        return statistics.median(self.latencies) * 1e6

    def p99_us(self) -> float:
        ordered = sorted(self.latencies)
        return ordered[max(0, -(-99 * len(ordered) // 100) - 1)] * 1e6


def read_output(runtime: Any, word: Any) -> Tuple[Any, Any]:
    """One client read: take the output, look up one word's count."""
    output = runtime.output
    return output, output.get(word, 0)


def drive(workload: Any, runtime: Any, seconds: float, recorder: Any = None,
          calls: Optional[int] = None) -> Window:
    """Run the closed loop for ``seconds`` (or exactly ``calls`` calls)."""
    window = Window()
    clock = time.perf_counter
    read = read_output
    if recorder is not None:
        read = recorder.wrap("client.read", read_output)
    began = clock()
    deadline = began + seconds
    index = 0
    while (index < calls) if calls is not None else (clock() < deadline):
        request = workload.prepare()
        if recorder is not None:
            recorder.op = recorder.ops
            recorder.ops += 1
            span = recorder.open("client.call")
        start = clock()
        response = workload.execute(runtime, request, read)
        window.latencies.append(clock() - start)
        if recorder is not None:
            recorder.close(span)
            recorder.op = -1
        result = workload.check(request, response)
        window.rows += result.rows
        window.failures += result.failures
        index += 1
    window.wall_s = clock() - began
    return window


def set_up(workload: Any, registry: Any, directory: Path, recorder: Any) -> Tuple[Any, float]:
    """Construct the program and its stack and initialize it (timed)."""
    if recorder is not None:
        recorder.install_setup()
    began = time.perf_counter()
    runtime = workload.build(registry, str(directory))
    if recorder is not None:
        recorder.install_stack(runtime, setup=True)
    runtime.initialize(*workload.inputs)
    elapsed = time.perf_counter() - began
    if recorder is not None:
        recorder.uninstall()
    return runtime, elapsed


def recover_in_child(name: str, seed: int, directory: Path, part: int,
                     trace: bool) -> Dict[str, Any]:
    """Run part ``part`` of the recovery phase in a fresh process.

    A restart after a crash recovers in a new process, so ``recover`` is
    timed in one: its heap holds nothing of the serving run, and its
    memory stays out of the serving run's ``peak_rss_mb``.  Part 1
    journals the rows first; part 2 runs after the timed window, so the
    timed recoveries sample the host at two moments.
    """
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", name, "--seed", str(seed), "--trace", str(int(trace)),
         "--recovery-dir", str(directory), "--recovery-part", str(part)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"recovery part {part} failed:\n{child.stderr}")
    return json.loads(child.stdout.splitlines()[-1])


def recovery_part(name: str, directory: Path, part: int, trace: bool) -> Dict[str, Any]:
    """The child side of ``recover_in_child``.

    ``directory`` holds ``stream.pickle``, the recovery stream the
    parent wrote.  Part 1 journals its rows through a durable stack and
    pickles the live output; each part then runs ``recover`` as
    ``RECOVERIES`` says and compares every recovered output with it.
    """
    from repro.persistence.recovery import recover
    from repro.plugins.registry import standard_registry
    from repro.runtime import INCREMENTAL

    from layers import Recorder
    from workloads import durability_policy

    registry = standard_registry()
    journal = directory / "journal"
    attempted = failed = 0
    if part == 1:
        stream = pickle.loads((directory / "stream.pickle").read_bytes())
        runtime = stream.build(registry, str(journal))
        runtime.initialize(*stream.inputs)
        for batch in stream.batches():
            outcomes = runtime.apply_rows(batch)
            attempted += 1
            failed += any(outcome != INCREMENTAL for outcome in outcomes)
        runtime.close()
        attempted += 1
        failed += not stream.matches(runtime.output)
        (directory / "live.pickle").write_bytes(pickle.dumps(runtime.output))
    live = pickle.loads((directory / "live.pickle").read_bytes())
    untimed, timed = RECOVERIES[name]
    times, decode_s, replayed = [], [], 0
    for rep in range(untimed + timed):
        recorder = Recorder() if trace and rep >= untimed else None
        if recorder is not None:
            recorder.install_recovery()
        began = time.perf_counter()
        result = recover(str(journal), registry, policy=durability_policy())
        elapsed = time.perf_counter() - began
        if rep >= untimed:
            times.append(elapsed)
        if recorder is not None:
            recorder.uninstall()
            decode_s.append(
                recorder.totals().get("persistence.codec.decode", {}).get(
                    "inclusive_s", 0.0
                )
            )
        replayed = result.report.replayed_steps
        attempted += 1
        failed += result.output != live
        result.program.close()
    return {
        "recover_times_s": times,
        "decode_s": decode_s,
        "records_replayed": replayed,
        "attempted": attempted,
        "failed": failed,
    }


def traced_window(workload: Any, runtime: Any, seconds: float,
                  recorder: Any) -> Tuple[Window, Window]:
    """Alternate untraced and traced segments; returns both windows.

    Engine ``stats`` and coalesced rows of the traced segments are added
    to ``recorder.counts``.
    """
    from repro.runtime import engine_of

    stats = engine_of(runtime.program).stats
    untraced, traced = Window(), Window()
    segment = seconds / (2 * TRACE_PAIRS)
    counts = recorder.counts
    for _ in range(TRACE_PAIRS):
        untraced.extend(drive(workload, runtime, segment))
        forced = stats.thunks_forced
        primitives = sum(stats.primitive_calls.values())
        coalesced = runtime.coalesced_rows
        recorder.install_stack(runtime, setup=False)
        try:
            traced.extend(drive(workload, runtime, segment, recorder))
        finally:
            recorder.uninstall()
        counts["thunks_forced"] += stats.thunks_forced - forced
        counts["primitive_calls"] += sum(stats.primitive_calls.values()) - primitives
        counts["coalesced_rows"] += runtime.coalesced_rows - coalesced
    return untraced, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path, workload: Any = None) -> Dict[str, Any]:
    """Run one workload end to end; returns the result record."""
    from repro.observability import get_observability
    from repro.plugins.registry import standard_registry

    from layers import Recorder
    from workloads import make_workload

    if workload is None:
        workload = make_workload(name, seed)
    registry = standard_registry()
    hub = get_observability()
    if workload.observe:
        hub.enable()
    else:
        hub.disable()
    state = out_dir / "state"
    shutil.rmtree(state, ignore_errors=True)
    recovery_dir = state / "recovery"
    recovery_dir.mkdir(parents=True)
    (recovery_dir / "stream.pickle").write_bytes(
        pickle.dumps(workload.recovery_stream())
    )
    recorder = Recorder() if trace else None
    reps = SETUP_REPS[name]
    try:
        parts = [recover_in_child(name, seed, recovery_dir, 1, trace)]
        # Half the set-ups run before the window (the last one serves it)
        # and half after, so one burst of host noise cannot hit them all.
        setup_times, runtime = [], None
        for rep in range(reps // 2 + 1):
            if runtime is not None:
                runtime.close()
            runtime, elapsed = set_up(
                workload, registry, state / f"setup-{rep}", recorder
            )
            setup_times.append(elapsed)
        drive(workload, runtime, 0.0, calls=WARMUP_CALLS)
        if trace:
            windows = list(traced_window(workload, runtime, seconds, recorder))
        else:
            windows = [drive(workload, runtime, seconds)]
        final_failed = workload.final_check(runtime)
        runtime.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for rep in range(len(setup_times), reps):
            runtime, elapsed = set_up(
                workload, registry, state / f"setup-{rep}", recorder
            )
            runtime.close()
            setup_times.append(elapsed)
        parts.append(recover_in_child(name, seed, recovery_dir, 2, trace))
    finally:
        if recorder is not None:
            recorder.uninstall()
        hub.disable()
        shutil.rmtree(state, ignore_errors=True)
    recovery = {
        "recover_s": statistics.median(
            [t for part in parts for t in part["recover_times_s"]]
        ),
        "recover_times_s": [part["recover_times_s"] for part in parts],
        "decode_s": statistics.median(
            [t for part in parts for t in part["decode_s"]] or [0.0]
        ),
        "records_replayed": parts[-1]["records_replayed"],
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
    }

    calls = WARMUP_CALLS + sum(len(window.latencies) for window in windows)
    record: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "stamp": stamp(),
        "attempted": calls + 1 + recovery["attempted"],
        "failed": sum(window.failures for window in windows)
        + final_failed
        + recovery["failed"],
        "calls": calls,
        "setup_times_s": setup_times,
        "recovery": recovery,
    }
    if not trace:
        window = windows[0]
        record["samples"] = len(window.latencies)
        record["units"] = END_TO_END_UNITS
        record["metrics"] = {
            "step_p50_us": window.p50_us(),
            "step_p99_us": window.p99_us(),
            "changes_per_s": window.changes_per_s(),
            "setup_s": statistics.median(setup_times),
            "recover_s": recovery["recover_s"],
            "peak_rss_mb": peak_rss_mb,
        }
        return record
    untraced, traced = windows
    record["units"] = PER_LAYER_UNITS
    record["metrics"] = per_layer_metrics(recorder, untraced, traced, reps, recovery)
    record["untraced"] = untraced.summary()
    record["traced"] = traced.summary()
    write_trace(out_dir, recorder, record)
    return record


def per_layer_metrics(recorder: Any, untraced: Window, traced: Window,
                      setups: int, recovery: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metrics of a traced run, in ``PER_LAYER_UNITS`` order.

    Step metrics are per client call of the traced segments, set-up
    metrics per set-up; a layer the workload bypasses reads 0.
    """
    from layers import OBSERVABILITY_SPANS

    ops = len(traced.latencies)
    during = recorder.totals(ops=True)
    outside = recorder.totals(ops=False)
    counts = recorder.counts
    empty = {"count": 0, "inclusive_s": 0.0, "self_s": 0.0}

    def per_op_us(*spans: str) -> float:
        return sum(during.get(span, empty)["self_s"] for span in spans) / ops * 1e6

    def per_setup_ms(span: str, field: str = "inclusive_s") -> float:
        return outside.get(span, empty)[field] / setups * 1e3

    def mean_ms(row: Dict[str, float], field: str) -> float:
        return row[field] / row["count"] * 1e3 if row["count"] else 0.0

    reads = during.get("client.read", empty)
    snapshots = during.get("persistence.snapshot.write", empty)
    return {
        "lang.infer_ms": per_setup_ms("lang.infer"),
        "derive.derive_ms": per_setup_ms("derive.derive"),
        "optimize.optimize_ms": per_setup_ms("optimize.optimize"),
        "compile.compile_ms": per_setup_ms("compile.compile"),
        "incremental.initialize_s": per_setup_ms("incremental.initialize") / 1e3,
        "runtime.durability.initialize_ms":
            per_setup_ms("runtime.durability", "self_s"),
        "data.oplus_us": per_op_us("data.oplus"),
        "data.pmap.entries_copied_per_op": counts["data.pmap.entries_copied"] / ops,
        "client.read_us": mean_ms(reads, "self_s") * 1e3,
        "incremental.engine.self_us": per_op_us("incremental.engine"),
        "incremental.caching.self_us": per_op_us("incremental.caching"),
        "semantics.thunks_forced_per_op": counts["thunks_forced"] / ops,
        "semantics.primitive_calls_per_op": counts["primitive_calls"] / ops,
        "runtime.supervisor.self_us": per_op_us("runtime.supervisor"),
        "runtime.supervisor.coalesced_ratio": counts["coalesced_rows"] / traced.rows,
        "runtime.resilience.self_us": per_op_us("runtime.resilience"),
        "runtime.durability.self_us": per_op_us("runtime.durability"),
        "persistence.codec.encode_us": per_op_us("persistence.codec.encode"),
        "persistence.journal.append_us": per_op_us("persistence.journal.append"),
        "persistence.journal.bytes_per_row": counts["journal.bytes"] / traced.rows,
        "runtime.telemetry.self_us": per_op_us("runtime.telemetry"),
        "observability.self_us": per_op_us(*OBSERVABILITY_SPANS),
        "observability.records_per_op":
            during.get("observability.record", empty)["count"] / ops,
        "observability.spans_per_op": counts["observability.spans"] / ops,
        "persistence.snapshot.write_ms": mean_ms(snapshots, "inclusive_s"),
        "persistence.snapshot.writes": snapshots["count"],
        "persistence.recovery.records_replayed": recovery["records_replayed"],
        "persistence.codec.decode_us": recovery["decode_s"] * 1e6,
        "trace.overhead_ratio": traced.p50_us() / untraced.p50_us(),
    }


def write_trace(out_dir: Path, recorder: Any, record: Dict[str, Any]) -> None:
    """Write the spans and the per-layer table of a traced run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write_spans(str(out_dir / "spans.jsonl.gz"))
    ops = record["traced"]["samples"]
    table = {
        "ops": ops,
        "step_mean_us": record["traced"]["step_mean_us"],
        "spans_in_calls": {
            span: dict(row, self_us_per_op=row["self_s"] / ops * 1e6)
            for span, row in sorted(recorder.totals(ops=True).items())
        },
        "spans_outside_calls": dict(sorted(recorder.totals(ops=False).items())),
        "metrics": record["metrics"],
    }
    (out_dir / "layers.json").write_text(json.dumps(table, indent=2) + "\n")


# -- stamps --------------------------------------------------------------------


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` (None outside a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    """SHA-256 over the program's source tree (stable without git)."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp() -> Dict[str, Any]:
    return {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "unix_time": time.time(),
    }


# -- command line --------------------------------------------------------------


def pin_to_one_cpu() -> None:
    """Run on the lowest-numbered CPU this process may use.

    On small shared hosts the vCPUs can differ in speed by a third
    (neighbours load them unevenly), so leaving the choice to the
    scheduler makes each run land fast or slow at random.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def print_result(record: Dict[str, Any]) -> None:
    host = record["stamp"]["host"]
    print(
        f"workload {record['workload']} seed {record['seed']} "
        f"seconds {record['seconds']} trace {record['trace']}"
    )
    print(
        f"host cpus={host['cpu_count']} python={host['python']} "
        f"platform={host['platform']} git={record['stamp']['git_sha']}"
    )
    for metric, value in record["metrics"].items():
        print(f"  {metric:<40} {value:>16.4f} {record['units'][metric]}")
    print(f"attempted {record['attempted']} failed {record['failed']}")


def summary_line(record: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric: {"value": value, "unit": record["units"][metric]}
                for metric, value in record["metrics"].items()
            },
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays separate."""
    from workloads import WORKLOADS

    combined: Dict[str, Any] = {}
    attempted = failed = 0
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        if child.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": status == 0 and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="wordcount-reads, product-serving, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # The recovery phase re-invokes this script in a fresh process.
    parser.add_argument("--recovery-dir", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--recovery-part", type=int, choices=(1, 2),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SOURCE / "repro" / "__init__.py").exists():
        print(f"error: the program's source is missing ({SOURCE / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.recovery_dir is not None:
        part = recovery_part(
            args.workload, args.recovery_dir, args.recovery_part, bool(args.trace)
        )
        print(json.dumps(part))
        return 0
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print_result(record)
    print(summary_line(record))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
