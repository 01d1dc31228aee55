"""Self-tests of the benchmark harness: its correctness checks must be
able to fail, and its metric lists must agree with ``BENCHMARK.json``."""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.data.pmap import PMap  # noqa: E402
from repro.plugins.registry import standard_registry  # noqa: E402

SMALL_WORDS = 2_000
SMALL_VOCABULARY = 500


def small_wordcount(seed: int = 3) -> workloads.Wordcount:
    return workloads.Wordcount(
        seed, words=SMALL_WORDS, vocabulary=SMALL_VOCABULARY
    )


def started(workload: Any, directory: Path) -> Any:
    runtime = workload.build(standard_registry(), str(directory))
    runtime.initialize(*workload.inputs)
    return runtime


class InPlaceOutput:
    """A runtime whose readers all share one output object that every
    write updates in place -- the defect held reads must catch."""

    def __init__(self, runtime: Any):
        self.runtime = runtime
        self.view = dict(runtime.output.items())

    def apply_rows(self, rows: Any) -> Any:
        outcomes = self.runtime.apply_rows(rows)
        self.view.clear()
        self.view.update(self.runtime.output.items())
        return outcomes

    @property
    def output(self) -> Any:
        return self.view


class OneWrongEntry:
    """A runtime whose output has one count off by one."""

    def __init__(self, runtime: Any):
        self.runtime = runtime

    def initialize(self, *inputs: Any) -> Any:
        return self.runtime.initialize(*inputs)

    def apply_rows(self, rows: Any) -> Any:
        return self.runtime.apply_rows(rows)

    @property
    def output(self) -> Any:
        entries = dict(self.runtime.output.items())
        word = min(entries)
        entries[word] += 1
        return PMap(entries)

    def close(self) -> None:
        self.runtime.close()


def test_clean_reads_run_has_no_failures(tmp_path):
    workload = small_wordcount()
    runtime = started(workload, tmp_path)
    window = run.drive(workload, runtime, 0.0, calls=200)
    assert window.rows == 200
    assert window.failures == 0
    assert workload.reads_done == 200 * workloads.READS_PER_WRITE
    assert workload.final_check(runtime) == 0


def test_corrupted_held_snapshot_counts_as_failed_operation(tmp_path):
    workload = small_wordcount()
    runtime = InPlaceOutput(started(workload, tmp_path))
    window = run.drive(workload, runtime, 0.0, calls=50)
    # Every call after the first finds the output it held mutated.
    assert window.failures == 49


def test_wrong_output_entry_counts_as_failed_operation(tmp_path):
    workload = small_wordcount()
    runtime = OneWrongEntry(started(workload, tmp_path))
    window = run.drive(workload, runtime, 0.0, calls=20)
    assert workload.final_check(runtime) == 1
    assert window.failures < 20  # reads of other words still agree


def test_wrong_product_counts_as_failed_operation(tmp_path):
    workload = workloads.ProductServing(5, size=200)
    runtime = started(workload, tmp_path)
    run.drive(workload, runtime, 0.0, calls=40)
    assert workload.final_check(runtime) == 0
    workload.stream.sum_x += 1
    assert workload.final_check(runtime) == 1
    runtime.close()


def test_failed_run_reports_incorrect(tmp_path):
    class Corrupting(workloads.Wordcount):
        def build(self, registry, directory):
            return OneWrongEntry(super().build(registry, directory))

    workload = Corrupting(4, words=SMALL_WORDS, vocabulary=SMALL_VOCABULARY)
    record = run.run_workload(
        "wordcount-reads", 4, 0.2, False, tmp_path, workload=workload
    )
    assert record["failed"] >= 1
    line = json.loads(run.summary_line(record))
    assert line["correct"] is False
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    workload = workloads.ProductServing(6, size=200)
    record = run.run_workload(
        "product-serving", 6, 0.4, True, tmp_path, workload=workload
    )
    assert record["failed"] == 0
    assert set(record["metrics"]) == set(run.PER_LAYER_UNITS)
    for metric in ("runtime.durability.self_us", "observability.self_us",
                   "persistence.codec.encode_us", "incremental.caching.self_us"):
        assert record["metrics"][metric] > 0
    assert record["metrics"]["incremental.engine.self_us"] == 0
    with gzip.open(tmp_path / "spans.jsonl.gz", "rt") as handle:
        spans = handle.read().splitlines()
    assert set(json.loads(spans[0])) == {"name", "start", "end", "parent", "op"}
    assert (tmp_path / "layers.json").exists()


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    predictions = (HERE / "README.md").read_text()
    for metric in run.PER_LAYER_UNITS:
        assert f"`{metric}`" in predictions, metric
