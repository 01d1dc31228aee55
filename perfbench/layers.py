"""Per-layer tracing for the benchmark's traced run.

Wrappers defined here time calls into each layer's public functions and
bound methods.  They are installed on the instances that ``iter_layers``
and ``engine_of`` return, and on the module attributes the layers call
through (``oplus_value``, ``encode_value``, ...), and removed again
afterwards, so the untraced windows run the program unmodified.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the span
list (-1 for a root) and ``op`` is the client call it belongs to (-1
during set-up and recovery).  Spans stay in memory until the run ends.
A layer's self time is its spans' inclusive time minus their child
spans' time.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Span name for each middleware layer, keyed by its ``layer_name``.
LAYER_SPANS = {
    "metrics": "runtime.telemetry",
    "durable": "runtime.durability",
    "resilient": "runtime.resilience",
}
#: Span name for each engine class.
ENGINE_SPANS = {
    "IncrementalProgram": "incremental.engine",
    "CachingIncrementalProgram": "incremental.caching",
}
OBSERVABILITY_SPANS = ("observability.record", "observability.span")


class Recorder:
    """Collects spans and counts while wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        #: The client call being traced (-1 outside calls), and how
        #: many calls have been traced so far.
        self.op = -1
        self.ops = 0
        self.counts: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._journal: Any = None
        self._journal_start = 0

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> List[Any]:
        stack = self.stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def close(self, record: List[Any]) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` timed as a span called ``name``."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(record)

        return traced

    # -- installation ----------------------------------------------------

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until ``uninstall``."""
        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, replacement)

    def patch_span(self, owner: Any, attr: str, name: str) -> None:
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        journal = self._journal
        if journal is not None:
            self.counts["journal.bytes"] += journal.offset - self._journal_start
            self._journal = None
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- the layers ------------------------------------------------------

    def install_setup(self) -> None:
        """Time the construction phases of both engines."""
        import repro.incremental.caching as caching
        import repro.incremental.engine as engine

        for module in (engine, caching):
            self.patch_span(module, "infer_type", "lang.infer")
        self.patch_span(engine, "derive_program", "derive.derive")
        self.patch_span(caching, "derive", "derive.derive")
        self.patch_span(engine, "run_optimizer", "optimize.optimize")
        self.patch_span(caching, "to_anf", "optimize.optimize")
        self.patch_span(engine, "compile_value", "compile.compile")
        self.patch_span(caching, "compile_term", "compile.compile")

    def install_stack(self, runtime: Any, setup: bool) -> None:
        """Wrap the supervisor, every middleware layer and the engine.

        With ``setup`` the ``initialize`` hooks are wrapped; otherwise
        the step hooks, ⊕, the codec, the journal, snapshots and the
        observability hub are.
        """
        from repro.runtime import iter_layers

        layers = list(iter_layers(runtime.program))
        engine = layers[-1]
        engine_span = ENGINE_SPANS[type(engine).__name__]
        if setup:
            self.patch_span(engine, "initialize", "incremental.initialize")
            for layer in layers[:-1]:
                if layer.layer_name == "durable":
                    self.patch_span(layer, "initialize", "runtime.durability")
            return
        self.patch_span(runtime, "apply_rows", "runtime.supervisor")
        for layer in layers[:-1]:
            name = LAYER_SPANS[layer.layer_name]
            self.patch_span(layer, "step", name)
            self.patch_span(layer, "step_batch", name)
            if layer.layer_name == "durable":
                self._install_durable(layer)
        self.patch_span(engine, "step", engine_span)
        self.patch_span(engine, "step_batch", engine_span)
        self._install_data()
        self._install_observability()

    def _install_data(self) -> None:
        from repro.data.pmap import PMap

        import repro.incremental.caching as caching
        import repro.incremental.engine as engine

        # Both modules: the caching engine's caches fold through the
        # plain engine's lazy inputs.
        for module in (engine, caching):
            self.patch_span(module, "oplus_value", "data.oplus")
        original_init = PMap.__init__
        counts, stack = self.counts, self.stack

        def counting_init(pmap: Any, entries: Any = None) -> None:
            if entries and stack:
                counts["data.pmap.entries_copied"] += len(entries)
            original_init(pmap, entries)

        self.patch(PMap, "__init__", counting_init)

    def _install_durable(self, layer: Any) -> None:
        import repro.runtime.durability as durability

        journal = layer.journal
        self._journal, self._journal_start = journal, journal.offset
        self.patch_span(journal, "append", "persistence.journal.append")
        self.patch_span(layer, "snapshot", "persistence.snapshot.write")
        encode = durability.encode_value
        spans = self.spans
        stack = self.stack

        def traced_encode(value: Any) -> Any:
            # Checkpoint encoding is charged to the snapshot, not to the
            # per-step journal encoding.
            in_snapshot = any(
                spans[index][0] == "persistence.snapshot.write" for index in stack
            )
            name = (
                "persistence.codec.encode.snapshot"
                if in_snapshot
                else "persistence.codec.encode"
            )
            record = self.open(name)
            try:
                return encode(value)
            finally:
                self.close(record)

        self.patch(durability, "encode_value", traced_encode)

    def _install_observability(self) -> None:
        from repro.observability import get_observability
        from repro.observability.metrics import Counter, Gauge, Histogram

        self.patch_span(Counter, "inc", "observability.record")
        self.patch_span(Gauge, "set", "observability.record")
        self.patch_span(Histogram, "record", "observability.record")
        tracer = get_observability().tracer
        opened = tracer.span

        @contextmanager
        def traced_span(name: str, **attributes: Any) -> Iterator[Any]:
            # Only the tracer's own bookkeeping on entry and exit is the
            # observer's time; the body belongs to the layer it wraps.
            self.counts["observability.spans"] += 1
            record = self.open("observability.span")
            manager = opened(name, **attributes)
            span = manager.__enter__()
            self.close(record)
            try:
                yield span
            except BaseException as error:
                record = self.open("observability.span")
                try:
                    if not manager.__exit__(type(error), error, error.__traceback__):
                        raise
                finally:
                    self.close(record)
            else:
                record = self.open("observability.span")
                manager.__exit__(None, None, None)
                self.close(record)

        self.patch(tracer, "span", traced_span)

    def install_recovery(self) -> None:
        import repro.persistence.recovery as recovery

        self.patch_span(recovery, "decode_value", "persistence.codec.decode")

    # -- analysis --------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's durations."""
        spans = self.spans
        own = [span[2] - span[1] for span in spans]
        for span in spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def totals(self, ops: Optional[bool] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: count, inclusive and self seconds.  ``ops``
        selects spans inside client calls (True), outside them (False)
        or all (None)."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        own = self.self_times()
        for span, self_s in zip(self.spans, own):
            if ops is not None and (span[4] >= 0) != ops:
                continue
            row = table[span[0]]
            row["count"] += 1
            row["inclusive_s"] += span[2] - span[1]
            row["self_s"] += self_s
        return dict(table)

    def write_spans(self, path: str) -> None:
        """One JSON object per span and line, gzip-compressed (a traced
        serving run records hundreds of thousands of spans)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                )
                handle.write("\n")
