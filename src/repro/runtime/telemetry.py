"""The metrics middleware layer: whole-stack timing and error counts.

The engines already instrument their *internals* (derivative vs ⊕
phases, cache bindings, journal fsync).  What no wrapper measured was
the stack as a client sees it: how long a step takes end-to-end through
validation + journaling + the engine, and how often the stack raises.
:class:`MetricsLayer` sits outermost (highest rank) and records exactly
that boundary:

* ``stack.step.wall_time_s`` -- end-to-end step latency histogram
  (quantiles come free via the bucket sketch);
* ``stack.steps`` / ``stack.batches`` / ``stack.batch_rows`` --
  throughput counters;
* ``stack.errors`` -- raises escaping the stack, labelled per error
  type as ``stack.errors.<TypeName>``.

All recording is gated on the observability fast-path flag, so a
disabled hub costs one attribute check per step.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.observability import get_observability
from repro.observability import metrics as _metrics
from repro.runtime.middleware import Middleware

_STATE = _metrics.STATE


class MetricsLayer(Middleware):
    """Outermost layer timing every stack operation."""

    layer_name = "metrics"
    rank = 40

    def __init__(self, inner: Any, prefix: str = "stack"):
        super().__init__(inner)
        self.prefix = prefix

    def _record(self, began: float) -> None:
        metrics = get_observability().metrics
        metrics.histogram(f"{self.prefix}.step.wall_time_s").record(
            time.perf_counter() - began
        )
        metrics.counter(f"{self.prefix}.steps").inc()

    def _record_error(self, error: BaseException) -> None:
        metrics = get_observability().metrics
        metrics.counter(f"{self.prefix}.errors").inc()
        metrics.counter(f"{self.prefix}.errors.{type(error).__name__}").inc()

    def initialize(self, *inputs: Any) -> Any:
        if not _STATE.on:
            return self.inner.initialize(*inputs)
        began = time.perf_counter()
        output = self.inner.initialize(*inputs)
        get_observability().metrics.histogram(
            f"{self.prefix}.initialize.wall_time_s"
        ).record(time.perf_counter() - began)
        return output

    def step(self, *changes: Any) -> Any:
        if not _STATE.on:
            return self.inner.step(*changes)
        began = time.perf_counter()
        try:
            output = self.inner.step(*changes)
        except Exception as error:
            self._record_error(error)
            raise
        self._record(began)
        return output

    def _delegate_batch(self, rows: Any, coalesce: bool) -> Any:
        if hasattr(self.inner, "step_batch"):
            return self.inner.step_batch(rows, coalesce=coalesce)
        output = self.output
        for row in rows:
            output = self.inner.step(*row)
        return output

    def step_batch(
        self, batch: Sequence[Sequence[Any]], coalesce: bool = True
    ) -> Any:
        # One boundary sample per burst (matching how a serving layer
        # experiences it), not one per absorbed row.
        rows = [tuple(row) for row in batch]
        if not rows:
            return self.output
        if not _STATE.on:
            return self._delegate_batch(rows, coalesce)
        began = time.perf_counter()
        try:
            output = self._delegate_batch(rows, coalesce)
        except Exception as error:
            self._record_error(error)
            raise
        metrics = get_observability().metrics
        metrics.histogram(f"{self.prefix}.step.wall_time_s").record(
            time.perf_counter() - began
        )
        metrics.counter(f"{self.prefix}.batches").inc()
        metrics.counter(f"{self.prefix}.batch_rows").inc(len(rows))
        return output

    def layer_state(self) -> Any:
        return {"prefix": self.prefix}


__all__ = ["MetricsLayer"]
