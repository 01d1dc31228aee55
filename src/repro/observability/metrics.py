"""Counters, gauges, and histograms with a process-global registry.

The paper's evaluation counts *operations*, not just wall-clock: Fig. 7's
claim is that a derivative reacts in O(|change|), and the way to check it
is to count ⊕ applications, primitive calls, and thunk forcings per step.
This module is the sink those counts flow into.

Design constraints:

* **Zero overhead when disabled.**  Instrumentation sites guard on
  ``enabled()`` (a single attribute read) before touching any metric, or
  go through ``sink()`` which returns a shared no-op registry while
  observability is off.  The hot paths of the interpreter pay nothing
  beyond one branch.
* **Process-global registry.**  Spans and counters from the engine, the
  optimizer, ``Derive``, and the change algebra all land in one place, so
  a step's ⊕ count is a *delta* of the global counter around the step.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

from repro.observability.quantiles import DEFAULT_QUANTILES, QuantileSketch


class Counter:
    """A monotonically-increasing (per reset) integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}={self.value})"


class Gauge:
    """A point-in-time value (queue depths, cache sizes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}={self.value})"


class Histogram:
    """A streaming summary of observed values, percentiles included.

    Aggregates (count/total/min/max) are exact; percentiles come from a
    :class:`~repro.observability.quantiles.QuantileSketch` -- exact for
    short streams, then log buckets with 1% relative error (O(1) per
    record) once the stream outgrows the sketch's buffer.  The tracked
    quantiles (p50/p90/p99/p999) are what the SLO layer and the
    dashboard read.
    """

    __slots__ = ("name", "count", "total", "min", "max", "sketch")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.sketch = QuantileSketch(DEFAULT_QUANTILES)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.sketch.record(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile of the recorded values (None while empty)."""
        return self.sketch.quantile(q)

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.sketch.reset()

    def summary(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        summary.update(self.sketch.summary())
        return summary

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.6g})"


class MetricsRegistry:
    """A named collection of metrics; get-or-create by name."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    # -- introspection -----------------------------------------------------

    def counter_value(self, name: str) -> int:
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {
            name: metric.value
            for name, metric in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def gauges(self, prefix: str = "") -> Dict[str, Any]:
        return {
            name: metric.value
            for name, metric in sorted(self._gauges.items())
            if name.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> Dict[str, Dict[str, Any]]:
        return {
            name: metric.summary()
            for name, metric in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, Any]:
        """All metrics as plain data (stable ordering, JSON-friendly)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": self.histograms(),
        }

    def iter_metrics(self) -> Iterator[Tuple[str, str, Any]]:
        """Yield ``(kind, name, value-or-summary)`` rows for exporters."""
        for name, counter in sorted(self._counters.items()):
            yield "counter", name, counter.value
        for name, gauge in sorted(self._gauges.items()):
            yield "gauge", name, gauge.value
        for name, histogram in sorted(self._histograms.items()):
            yield "histogram", name, histogram.summary()

    def reset(self) -> None:
        for metric in self._counters.values():
            metric.reset()
        for metric in self._gauges.values():
            metric.reset()
        for metric in self._histograms.values():
            metric.reset()


# -- the null sink ------------------------------------------------------------

class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # pragma: no cover - trivial
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: Any) -> None:  # pragma: no cover - trivial
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def record(self, value: float) -> None:  # pragma: no cover - trivial
        pass


class NullRegistry(MetricsRegistry):
    """A registry that accepts everything and records nothing.

    Returned by ``sink()`` while observability is disabled so call sites
    can be written unconditionally; shared singletons mean no allocation
    per call either.
    """

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str) -> Histogram:
        return self._null_histogram


NULL_REGISTRY = NullRegistry()

#: The process-global registry every instrumented layer reports into.
GLOBAL_REGISTRY = MetricsRegistry()


class _State:
    """Mutable enabled flag with one-attribute-read access on hot paths."""

    __slots__ = ("on",)

    def __init__(self) -> None:
        self.on = False


STATE = _State()


def enabled() -> bool:
    """Is observability collection currently on?"""
    return STATE.on


def set_enabled(on: bool) -> None:
    STATE.on = bool(on)


def global_registry() -> MetricsRegistry:
    return GLOBAL_REGISTRY


def sink() -> MetricsRegistry:
    """The registry instrumentation should write to *right now*: the
    global registry when enabled, the shared null sink otherwise."""
    return GLOBAL_REGISTRY if STATE.on else NULL_REGISTRY
