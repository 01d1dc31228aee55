"""Streaming quantile estimation for latency telemetry.

The SLO layer asks questions about *tails* -- "does p99 step latency
stay under budget?" -- and tails are exactly what count/total/min/max
summaries cannot answer.  :class:`QuantileSketch` is the percentile
engine:

* *exact* while the sample count is small (all samples kept and sorted
  on demand), so tests, ``--quick`` benches and short traces report
  true percentiles;
* beyond that, a deterministic log-bucket sketch: each value lands in
  the bucket ``ceil(log_γ |v|)`` with ``γ = (1 + α) / (1 − α)``, and a
  quantile read walks the buckets in order and answers with the
  bucket's midpoint ``2γⁱ / (γ + 1)``, which is within a relative error
  ``α = RELATIVE_ERROR`` (1%) of every value in the bucket.  Recording
  is O(1) (one logarithm, one dict update); the bucket count grows with
  the logarithm of the value range, not with the sample count.  Zeros
  are counted apart and negatives mirror the positives.

Estimates are deterministic functions of the observation multiset (no
randomized sampling), which keeps seeded traffic runs byte-reproducible.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The quantiles every latency sketch tracks by default.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.9, 0.99, 0.999)

#: Summary-key spelling for a quantile: 0.5 -> "p50", 0.999 -> "p999".
def quantile_key(q: float) -> str:
    """The conventional percentile label: 0.5 → p50, 0.999 → p999."""
    digits = f"{q:.10f}".split(".")[1].rstrip("0") or "0"
    # Percentiles are two digits by convention (p50, p90); only finer
    # quantiles grow a third digit (p999, p9999).
    if len(digits) == 1:
        digits += "0"
    return f"p{digits}"


def exact_quantile(ordered: Sequence[float], q: float) -> float:
    """The ``q``-quantile of an already-sorted sample, by linear
    interpolation between closest ranks (the numpy default)."""
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


#: The bucket sketch's bound on the relative error of a quantile.
RELATIVE_ERROR = 0.01
_GAMMA = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)
#: Bucket ``i`` covers magnitudes ``(γⁱ⁻¹, γⁱ]`` and answers with
#: ``γⁱ · 2 / (γ + 1)``, within ``RELATIVE_ERROR`` of both ends.
_MIDPOINT = 2.0 / (_GAMMA + 1.0)


class QuantileSketch:
    """Quantiles over one value stream: exact while small, then a
    log-bucket sketch with relative error at most ``RELATIVE_ERROR``.

    The first ``exact_limit`` samples are buffered; while the stream
    fits the buffer, *any* quantile is answered exactly.  Once it
    outgrows the buffer, the samples move into the buckets and every
    later observation costs one bucket increment.  Quantiles are
    computed on read, for any ``q`` in [0, 1]; ``quantiles`` only names
    the ones ``summary()`` reports.
    """

    __slots__ = (
        "quantiles", "count", "_exact", "_exact_limit",
        "_positive", "_negative", "_zeros",
    )

    def __init__(
        self,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
        exact_limit: int = 512,
    ):
        self.quantiles: Tuple[float, ...] = tuple(quantiles)
        self._exact_limit = exact_limit
        self.reset()

    def record(self, value: float) -> None:
        self.count += 1
        exact = self._exact
        if exact is None:
            self._add(value)
            return
        exact.append(value)
        if len(exact) > self._exact_limit:
            self._exact = None  # outgrown: the buckets take over
            for sample in exact:
                self._add(sample)

    def _add(self, value: float) -> None:
        if value > 0.0:
            buckets = self._positive
        elif value < 0.0:
            buckets = self._negative
            value = -value
        else:
            self._zeros += 1
            return
        index = math.ceil(math.log(value) / _LOG_GAMMA)
        buckets[index] = buckets.get(index, 0) + 1

    def _ranked(self) -> List[Tuple[float, int]]:
        """``(estimate, count)`` per non-empty bucket, in value order."""
        ranked = [
            (-_MIDPOINT * _GAMMA ** index, count)
            for index, count in sorted(self._negative.items(), reverse=True)
        ]
        if self._zeros:
            ranked.append((0.0, self._zeros))
        ranked.extend(
            (_MIDPOINT * _GAMMA ** index, count)
            for index, count in sorted(self._positive.items())
        )
        return ranked

    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile estimate; None while empty.

        Exact while the stream still fits the exact buffer; afterwards
        the bucket estimates of the two closest ranks are interpolated
        as :func:`exact_quantile` interpolates the samples, so the
        answer stays within ``RELATIVE_ERROR`` of the exact quantile of
        same-signed samples.
        """
        if self.count == 0:
            return None
        if self._exact is not None:
            return exact_quantile(sorted(self._exact), q)
        position = q * (self.count - 1)
        low = int(position)
        high = min(low + 1, self.count - 1)
        fraction = position - low
        low_value = high_value = None
        seen = 0
        for estimate, count in self._ranked():
            seen += count
            if low_value is None and low < seen:
                low_value = estimate
            if high < seen:
                high_value = estimate
                break
        return low_value * (1.0 - fraction) + high_value * fraction

    @property
    def is_exact(self) -> bool:
        return self._exact is not None

    def summary(self) -> Dict[str, Any]:
        """``{"p50": ..., "p90": ..., ...}`` for the tracked quantiles."""
        return {
            quantile_key(q): self.quantile(q) for q in self.quantiles
        }

    def reset(self) -> None:
        self.count = 0
        self._exact: Optional[List[float]] = []
        self._positive: Dict[int, int] = {}
        self._negative: Dict[int, int] = {}
        self._zeros = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QuantileSketch(n={self.count}, "
            f"{'exact' if self.is_exact else 'buckets'}, {self.summary()})"
        )


__all__ = [
    "DEFAULT_QUANTILES",
    "RELATIVE_ERROR",
    "QuantileSketch",
    "exact_quantile",
    "quantile_key",
]
