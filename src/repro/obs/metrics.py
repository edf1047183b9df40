"""Counters, gauges, and histograms: the metrics half of observability.

A :class:`MetricsRegistry` hands out named instruments on demand.  Names
carry optional labels — ``registry.counter("repair.candidates",
technique="ATR")`` — encoded into a flat string key
(``repair.candidates{technique=ATR}``) so snapshots stay picklable and
JSON-friendly across process boundaries.

Instruments are lock-protected (shards on a thread pool may share a
registry); the disabled default, :data:`NULL_METRICS`, hands out shared
no-op instruments so the untraced path allocates nothing per call site.

Snapshots are mergeable: counters add, gauges keep their maximum (the
only aggregation that is order-independent across shards), histograms
concatenate their reservoirs — which is how per-shard registries from
worker processes fold into one run-level registry.
"""

from __future__ import annotations

import math
import threading
from typing import Any

_RESERVOIR_CAP = 4096
"""Raw values kept per histogram; count/sum/min/max stay exact beyond it,
percentiles become approximate (computed over the first CAP samples)."""


def metric_key(name: str, labels: dict[str, Any]) -> str:
    """Encode a name + labels into the flat snapshot key."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


def parse_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`metric_key`."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for pair in rest[:-1].split(","):
        if "=" in pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A last-written value (merged across shards as the maximum)."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A distribution with exact count/sum/min/max and cheap percentiles."""

    __slots__ = ("_lock", "count", "total", "minimum", "maximum", "values")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
            if len(self.values) < _RESERVOIR_CAP:
                self.values.append(value)

    def summary(self) -> dict[str, float]:
        with self._lock:
            if not self.count:
                return {"count": 0}
            values = list(self.values)
            return {
                "count": self.count,
                "sum": self.total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": self.total / self.count,
                "p50": percentile(values, 0.50),
                "p90": percentile(values, 0.90),
                "p99": percentile(values, 0.99),
            }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the sample at or below it (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    # Rounding first keeps float noise (0.07 * 100 == 7.000000000000001)
    # from pushing an exact rank up by one.
    rank = max(1, math.ceil(round(q * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


class MetricsRegistry:
    """Get-or-create instrument store with picklable snapshots."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    def _get(self, store: dict, factory, name: str, labels: dict) -> Any:
        key = metric_key(name, labels)
        with self._lock:
            instrument = store.get(key)
            if instrument is None:
                instrument = store[key] = factory()
            return instrument

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable, JSON-safe dump of every instrument."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: {
                        "count": h.count,
                        "sum": h.total,
                        "min": h.minimum,
                        "max": h.maximum,
                        "values": list(h.values),
                    }
                    for k, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` from another registry into this one."""
        for key, value in snapshot.get("counters", {}).items():
            self._get(self._counters, Counter, *parse_key_pair(key)).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            gauge = self._get(self._gauges, Gauge, *parse_key_pair(key))
            gauge.set(max(gauge.value, value))
        for key, dump in snapshot.get("histograms", {}).items():
            histogram = self._get(
                self._histograms, Histogram, *parse_key_pair(key)
            )
            with histogram._lock:
                histogram.count += dump["count"]
                histogram.total += dump["sum"]
                if dump["min"] is not None:
                    histogram.minimum = (
                        dump["min"]
                        if histogram.minimum is None
                        else min(histogram.minimum, dump["min"])
                    )
                if dump["max"] is not None:
                    histogram.maximum = (
                        dump["max"]
                        if histogram.maximum is None
                        else max(histogram.maximum, dump["max"])
                    )
                room = _RESERVOIR_CAP - len(histogram.values)
                if room > 0:
                    histogram.values.extend(dump["values"][:room])

    def counter_values(self) -> dict[str, int]:
        with self._lock:
            return {k: c.value for k, c in self._counters.items()}

    def histogram_summaries(self) -> dict[str, dict[str, float]]:
        with self._lock:
            items = list(self._histograms.items())
        return {k: h.summary() for k, h in items}


def parse_key_pair(key: str) -> tuple[str, dict[str, str]]:
    """:func:`parse_key`, shaped for ``_get(store, factory, name, labels)``."""
    return parse_key(key)


class _NullInstrument:
    """One object plays all three disabled instruments."""

    __slots__ = ()
    value = 0
    count = 0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> dict[str, float]:
        return {"count": 0}


class NullMetrics:
    """The disabled registry: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge(self, snapshot: dict) -> None:
        pass

    def counter_values(self) -> dict[str, int]:
        return {}

    def histogram_summaries(self) -> dict[str, dict[str, float]]:
        return {}


_NULL_INSTRUMENT = _NullInstrument()
NULL_METRICS = NullMetrics()
