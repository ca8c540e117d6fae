"""Labeled counters, gauges and histograms for the observability layer.

The registry is deliberately small: three instrument kinds, each keyed by
``(name, labels)`` so one logical metric fans out into labeled series
(``messages_total{tag=srs}`` vs ``messages_total{tag=bruck}``), a flat
``snapshot()`` dict for benchmark reports, and a text ``summary_table()``
for humans.  Everything is guarded by one lock, so instruments can be
bumped from stage hooks, transports and (after merging) worker streams
without coordination.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _series_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge instead")
        self.value += amount

    def snapshot_value(self) -> float:
        return self.value


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot_value(self) -> float:
        return self.value


class Histogram:
    """Streaming summary statistics of an observed distribution."""

    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot_value(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe registry of labeled instrument series.

    >>> registry = MetricsRegistry()
    >>> registry.counter("messages_total", tag="srs").inc(3)
    >>> registry.counter("messages_total", tag="bruck").inc()
    >>> registry.gauge("resolved_k").set(10)
    >>> registry.histogram("wire_size").observe(40.0)
    >>> snap = registry.snapshot()
    >>> snap["messages_total{tag=srs}"], snap["resolved_k"]
    (3.0, 10.0)
    >>> snap["wire_size"]["count"]
    1
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: Dict[Tuple[str, LabelKey], Any] = {}
        self._kinds: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def _get(self, kind: str, name: str, labels: Dict[str, Any]) -> Any:
        key = (name, _label_key(labels))
        with self._lock:
            registered = self._kinds.get(name)
            if registered is not None and registered != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a {registered}, "
                    f"cannot reuse it as a {kind}")
            instrument = self._series.get(key)
            if instrument is None:
                instrument = _KINDS[kind]()
                self._series[key] = instrument
                self._kinds[name] = kind
            return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels)

    # ------------------------------------------------------------------
    def series(self, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """Every labeled series registered under ``name``."""
        with self._lock:
            return [(dict(key), instrument)
                    for (series, key), instrument in sorted(self._series.items())
                    if series == name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{"name{label=value}": value}`` dict of every series.

        Counter and gauge series snapshot to floats; histograms to a
        ``{count, sum, min, max, mean}`` dict.  The result is
        JSON-serialisable and deterministic (series sorted by name).
        """
        with self._lock:
            return {_series_name(name, key): instrument.snapshot_value()
                    for (name, key), instrument in sorted(self._series.items())}

    def summary_table(self) -> str:
        """Readable fixed-width table of the snapshot, one series per line."""
        lines = ["metric                                             value"]
        lines.append("-" * 60)
        for series, value in self.snapshot().items():
            if isinstance(value, dict):
                rendered = (f"count={value['count']} mean={value['mean']:.6g} "
                            f"max={value['max']:.6g}")
            else:
                rendered = f"{value:.6g}"
            lines.append(f"{series:<50} {rendered}")
        return "\n".join(lines)
