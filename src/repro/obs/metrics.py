"""Unified metrics registry: counters, gauges, histograms, one snapshot API.

Before this module, every benchmark and the service sampled the scattered
per-subsystem stats dataclasses (``SolverStats``, ``CacheStats``,
``StaticPruneStats``, ``ExecStats``, ...) directly -- each reader invented
its own field list, and readers that "reset" counters between samples
silently corrupted each other when a ``Solver`` was shared across batch or
portfolio runs.  The registry replaces all of that with three rules:

* **Counters are monotonic.**  Nothing ever zeroes a stat; interval
  readings are computed as the difference of two snapshots
  (:func:`counters_delta`), so concurrent readers cannot interfere.
* **One schema.**  :meth:`MetricsRegistry.snapshot` emits a versioned
  ``esd-metrics-v1`` document; ``repro bench --json``, the ``bench_*``
  scripts, and the service's ``/v1/metrics`` endpoint all emit exactly
  this shape.
* **Sampled sources.**  Existing stats dataclasses are not rewritten;
  :meth:`MetricsRegistry.bind_stats` registers a supplier callable and
  reads the dataclass fields at snapshot/scrape time (summing across
  instances when the supplier yields several, e.g. one solver per
  registered service program).

The registry also renders Prometheus text exposition format
(:meth:`MetricsRegistry.to_prometheus`) for the ``/metrics`` endpoint on
``repro serve``.  Zero dependencies; histograms use fixed bucket
boundaries chosen for solver-query and job latencies.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Iterable, Optional, Union

from ..schema import SchemaVersionError, check_schema_version

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS_FORMAT",
    "METRICS_SCHEMA_VERSION",
    "DEFAULT_TIME_BUCKETS",
    "check_metrics_document",
    "counters_delta",
    "unified_registry",
]

METRICS_FORMAT = "esd-metrics-v1"
METRICS_SCHEMA_VERSION = 1

# Fixed bucket boundaries (seconds) sized for both solver queries
# (typically 10us..10ms in this interpreter) and whole synthesis jobs
# (tens of ms to minutes).  Fixed so histograms are mergeable across
# runs and PRs.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing integer.  Never reset; read via snapshots."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help_: str = "") -> None:
        self.name = name
        self.help = help_
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value, either set directly or sampled via callback."""

    __slots__ = ("name", "help", "_value", "_fn")

    def __init__(self, name: str, help_: str = "",
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.help = help_
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Cumulative-bucket histogram with fixed boundaries.

    ``counts[i]`` is the number of observations <= ``buckets[i]``;
    a final implicit +Inf bucket catches the rest.  ``observe`` is a
    linear scan -- bucket lists are short and observation sites are not
    the executor hot loop.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count", "_lock")

    def __init__(self, name: str, help_: str = "",
                 buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> None:
        self.name = name
        self.help = help_
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            i = 0
            for bound in self.buckets:
                if value <= bound:
                    break
                i += 1
            self.counts[i] += 1
            self.sum += value
            self.count += 1


def _stat_fields(obj: Any) -> Iterable[tuple[str, Union[int, float]]]:
    """Numeric (name, value) pairs of a stats object.

    Dataclasses yield their int/float fields; plain dicts and objects
    with a ``to_dict`` yield the numeric entries of the dict.
    """
    if isinstance(obj, dict):
        for name, value in obj.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                yield name, value
        return
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                yield f.name, value
        return
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        for name, value in to_dict().items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                yield name, value


class _BoundStats:
    """A supplier of stats objects sampled at snapshot/scrape time."""

    __slots__ = ("prefix", "help", "supplier", "label")

    def __init__(self, prefix: str, supplier: Callable[[], Any],
                 help_: str = "", label: Optional[str] = None) -> None:
        self.prefix = prefix
        self.help = help_
        self.supplier = supplier
        self.label = label

    def sample(self) -> dict[str, Union[int, float]]:
        """Series name -> value, e.g. ``esd_exec_forks_total`` or, with a
        ``label``, ``esd_gc_collected_total{generation="0"}``."""
        produced = self.supplier()
        if produced is None:
            return {}
        if (isinstance(produced, dict) or dataclasses.is_dataclass(produced)
                or hasattr(produced, "to_dict")):
            produced = [produced]
        totals: dict[str, Union[int, float]] = {}
        for index, obj in enumerate(produced):
            if obj is None:
                continue
            labels = f'{{{self.label}="{index}"}}' if self.label else ""
            for name, value in _stat_fields(obj):
                series = f"{self.prefix}_{name}_total{labels}"
                totals[series] = totals.get(series, 0) + value
        return totals


class MetricsRegistry:
    """Named metrics plus sampled stats sources, one snapshot surface."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._bound: list[_BoundStats] = []

    # ------------------------------------------------------------------
    # Registration (get-or-create; name collisions across types are errors)

    def _check_free(self, name: str, own: dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(f"metric {name!r} already registered "
                                 f"with a different type")

    def counter(self, name: str, help_: str = "") -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_free(name, self._counters)
                metric = Counter(name, help_)
                self._counters[name] = metric
            return metric

    def gauge(self, name: str, help_: str = "",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_free(name, self._gauges)
                metric = Gauge(name, help_, fn=fn)
                self._gauges[name] = metric
            return metric

    def histogram(self, name: str, help_: str = "",
                  buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_free(name, self._histograms)
                metric = Histogram(name, help_, buckets=buckets)
                self._histograms[name] = metric
            return metric

    def bind_stats(self, prefix: str, supplier: Callable[[], Any],
                   help_: str = "", label: Optional[str] = None) -> None:
        """Absorb a stats dataclass (or iterable of them) as counters.

        At snapshot time the supplier is called and each numeric field
        ``f`` becomes the counter ``{prefix}_{f}_total``, summed across
        the supplied instances.  With ``label``, instances are not summed:
        the i-th becomes the series ``{prefix}_{f}_total{label="i"}``.
        The underlying dataclasses keep their cumulative semantics --
        nothing is reset, ever.
        """
        with self._lock:
            self._bound.append(_BoundStats(prefix, supplier, help_, label))

    # ------------------------------------------------------------------
    # Reading

    def _sampled_counters(self) -> dict[str, tuple[Union[int, float], str]]:
        out: dict[str, tuple[Union[int, float], str]] = {}
        with self._lock:
            bound = list(self._bound)
        for b in bound:
            for name, value in b.sample().items():
                prev = out.get(name)
                out[name] = ((prev[0] if prev else 0) + value, b.help)
        return out

    def snapshot(self, meta: Optional[dict[str, Any]] = None) -> dict[str, Any]:
        """All current values as an ``esd-metrics-v1`` document."""
        metrics: dict[str, Any] = {}
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        for c in counters:
            metrics[c.name] = {"type": "counter", "value": c.value}
        for name, (value, _help) in self._sampled_counters().items():
            metrics[name] = {"type": "counter", "value": value}
        for g in gauges:
            metrics[g.name] = {"type": "gauge", "value": g.value}
        for h in histograms:
            with h._lock:
                metrics[h.name] = {
                    "type": "histogram",
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
        return {
            "format": METRICS_FORMAT,
            "schema_version": METRICS_SCHEMA_VERSION,
            "meta": dict(meta) if meta else {},
            "metrics": {name: metrics[name] for name in sorted(metrics)},
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            counters = sorted(self._counters.values(), key=lambda m: m.name)
            gauges = sorted(self._gauges.values(), key=lambda m: m.name)
            histograms = sorted(self._histograms.values(), key=lambda m: m.name)
        for c in counters:
            if c.help:
                lines.append(f"# HELP {c.name} {c.help}")
            lines.append(f"# TYPE {c.name} counter")
            lines.append(f"{c.name} {c.value}")
        family = None
        for name, (value, help_) in sorted(self._sampled_counters().items()):
            base = name.partition("{")[0]
            if base != family:  # one header per family of labeled series
                family = base
                if help_:
                    lines.append(f"# HELP {family} {help_}")
                lines.append(f"# TYPE {family} counter")
            lines.append(f"{name} {_fmt(value)}")
        for g in gauges:
            if g.help:
                lines.append(f"# HELP {g.name} {g.help}")
            lines.append(f"# TYPE {g.name} gauge")
            lines.append(f"{g.name} {_fmt(g.value)}")
        for h in histograms:
            if h.help:
                lines.append(f"# HELP {h.name} {h.help}")
            lines.append(f"# TYPE {h.name} histogram")
            with h._lock:
                counts = list(h.counts)
                total = h.count
                total_sum = h.sum
            cumulative = 0
            for bound, count in zip(h.buckets, counts):
                cumulative += count
                lines.append(f'{h.name}_bucket{{le="{_fmt(bound)}"}} {cumulative}')
            lines.append(f'{h.name}_bucket{{le="+Inf"}} {total}')
            lines.append(f"{h.name}_sum {_fmt(total_sum)}")
            lines.append(f"{h.name}_count {total}")
        return "\n".join(lines) + "\n"


def _fmt(value: Union[int, float]) -> str:
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def check_metrics_document(data: dict[str, Any]) -> dict[str, Any]:
    """Validate the shape of an ``esd-metrics-v1`` document and return it."""
    if data.get("format") != METRICS_FORMAT:
        raise SchemaVersionError(
            f"not a metrics snapshot: format {data.get('format')!r} "
            f"(expected {METRICS_FORMAT!r})"
        )
    check_schema_version(data, METRICS_SCHEMA_VERSION, "metrics snapshot")
    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("metrics snapshot: 'metrics' must be an object")
    for name, entry in metrics.items():
        if not isinstance(entry, dict) or "type" not in entry:
            raise ValueError(f"metrics snapshot: malformed entry {name!r}")
        if entry["type"] in ("counter", "gauge") and "value" not in entry:
            raise ValueError(f"metrics snapshot: {name!r} has no value")
        if entry["type"] == "histogram":
            for key in ("buckets", "counts", "sum", "count"):
                if key not in entry:
                    raise ValueError(
                        f"metrics snapshot: histogram {name!r} missing {key!r}"
                    )
    return data


def unified_registry(*, solver: Any = None, solver_cache: Any = None,
                     statics: Any = None, executor: Any = None,
                     prune: Any = None) -> MetricsRegistry:
    """A registry pre-bound to the pipeline's stats objects under the
    canonical ``esd_*`` metric names.

    Every reader of solver/cache/static/executor counters -- ``repro
    bench --json``, the ``bench_*`` scripts, session-level reporting --
    goes through this one binding, so the field inventory lives in
    exactly one place.  Pass whichever handles the caller owns:

    * ``solver``       -- a :class:`repro.solver.Solver` (binds
      ``esd_solver_*``; its cache is picked up automatically unless
      ``solver_cache`` overrides it)
    * ``solver_cache`` -- a counterexample cache (``esd_solver_cache_*``
      plus the ``esd_solver_cache_hit_rate`` gauge)
    * ``statics``      -- a static-analysis cache (``esd_static_*``)
    * ``executor``     -- a symbolic executor (``esd_exec_*`` from its
      ``stats`` and ``esd_wp_*`` from its ``prune_stats``)
    * ``prune``        -- a ``StaticPruneStats`` when there is no live
      executor (``esd_wp_*``)
    """
    reg = MetricsRegistry()
    if solver is not None:
        reg.bind_stats("esd_solver", lambda: solver.stats,
                       help_="constraint solver counters")
        if solver_cache is None:
            solver_cache = getattr(solver, "cache", None)
    if solver_cache is not None:
        cache = solver_cache
        reg.bind_stats("esd_solver_cache", lambda: cache.stats,
                       help_="counterexample cache counters")
        reg.gauge("esd_solver_cache_hit_rate",
                  "fraction of cache lookups answered from the cache",
                  fn=lambda: cache.stats.hit_rate)
    if statics is not None:
        reg.bind_stats("esd_static", lambda: statics.stats,
                       help_="static-phase artifact cache counters")
    if executor is not None:
        reg.bind_stats("esd_exec", lambda: executor.stats,
                       help_="symbolic executor counters")
        if prune is None:
            prune = getattr(executor, "prune_stats", None)
    if prune is not None:
        prune_stats = prune
        reg.bind_stats("esd_wp", lambda: prune_stats,
                       help_="necessary-precondition pruning counters")
    return reg


def counters_delta(new: dict[str, Any], old: dict[str, Any]) -> dict[str, Union[int, float]]:
    """Per-counter difference between two ``esd-metrics-v1`` snapshots.

    This is the sanctioned way to measure an interval (a benchmark run, a
    batch member, a scrape period): take a snapshot before and after and
    subtract.  Counters absent from ``old`` are treated as starting at
    zero.  Gauges and histograms are skipped -- they are not interval
    quantities.
    """
    check_metrics_document(new)
    check_metrics_document(old)
    out: dict[str, Union[int, float]] = {}
    old_metrics = old["metrics"]
    for name, entry in new["metrics"].items():
        if entry.get("type") != "counter":
            continue
        before = old_metrics.get(name, {})
        base = before.get("value", 0) if before.get("type") == "counter" else 0
        out[name] = entry["value"] - base
    return out
