"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from ledger import (  # noqa: E402
    Span,
    add_counters,
    bench_counters,
    check_name,
    counter_mismatches,
    covered,
    inclusive_seconds,
    layer_seconds,
    percentile,
    reportable,
    samples_beyond,
    self_times,
)


def span(id, name, start, end, parent=None, job=None, worker=False):
    return Span(id, name, start, end, parent, job, worker)


class TestPercentiles:
    @pytest.mark.parametrize("n, p, beyond", [
        (19, 50, 9), (20, 50, 10), (99, 90, 9), (100, 90, 10), (150, 90, 15),
    ])
    def test_ten_samples_beyond_the_reported_percentile(self, n, p, beyond):
        assert samples_beyond(n, p) == beyond
        assert reportable(n, p) == (beyond >= 10)

    def test_nearest_rank(self):
        values = list(range(1, 11))
        assert percentile(values, 50) == 5
        assert percentile(values, 90) == 9
        assert percentile(reversed(values), 100) == 10
        assert percentile([7.0], 90) == 7.0


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [
            span(0, "outer", 0.0, 10.0),
            span(1, "inner", 1.0, 3.0, parent=0),
            span(2, "inner", 4.0, 8.0, parent=0),
            span(3, "leaf", 5.0, 6.0, parent=2),
        ]
        own = self_times(spans)
        assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0})
        # Self times tile the root span exactly.
        assert sum(own.values()) == pytest.approx(10.0)

    def test_worker_spans_are_children_of_the_waiting_client(self):
        spans = [
            span(0, "submit", 0.0, 1.0, job=7),
            span(1, "wait", 1.0, 10.0, job=7),
            span(2, "search", 0.5, 9.0, job=7, worker=True),
            span(3, "put", 9.0, 9.5, job=7, worker=True),
            span(4, "other-job", 2.0, 3.0, job=8, worker=True),
        ]
        own = self_times(spans)
        # The worker span straddling submit and wait is clipped to each.
        assert own[0] == pytest.approx(0.5)
        assert own[1] == pytest.approx(9.0 - 0.5 - 8.0)
        assert own[2] == pytest.approx(8.5)
        assert own[4] == pytest.approx(1.0)

    def test_overlapping_children_count_once(self):
        assert covered([(0, 2), (1, 3), (5, 6), (6, 6)]) == pytest.approx(4.0)
        spans = [span(0, "wait", 0.0, 4.0, job=1),
                 span(1, "a", 0.0, 2.0, job=1, worker=True),
                 span(2, "b", 1.0, 3.0, job=1, worker=True)]
        assert self_times(spans)[0] == pytest.approx(1.0)

    def test_layer_seconds_and_inclusive_time(self):
        spans = [
            span(0, "search", 0.0, 10.0),
            span(1, "check", 1.0, 2.0, parent=0),
            span(2, "model", 3.0, 5.0, parent=0),
            span(3, "check", 3.5, 4.5, parent=2),
            span(4, "search", 6.0, 7.0, parent=0),
        ]
        ledger = layer_seconds(spans, {"check": "solver", "model": "solver"})
        assert ledger == pytest.approx({"solver": 3.0, "search": 7.0})
        # A search nested in a search is not counted twice.
        assert inclusive_seconds(spans, "search") == pytest.approx(10.0)


class TestNames:
    @pytest.mark.parametrize("name", [
        "setup_s", "solver.us_per_query", "deep-search", "0x", "a" * 64])
    def test_accepted(self, name):
        assert check_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "a b", "_lead", ".lead", "per/layer", "a" * 65, "métrique"])
    def test_rejected(self, name):
        with pytest.raises(ValueError):
            check_name(name)

    def test_declared_metrics_and_workloads(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for kind in ("end_to_end", "per_layer")
                 for m in spec[kind]]
        names += [w["name"] for w in spec["workloads"]]
        assert len(names) == len(set(names))
        for name in names:
            check_name(name)
        from workloads import WORKLOADS

        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    def test_layer_map_covers_every_metric_once(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((BENCH / "layers.json").read_text())
        workloads = {w["name"] for w in spec["workloads"]}
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        mapped = [m for row in layers["layers"] for m in row["metrics"]]
        assert sorted(mapped) == sorted(m["name"] for m in spec["per_layer"])
        assert set(layers["workloads"]) == workloads
        assert set(layers["end_to_end"]) == end_to_end
        for row in layers["layers"]:
            assert set(row["should_move"]) <= end_to_end
            assert set(row["on"]) | set(row["no_change_on"]) <= workloads
            assert not set(row["on"]) & set(row["no_change_on"])


class TestPasses:
    @pytest.mark.parametrize("seconds, nominal, passes", [
        (18, 15.0, 2), (18, 10.5, 2), (18, 7.5, 2), (60, 10.0, 6)])
    def test_every_run_repeats_its_pass(self, seconds, nominal, passes):
        from run import passes_for

        assert passes_for(seconds, nominal) == passes

    def test_walls_are_rescaled_to_reference_speed(self):
        from run import REFERENCE_CALIBRATION_S, at_reference_speed

        slow = 1.8 * REFERENCE_CALIBRATION_S
        assert at_reference_speed([9.0, 5.0], [slow, REFERENCE_CALIBRATION_S]) \
            == pytest.approx([5.0, 5.0])


class TestCounters:
    def test_bench_counters_fold_esd_counters(self):
        delta = {
            "esd_solver_queries_total": 5,
            "esd_solver_cache_exact_hits_total": 2,
            "esd_solver_cache_sat_subset_hits_total": 1,
            "esd_search_instructions_total": 100,
            "esd_unrelated_total": 9,
        }
        counters = bench_counters(delta)
        assert counters["solver.queries"] == 5
        assert counters["solver.cache_hits"] == 3
        assert counters["symbex.instructions"] == 100
        assert counters["symbex.forks"] == 0

    def test_add_and_compare(self):
        total = add_counters({}, {"a": 1, "b": 2})
        add_counters(total, {"a": 3})
        assert total == {"a": 4, "b": 2}
        assert counter_mismatches(total, {"a": 4, "b": 2}) == []
        assert counter_mismatches(total, {"a": 4, "c": 1}) == ["b", "c"]

    def test_counters_identical_with_and_without_tracing(self, tmp_path):
        """The same operation counted in two fresh interpreters, once with
        every span wrapper installed, gives identical counters."""
        script = textwrap.dedent("""
            import json, sys
            from probes import Probes
            probes = Probes(trace=sys.argv[1] == "trace").install()
            from repro import ReproSession
            from repro.workloads import get
            ls1 = get("ls1")
            session = ReproSession(ls1.compile())
            probes.begin_op(0)
            result = session.synthesize(ls1.make_report())
            counters = probes.end_op()
            assert result.found
            print(json.dumps({"counters": counters,
                              "spans": len(probes.take_spans())}))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(BENCH), str(ROOT / "src")]), PYTHONHASHSEED="0")
        runs = {}
        for mode in ("count", "trace"):
            proc = subprocess.run([sys.executable, "-c", script, mode],
                                  env=env, capture_output=True, text=True,
                                  timeout=120, check=True)
            runs[mode] = json.loads(proc.stdout.strip().splitlines()[-1])
        count, trace = runs["count"], runs["trace"]
        assert count["counters"]["symbex.instructions"] > 0
        assert count["counters"]["solver.queries"] > 0
        assert count["counters"] == trace["counters"]
        assert count["spans"] == 0 and trace["spans"] > 0
