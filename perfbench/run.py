"""The repository benchmark: one workload per run, correctness checked on
every operation, end-to-end metrics from untraced runs and a per-layer
ledger from a separate traced run.

    python3 perfbench/run.py --workload deep-search --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 1

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics
(an untraced and a traced leg of one pass each).  End-to-end times are
wall times rescaled to the reference host's speed (``at_reference_speed``);
the raw walls are printed beside them.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Every step runs in a fresh interpreter (``workloads.py``); this process
never imports the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import (
    add_counters,
    check_name,
    counter_mismatches,
    inclusive_seconds,
    layer_seconds,
    percentile,
    reportable,
    samples_beyond,
    Span,
)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Passes per untraced run: at least two, so the counters of repeated passes
# are compared on every workload.
MIN_PASSES = 2
# The calibration loop's median time (workloads.calibrate) on the reference
# host, a 2-vCPU x86-64 VM running Python 3.11, when it is not slowed down.
REFERENCE_CALIBRATION_S = 0.004
RUN_DEADLINE_S = 170.0

# Span name -> layer; a layer's time is the self time of its spans.
LAYER_OF = {
    "compile_source": "lang",
    "compile_python_source": "frontend",
    "build_search_setup": "analysis",
    "search_from_setup": "symbex",
    "searcher.add": "search",
    "searcher.pick": "search",
    "Solver.check": "solver",
    "Solver.model": "solver",
    "play_back": "playback",
    "synthesize_passing_executions": "repair.passing",
    "localize": "repair.localize",
    "validate_patch": "repair.validate",
    "ReproSession.repair": "repair.screen",
    "ReproSession.synthesize": "api",
    "ReproService.submit": "service",
    "ReproService.wait": "service",
    "ArtifactStore.put_bytes": "store",
}


class BenchError(Exception):
    pass


def declared_metrics() -> dict[str, dict[str, str]]:
    """``end_to_end`` and ``per_layer`` metric name -> unit, from
    BENCHMARK.json (the single list of what a run reports)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {check_name(m["name"]): m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


class Runner:
    """Starts the child steps of one run, each with what is left of the
    run's deadline as its timeout."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.env.pop("REPRO_WORKERS", None)

    def step(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), *args],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"step {args[0]} {args[1]} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"step {args[0]} {args[1]} failed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def passes_for(seconds: int, nominal_pass_s: float) -> int:
    """Passes in a run: a deterministic function of ``--seconds``, so both
    sides of a comparison do the same work."""
    return max(MIN_PASSES, round(seconds / nominal_pass_s))


def at_reference_speed(walls: list[float], calibrations: list[float]) -> list[float]:
    """Wall seconds rescaled to the reference host's speed: each wall times
    REFERENCE_CALIBRATION_S over the calibration measured around it."""
    return [wall * REFERENCE_CALIBRATION_S / cal
            for wall, cal in zip(walls, calibrations)]


def _ops(leg: dict) -> list[dict]:
    return [op for p in leg["passes"] for op in p["ops"]]


def _wall(pass_: dict) -> float:
    return sum(op["seconds"] for op in pass_["ops"])


def counter_problems(reference: dict, other: dict, what: str) -> list[str]:
    """Counters of ``other``'s passes that differ from ``reference``'s first
    pass, operation by operation."""
    problems = []
    base = reference["passes"][0]
    for number, pass_ in enumerate(other["passes"]):
        for index, (a, b) in enumerate(zip(base["ops"], pass_["ops"])):
            diff = counter_mismatches(a["counters"], b["counters"])
            if diff:
                problems.append(f"{what} pass {number} op {index} "
                                f"({a['label']}): {', '.join(diff)} differ")
        diff = counter_mismatches(base["counters"], pass_["counters"])
        if diff:
            problems.append(f"{what} pass {number}: {', '.join(diff)} differ")
    return problems


def end_to_end(runner: Runner, name: str, inputs: Path, seconds: int) -> tuple:
    workload = WORKLOADS[name]
    setup_steps = [runner.step("setup", name, str(inputs), str(runner.tmp))
                   for _ in range(SETUP_SAMPLES)]
    setups = [s["setup_s"] for s in setup_steps]
    passes = passes_for(seconds, workload.nominal_pass_s)
    leg = runner.step("leg", name, str(inputs), str(runner.tmp), str(passes),
                      "count")
    walls = [_wall(p) for p in leg["passes"]]
    setup_cal = [statistics.median(s["calibration_s"]) for s in setup_steps]
    pass_cal = [statistics.median(p["calibration_s"]) for p in leg["passes"]]
    metrics = {
        "setup_s": statistics.median(at_reference_speed(setups, setup_cal)),
        "time_to_result_s": statistics.median(at_reference_speed(walls,
                                                                 pass_cal)),
        "peak_rss_mb": leg["peak_rss_mb"],
    }

    def listed(values, unit=1.0):
        return ", ".join(f"{v * unit:.3f}" for v in values)

    notes = [
        f"setup_s: median of {len(setups)} fresh interpreters, wall "
        f"({listed(setups)}) s, calibration ({listed(setup_cal, 1e3)}) ms",
        f"time_to_result_s: median of {len(walls)} pass(es), wall "
        f"({listed(walls)}) s, calibration ({listed(pass_cal, 1e3)}) ms, "
        f"{len(leg['passes'][0]['ops'])} operation(s) per pass",
    ]
    return metrics, [leg], counter_problems(leg, leg, "untraced"), notes


def per_layer(runner: Runner, name: str, inputs: Path) -> tuple:
    args = ("leg", name, str(inputs), str(runner.tmp), "1")
    untraced = runner.step(*args, "count")
    traced = runner.step(*args, "trace")
    spans_doc = json.loads((runner.tmp / "spans.json").read_text())
    setup_spans = [Span(*s) for s in spans_doc["setup"]]
    timed = [Span(*s) for s in spans_doc["timed"]]

    layers = layer_seconds(timed, LAYER_OF)
    compile_layers = layer_seconds(setup_spans, LAYER_OF)
    counters: dict[str, int] = {}
    for op in _ops(traced):
        add_counters(counters, op["counters"])
    add_counters(counters, traced["passes"][0]["counters"])
    untraced_wall = _wall(untraced["passes"][0])
    traced_wall = _wall(traced["passes"][0])
    jobs = [op for op in _ops(untraced) if "job_id" in op]
    latencies = [op["seconds"] for op in jobs]

    def ratio(numerator: float, base: float, scale: float = 1.0) -> float:
        return numerator / base * scale if base else 0.0

    metrics = {
        "lang.compile_s": compile_layers.get("lang", 0.0),
        "frontend.compile_s": compile_layers.get("frontend", 0.0),
        "ir.instructions": traced["ir_instructions"],
        "analysis.static_s": layers.get("analysis", 0.0),
        "analysis.distance_builds": counters["analysis.distance_builds"],
        "analysis.goal_computes": counters["analysis.goal_computes"],
        "analysis.cache_hits": counters["analysis.cache_hits"],
        "search.explore_s": inclusive_seconds(timed, "search_from_setup"),
        "search.searcher_s": layers.get("search", 0.0),
        "search.picks": sum(s.name == "searcher.pick" for s in timed),
        "search.states_explored": counters["search.states_explored"],
        "search.states_pruned": counters["search.states_pruned"],
        "symbex.s": layers.get("symbex", 0.0),
        "symbex.instructions": counters["symbex.instructions"],
        "symbex.forks": counters["symbex.forks"],
        "symbex.states_created": counters["symbex.states_created"],
        "symbex.us_per_instr": ratio(layers.get("symbex", 0.0),
                                     counters["symbex.instructions"], 1e6),
        "concurrency.sched_forks": counters["concurrency.sched_forks"],
        "solver.s": layers.get("solver", 0.0),
        "solver.queries": counters["solver.queries"],
        "solver.search_nodes": counters["solver.search_nodes"],
        "solver.fastpath_hits": counters["solver.fastpath_hits"],
        "solver.cache_lookups": counters["solver.cache_lookups"],
        "solver.cache_hits": counters["solver.cache_hits"],
        "solver.cache_hit_rate": ratio(counters["solver.cache_hits"],
                                       counters["solver.cache_lookups"]),
        "solver.us_per_query": ratio(layers.get("solver", 0.0),
                                     counters["solver.queries"], 1e6),
        "playback.s": layers.get("playback", 0.0),
        "repair.passing_s": layers.get("repair.passing", 0.0),
        "repair.localize_s": layers.get("repair.localize", 0.0),
        "repair.validate_s": layers.get("repair.validate", 0.0),
        "repair.screen_s": layers.get("repair.screen", 0.0),
        "repair.candidates_tried": sum(op.get("candidates_tried", 0)
                                       for op in _ops(traced)),
        "api.session_s": layers.get("api", 0.0),
        "service.s": layers.get("service", 0.0),
        "service.jobs": len(jobs),
        "service.job_p50_s": (percentile(latencies, 50)
                              if reportable(len(latencies), 50) else 0.0),
        "service.job_p90_s": (percentile(latencies, 90)
                              if reportable(len(latencies), 90) else 0.0),
        "service.queue_wait_s": sum(op["queue_wait_s"] for op in jobs),
        "service.overhead_s": sum(op["seconds"] - op["static_s"] - op["search_s"]
                                  for op in jobs),
        "store.put_s": layers.get("store", 0.0),
        "store.bytes_written": counters.get("store.bytes_written", 0),
        "obs.untraced_wall_s": untraced_wall,
        "obs.traced_wall_s": traced_wall,
        "obs.trace_overhead": ratio(traced_wall, untraced_wall),
        "obs.coverage": ratio(sum(layers.values()), traced_wall),
        "obs.spans": len(timed),
    }
    notes = [f"{'layer':<16}{'self s':>10}{'share':>8}"]
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        notes.append(f"{layer:<16}{value:>10.3f}{ratio(value, traced_wall):>8.1%}")
    notes.append(f"layer self times cover {metrics['obs.coverage']:.1%} of the "
                 f"traced wall ({traced_wall:.3f} s); tracing overhead "
                 f"{metrics['obs.trace_overhead']:.3f} = {traced_wall:.3f} s "
                 f"traced / {untraced_wall:.3f} s untraced")
    if jobs:
        notes.append(f"job latency over {len(jobs)} jobs: p50 "
                     f"{metrics['service.job_p50_s']:.4f} s, p90 "
                     f"{metrics['service.job_p90_s']:.4f} s "
                     f"({samples_beyond(len(jobs), 90)} samples beyond p90)")
    problems = counter_problems(untraced, traced, "traced")
    return metrics, [untraced, traced], problems, notes


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    tmp = ROOT / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        runner = Runner(tmp)
        inputs = tmp / "inputs.json"
        runner.step("inputs", name, str(seed), str(inputs))
        if trace:
            values, legs, problems, notes = per_layer(runner, name, inputs)
        else:
            values, legs, problems, notes = end_to_end(runner, name, inputs,
                                                       seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if set(values) != set(declared):
        raise BenchError(f"metrics {sorted(set(values) ^ set(declared))} do not "
                         f"match BENCHMARK.json")
    ops = [op for leg in legs for op in _ops(leg)]
    failed = [op for op in ops if not op["ok"]]
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}  "
          f"nproc={os.cpu_count()}  python={platform.python_version()}")
    for metric, unit in declared.items():
        print(f"  {metric:<26}{values[metric]:>16.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(f"  ops attempted {len(ops)}, failed {len(failed)}")
    for op in failed:
        print(f"  FAILED {op['label']}: {op['detail']}")
    for problem in problems:
        print(f"  COUNTER MISMATCH {problem}")
    return {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running step, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
