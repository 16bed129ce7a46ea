"""The benchmark's workloads, and the child process that runs one of them.

``run.py`` never imports ``repro``; it starts this file in a fresh
interpreter for each step, so every measurement begins from a cold
process:

    python3 perfbench/workloads.py inputs WORKLOAD SEED OUT_JSON
    python3 perfbench/workloads.py setup  WORKLOAD INPUTS_JSON TMP_DIR
    python3 perfbench/workloads.py leg    WORKLOAD INPUTS_JSON TMP_DIR PASSES MODE

``inputs`` generates the seeded inputs (sources, coredumps, the job draw);
``setup`` times one set-up; ``leg`` sets up, runs one untimed warm-up
report, then PASSES timed passes over the workload's operations with
counters (MODE ``count``) or counters and spans (MODE ``trace``).  Each
prints one JSON object on stdout.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

# Search budgets: instruction and state caps decide every outcome; the
# wall-clock cap sits far above any expected run, so no timer does.
WALL_CAP_S = 600.0
DEEP_BUDGET = dict(max_instructions=2_000_000, max_states=200_000,
                   max_seconds=WALL_CAP_S)
REPAIR_BUDGET = dict(max_instructions=20_000_000, max_states=500_000,
                     max_seconds=WALL_CAP_S)
STREAM_BUDGET = dict(max_instructions=500_000, max_states=50_000,
                     max_seconds=WALL_CAP_S)

# wide-static: two BPF programs of Fig. 3's largest size.  The generator
# seeds are pinned: programs from other seeds differ in compile and search
# cost by up to 1.6x, which would put input variation into the spread.
# These two sit at the median cost of generator seeds 1-16.
BPF_SHAPE = dict(num_inputs=128, num_branches=2048, num_input_branches=2048,
                 num_threads=2, num_locks=2)
BPF_SEEDS = (12, 15)

# warm-stream: ls3 and ls4 stay out of the pool -- ls3 at some search seeds
# (290, 470, 948) exhausts a 1M-instruction budget after 10-15 s, and ls4
# is heavy-tailed in the searcher seed; one such job would swamp a stream
# of ~80 ms jobs.  Every (program, seed) pair below was checked to end FOUND.
STREAM_PROGRAMS = ("ls1", "ls2", "ghttpd", "minidb", "hawknl", "paste")
STREAM_SEEDS = tuple(range(30))
STREAM_JOBS_PER_PROGRAM = 20

# pyrlock's ground-truth fix (PYRLOCK_FIXED) hoists the release of
# ``master`` above ``real.acquire()`` in rl_enter; the candidate names the
# master acquire (line 14) whose critical section it closes.
PYRLOCK_FIX = ("unlock-hoist", "rl_enter", 14)


def _program(name: str, source: str, lang: str, report) -> dict:
    return {"name": name, "source": source, "lang": lang,
            "report": report.to_dict()}


def _registered(name: str) -> dict:
    from repro.workloads import get

    workload = get(name)
    return _program(name, workload.source, workload.lang,
                    workload.make_report())


def _compile(program: dict):
    if program["lang"] == "python":
        from repro.frontend import compile_python_source

        return compile_python_source(program["source"], program["name"])
    from repro.lang import compile_source

    return compile_source(program["source"], program["name"])


def _fresh_dir(tmp: Path) -> Path:
    """A new store directory: a persistent store recovers the jobs already
    in it, and a recovered job would answer a submission by dedup."""
    return Path(tempfile.mkdtemp(prefix="store-", dir=tmp))


def _budget(limits: dict):
    from repro.search import SearchBudget

    return SearchBudget(**limits)


def ir_instructions(modules) -> int:
    return sum(len(list(fn.iter_instructions()))
               for module in modules for fn in module.functions.values())


class Workload:
    """One workload: seeded inputs, a set-up, and the operations of a pass.

    ``nominal_pass_s`` is one pass's duration on the reference host (a
    2-core x86-64 VM); the number of passes in a run is derived from it and
    ``--seconds``, so both sides of a comparison do identical work.
    """

    name = ""
    nominal_pass_s = 1.0
    # Collect garbage before every timed operation, not just every pass.
    collect_per_operation = True

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, tmp: Path):
        """Import ``repro``, compile the programs, construct sessions or
        the service: everything ``setup_s`` times."""
        raise NotImplementedError

    def fresh(self, ctx) -> None:
        """Cold sessions/service for the next pass (untimed)."""

    def operations(self, ctx) -> list[tuple[str, Callable[[], dict]]]:
        raise NotImplementedError

    def check(self, ctx, records: list[dict]) -> dict[str, int]:
        """Untimed checks over a finished pass; returns pass-level
        counters compared across passes and legs."""
        return {}

    def close(self, ctx) -> None:
        pass


class ReproReports(Workload):
    """Per report, a cold ``ReproSession`` synthesizes and a strict playback
    must reproduce the bug (deep-search, wide-static)."""

    def setup(self, inputs: dict, tmp: Path):
        from repro.coredump import BugReport
        from repro.core import ESDConfig

        ctx = {
            "config": ESDConfig(budget=_budget(DEEP_BUDGET)),
            "modules": [_compile(p) for p in inputs["programs"]],
            "reports": [BugReport.from_dict(p["report"])
                        for p in inputs["programs"]],
            "names": [p["name"] for p in inputs["programs"]],
        }
        self.fresh(ctx)
        return ctx

    def fresh(self, ctx) -> None:
        from repro import ReproSession

        ctx["sessions"] = [ReproSession(m, config=ctx["config"])
                           for m in ctx["modules"]]

    def operations(self, ctx):
        def reproduce(session, report) -> dict:
            result = session.synthesize(report)
            if not result.found:
                return {"ok": False, "detail": f"search ended {result.reason}"}
            replay = session.play_back(result.execution_file, mode="strict")
            return {"ok": replay.bug_reproduced,
                    "detail": "" if replay.bug_reproduced
                    else "strict playback did not reproduce the bug"}

        return [(name, lambda s=session, r=report: reproduce(s, r))
                for name, session, report in
                zip(ctx["names"], ctx["sessions"], ctx["reports"])]


class DeepSearch(ReproReports):
    name = "deep-search"
    nominal_pass_s = 10.5

    def inputs(self, seed: int) -> dict:
        # Fixed inputs and search seed 0: ls4 is heavy-tailed in the
        # searcher seed (seed 2 exhausts a 2M-instruction budget).
        return {"programs": [_registered("ls4"), _registered("ghttpd-hard")]}


class WideStatic(ReproReports):
    name = "wide-static"
    nominal_pass_s = 7.5

    def inputs(self, seed: int) -> dict:
        # Fixed inputs, like deep-search: see BPF_SEEDS.
        from repro.bpf import BPFParams, generate

        programs = []
        for bpf_seed in BPF_SEEDS:
            workload = generate(BPFParams(**BPF_SHAPE, seed=bpf_seed)).workload
            programs.append(_program(workload.name, workload.source,
                                     workload.lang, workload.make_report()))
        return {"programs": programs}


class RepairValidate(Workload):
    name = "repair-validate"
    nominal_pass_s = 15.0

    def inputs(self, seed: int) -> dict:
        return {"program": _registered("pyrlock")}

    def setup(self, inputs: dict, tmp: Path):
        from repro.coredump import BugReport
        from repro.core import ESDConfig

        ctx = {
            "config": ESDConfig(budget=_budget(REPAIR_BUDGET)),
            "modules": [_compile(inputs["program"])],
            "report": BugReport.from_dict(inputs["program"]["report"]),
        }
        self.fresh(ctx)
        return ctx

    def fresh(self, ctx) -> None:
        from repro import ReproSession

        ctx["session"] = ReproSession(ctx["modules"][0], config=ctx["config"])

    def operations(self, ctx):
        def repair() -> dict:
            result = ctx["session"].repair(ctx["report"])
            if not result.found:
                return {"ok": False, "detail": f"repair ended {result.reason}",
                        "candidates_tried": result.candidates_tried}
            candidate = result.patch.candidate
            site = (candidate.kind, candidate.function, candidate.line)
            validation = result.patch.validation
            problems = []
            if site != PYRLOCK_FIX:
                problems.append(f"patch {site} is not the fix {PYRLOCK_FIX}")
            if validation.resynthesis_reason == "budget":
                problems.append("validation re-synthesis hit its budget")
            return {"ok": not problems, "detail": "; ".join(problems),
                    "candidates_tried": result.candidates_tried}

        return [("pyrlock", repair)]


class WarmStream(Workload):
    """Closed loop, one client: submit a wire ``JobSpec``, wait until the
    record is terminal, submit the next (``max_workers=1``)."""

    name = "warm-stream"
    nominal_pass_s = 10.0
    # A full collection costs ~50 ms on this heap, as much as a job; the
    # stream collects once per pass and pays its own gc like a service.
    collect_per_operation = False

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        jobs = [[name, s] for name in STREAM_PROGRAMS
                for s in rng.sample(STREAM_SEEDS, STREAM_JOBS_PER_PROGRAM)]
        rng.shuffle(jobs)
        return {"programs": [_registered(n) for n in STREAM_PROGRAMS],
                "jobs": jobs}

    def setup(self, inputs: dict, tmp: Path):
        from repro import JobSpec
        from repro.coredump import BugReport
        from repro.core import ESDConfig

        programs = {p["name"]: p for p in inputs["programs"]}
        reports = {name: BugReport.from_dict(p["report"])
                   for name, p in programs.items()}
        ctx = {
            "tmp": tmp,
            "programs": programs,
            "specs": [
                JobSpec(report=reports[name], source=programs[name]["source"],
                        program_name=name, lang=programs[name]["lang"],
                        config=ESDConfig(seed=seed,
                                         budget=_budget(STREAM_BUDGET)))
                for name, seed in inputs["jobs"]
            ],
        }
        self.fresh(ctx)
        return ctx

    def fresh(self, ctx) -> None:
        from repro import ReproService

        self.close(ctx)
        service = ReproService(store_root=_fresh_dir(ctx["tmp"]), max_workers=1)
        ctx["modules"] = [
            service.program_for_source(p["source"], name, lang=p["lang"]).module
            for name, p in ctx["programs"].items()
        ]
        ctx["service"] = service
        ctx["bytes_before"] = service.store.total_bytes()

    def operations(self, ctx):
        from repro.api.jobs import FOUND

        service = ctx["service"]

        def job(spec) -> dict:
            record = service.wait(service.submit(spec).job_id)
            result = record.result or {}
            return {
                "ok": record.state == FOUND,
                "detail": "" if record.state == FOUND
                else f"job ended {record.state} {record.reason}",
                "job_id": record.job_id,
                "queue_wait_s": (record.started_at or record.created_at)
                - record.created_at,
                "static_s": result.get("static_seconds", 0.0),
                "search_s": result.get("search_seconds", 0.0),
            }

        return [(spec.program_name, lambda s=spec: job(s))
                for spec in ctx["specs"]]

    def check(self, ctx, records: list[dict]) -> dict[str, int]:
        # Every FOUND job's stored execution must replay the bug.
        from repro.core.execfile import ExecutionFile
        from repro.playback import play_back

        service = ctx["service"]
        modules = {m.name: m for m in ctx["modules"]}
        for record in records:
            if not record["ok"]:
                continue
            execution = ExecutionFile.from_dict(json.loads(
                service.fetch_artifact(record["job_id"])))
            replay = play_back(modules[record["label"]], execution,
                               mode="strict")
            if not replay.bug_reproduced:
                record["ok"] = False
                record["detail"] = "stored execution did not replay the bug"
        return {"store.bytes_written":
                service.store.total_bytes() - ctx["bytes_before"]}

    def close(self, ctx) -> None:
        service = ctx.pop("service", None)
        if service is not None:
            service.shutdown(graceful=False, timeout=10.0)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (DeepSearch(), WideStatic(), RepairValidate(),
                        WarmStream())
}


# -- the child process -----------------------------------------------------------


def warm_up(tmp: Path) -> None:
    """One untimed report (tac) through a session and through the job
    service, so lazy imports do not land in the first timed operation."""
    from repro import JobSpec, ReproService, ReproSession
    from repro.workloads import get

    tac = get("tac")
    report = tac.make_report()
    session = ReproSession(tac.compile())
    result = session.synthesize(report)
    session.play_back(result.execution_file, mode="strict")
    service = ReproService(store_root=_fresh_dir(tmp), max_workers=1)
    try:
        service.wait(service.submit(JobSpec(report=report, source=tac.source,
                                            program_name="tac")).job_id)
    finally:
        service.shutdown(graceful=False, timeout=10.0)


# Host speed.  On a shared VM the same Python code runs up to 1.8x slower
# for minutes at a time (with no steal time reported), so end-to-end
# times are rescaled by a fixed loop timed in the same process at least
# every CALIBRATE_EVERY_S during a pass (outside the timed operations).
CALIBRATION_SAMPLES = 15
CALIBRATE_EVERY_S = 1.0


def _calibration_kernel(n: int = 60_000) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop that touches no program
    code and allocates no tracked objects: the host's speed now."""
    samples = []
    for _ in range(CALIBRATION_SAMPLES):
        start = time.perf_counter()
        _calibration_kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_pass(workload: Workload, ctx, probes) -> tuple[list[dict], list, dict,
                                                       list[float]]:
    """Time each operation of one pass; returns the records, the spans
    recorded inside operations, the pass-level counters and the host
    calibrations taken before, between and after the operations."""
    records = []
    calibrations = [calibrate()]
    calibrated_at = time.perf_counter()
    for index, (label, operation) in enumerate(workload.operations(ctx)):
        if time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S:
            calibrations.append(calibrate())
            calibrated_at = time.perf_counter()
        if index == 0 or workload.collect_per_operation:
            gc.collect()
        probes.begin_op(index)
        start = time.perf_counter()
        outcome = operation()
        seconds = time.perf_counter() - start
        counters = probes.end_op()
        records.append({"label": label, "seconds": seconds,
                        "counters": counters, **outcome})
    calibrations.append(calibrate())
    spans = probes.take_spans()
    pass_counters = workload.check(ctx, records)
    probes.take_spans()
    return records, spans, pass_counters, calibrations


def leg(workload: Workload, inputs: dict, tmp: Path, passes: int,
        mode: str) -> dict:
    from probes import Probes

    probes = Probes(trace=mode == "trace").install()
    ctx = workload.setup(inputs, tmp)
    setup_spans = probes.take_spans()
    warm_up(tmp)
    probes.take_spans()
    out_passes = []
    spans: list = []
    try:
        for number in range(passes):
            if number:
                workload.fresh(ctx)
            records, spans, pass_counters, calibrations = run_pass(
                workload, ctx, probes)
            out_passes.append({"ops": records, "counters": pass_counters,
                               "calibration_s": calibrations})
        modules = ctx["modules"]
    finally:
        workload.close(ctx)
    if mode == "trace":
        (tmp / "spans.json").write_text(json.dumps(
            {"setup": setup_spans, "timed": spans}))
    return {
        "passes": out_passes,
        "ir_instructions": ir_instructions(modules),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv: list[str]) -> int:
    role, name = argv[0], argv[1]
    workload = WORKLOADS[name]
    if role == "inputs":
        Path(argv[3]).write_text(json.dumps(workload.inputs(int(argv[2]))))
        print(json.dumps({"ok": True}))
        return 0
    inputs = json.loads(Path(argv[2]).read_text())
    tmp = Path(argv[3])
    if role == "setup":
        before = calibrate()
        start = time.perf_counter()
        ctx = workload.setup(inputs, tmp)
        seconds = time.perf_counter() - start
        workload.close(ctx)
        print(json.dumps({"setup_s": seconds,
                          "calibration_s": [before, calibrate()]}))
        return 0
    if role == "leg":
        print(json.dumps(leg(workload, inputs, tmp, int(argv[4]), argv[5])))
        return 0
    raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
