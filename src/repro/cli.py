"""The ``repro`` command-line front end (paper section 8's usage model).

One entry point; inline commands built on the session API::

    repro synth  <coredump.json> <program.minic> [--deadlock] [-o exec.json]
                 [--workers N] [--checkpoint ckpt.json]
    repro resume <ckpt.json> [-o exec.json] [--workers N]
    repro play   <program.minic> <exec.json> [--mode strict|happens-before]
                 [--coverage [cov.json]]
    repro repair <coredump.json> <program.minic> [-o patch.json]
                 [--passing N] [--suspects K] [--json]
    repro lint   (<program.minic> | --workload NAME) [--patch patch.json]
                 [--format text|json] [-o lint.json]
    repro analyze (<program.minic> | --workload NAME) [-o analysis.json]
    repro triage <program.minic> <coredump.json> [...] [--db triage.json]
    repro bench  [--workload ls1] [--reports 4] [--json]

plus the job-service commands built on :mod:`repro.service`::

    repro serve  [--port 8377] [--store DIR] [--max-workers N] [--spool DIR]
    repro submit (<coredump.json> <program.minic> | --workload NAME)
                 [--url URL] [--priority N] [--wait]
    repro status [JOB_ID] [--url URL] [--events] [--follow] [--json]
    repro fetch  JOB_ID [-o exec.json] [--url URL] [--wait] [--kind KIND]
    repro stats  [--url URL] [--prometheus] [--json]
    repro trace  TRACE_JSON [--chrome out.json] [--json]
    repro explain FLIGHT_JSON [--diff OTHER] [--json]

Observability: ``repro synth --trace PATH`` records a hierarchical span
trace (``esd-trace-v1``) of the whole synthesis -- static/search/solve
phases, search quanta, slow solver queries -- without perturbing the
output artifact (byte-identical either way).  ``repro trace`` summarizes
such a file and converts it to Chrome trace-event JSON for Perfetto.
``repro synth --flight PATH`` records the search flight log
(``esd-searchlog-v1``): one compact record per search decision -- pick
(queue, proximity score, cost deltas), lineage, and per-layer kill
attribution -- which ``repro explain`` turns into the goal path's
decision chain, per-subsystem budget spend, and A/B diffs of two runs.
``repro serve --trace``/``--flight`` record one trace/flight log per job
(``repro fetch --kind trace|flight``); ``repro status JOB --follow``
streams a running job's events live over server-sent events; ``repro
stats`` reads the live daemon's unified metrics registry (the same data
Prometheus scrapes from ``/metrics``).

The coredump file holds a serialized :class:`~repro.coredump.BugReport`
(``BugReport.to_dict``); the program is MiniC source; the execution file is
what ``repro synth`` writes and ``repro play`` (or the :class:`~repro.
debugger.Debugger`) consumes.  ``repro triage`` pushes a stream of reports
through one session -- static analysis runs once -- and deduplicates them
by synthesized-execution fingerprint; ``--db PATH`` persists the triage
database so deduplication accumulates across invocations.  ``repro bench``
measures session amortization on a bundled workload.  ``--json`` switches
triage and bench to machine-readable output on stdout for CI and
downstream tools.

``repro synth --workers N`` shards the path search across N worker
processes (work-stealing, first-win); ``--checkpoint PATH`` writes periodic
frontier checkpoints so ``repro resume PATH`` continues a killed or
budget-exhausted synthesis instead of restarting it.  With a checkpoint
path, SIGTERM/SIGINT trigger a final checkpoint and a clean exit (reason
``interrupted``) instead of losing the search.

``repro serve`` runs the job daemon: submit/status/events/result/cancel
over stdlib HTTP, artifacts in a content-addressed store, graceful
SIGTERM drain that re-queues in-flight jobs as resumable.  ``repro
submit|status|fetch`` are the matching client commands.

``repro lint`` runs the whole-module static lint (abstract-interpretation
bug smells, lockset/lock-order concurrency smells, IR hygiene) and exits
non-zero when findings exist; ``--patch`` applies a stored patch first so CI
can assert a repaired program lints clean.  ``repro analyze`` dumps the full
static pipeline -- CFGs, call graph, proximity costs, abstract-interpretation
and concurrency facts -- as one ``esd-analysis-v1`` JSON document.

``repro repair`` runs the automated-repair pipeline (spectrum-based fault
localization over stepper coverage, template/constraint patch synthesis,
paper-section-8 validation) and writes the validated patch as JSON;
``repro play --coverage`` emits the per-function/per-line hit counts the
localizer consumes.  ``repro submit --repair`` queues the same pipeline as
a service job whose patch lands in the artifact store (``repro fetch
--kind patch``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .api import ReproSession, UnknownStrategyError, available_searchers
from .core import ESDConfig, ExecutionFile, GoalError, TriageDatabase
from .coredump import BugReport
from .frontend import FrontendError
from .lang import CompileError, LexError, ParseError, compile_source
from .schema import SchemaVersionError
from .search import SynthesisEvent

# Everything loading a bad input file can raise: unreadable/malformed/
# wrong-shaped JSON (OSError, ValueError, KeyError, TypeError) or an
# uncompilable program (Lex/Parse/CompileError for MiniC, FrontendError
# for Python).  Deliberately NOT wrapped around the synthesis pipeline
# itself: an internal error there is a bug to surface, not a bad input to
# report politely (GoalError is the one input-shaped error synthesis
# raises, handled separately).
_INPUT_ERRORS = (
    OSError, ValueError, KeyError, TypeError, LexError, ParseError,
    CompileError, FrontendError,
)


def _describe(exc: BaseException) -> str:
    # str(KeyError) is just the quoted key; say what it means.  The missing
    # key may be in the report or the execution file, so stay generic.
    if isinstance(exc, KeyError):
        return f"input file is missing required field {exc}"
    return str(exc)


def _load_report(path: str) -> BugReport:
    return BugReport.from_dict(json.loads(Path(path).read_text()))


def _program_lang(path: str, lang: str | None) -> str:
    """An explicit ``--lang`` wins; otherwise the file extension decides
    (``.py`` is Python, everything else MiniC)."""
    if lang:
        return lang
    return "python" if path.endswith(".py") else "esd"


def _compile_program(path: str, lang: str | None):
    source = Path(path).read_text()
    name = Path(path).stem
    if _program_lang(path, lang) == "python":
        from .frontend import compile_python_source

        return compile_python_source(source, name)
    return compile_source(source, name)


def _make_session(program: str, trace: bool = False, flight: bool = False,
                  lang: str | None = None) -> ReproSession:
    return ReproSession(_compile_program(program, lang), trace=trace,
                        flight=flight)


def _make_config(args: argparse.Namespace) -> ESDConfig:
    """Build the synthesis config from CLI flags.

    Only the flags the user set override :class:`ESDConfig`'s defaults; in
    particular the 20M-instruction default budget survives a bare
    ``--max-seconds`` (the old CLI rebuilt the whole SearchBudget and
    silently shrank it to 2M).
    """
    config = ESDConfig(
        seed=args.seed,
        strategy=getattr(args, "strategy", "esd"),
        with_race_detection=getattr(args, "with_race_det", False),
    )
    if args.max_seconds is not None:
        config.budget.max_seconds = args.max_seconds
    if getattr(args, "max_instructions", None) is not None:
        config.budget.max_instructions = args.max_instructions
    return config


def _progress_printer(label: str):
    def on_event(event: SynthesisEvent) -> None:
        print(
            f"{label}: [{event.kind}] {event.instructions} instrs, "
            f"{event.states} states, {event.pending} pending, "
            f"{event.seconds:.1f}s"
            + (f" ({event.reason or event.detail})"
               if event.reason or event.detail else ""),
            file=sys.stderr,
        )

    return on_event


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _finish_synth(result, args: argparse.Namespace, label: str) -> int:
    """Common tail of synth/resume: report the outcome, save the artifact."""
    if not result.found:
        print(f"{label}: no execution found ({result.reason}); "
              f"explored {result.instructions} instructions "
              f"in {result.total_seconds:.1f}s", file=sys.stderr)
        if (getattr(args, "checkpoint", None)
                and result.reason in ("budget", "interrupted")):
            print(f"{label}: frontier checkpoint at {args.checkpoint}; "
                  f"continue with `repro resume {args.checkpoint}`",
                  file=sys.stderr)
        return 1
    assert result.execution_file is not None
    try:
        result.execution_file.save(args.output)
    except OSError as exc:
        print(f"{label}: cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    print(f"{label}: synthesized execution for: {result.execution_file.bug_summary}")
    print(f"{label}: static phase {result.static_seconds:.2f}s, "
          f"search {result.search_seconds:.2f}s, "
          f"{result.instructions} instructions explored")
    print(f"{label}: wrote {args.output}")
    return 0


def _run_synth(args: argparse.Namespace) -> int:
    label = "repro synth"
    on_progress = _progress_printer(label) if args.progress else None
    try:
        report = _load_report(args.coredump)
        if args.bug_type:
            report.bug_type = args.bug_type
        session = _make_session(args.program, trace=args.trace is not None,
                                flight=args.flight is not None, lang=args.lang)
    except _INPUT_ERRORS as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return 1
    from .distrib import DistribUnsupportedError

    try:
        result = session.synthesize(
            report, _make_config(args),
            on_progress=on_progress,
            workers=args.workers,
            checkpoint_path=args.checkpoint,
            checkpoint_interval=args.checkpoint_interval,
            # With a checkpoint path, SIGTERM/SIGINT write one final
            # checkpoint and exit cleanly instead of losing the search.
            handle_signals=bool(args.checkpoint),
        )
    except UnknownStrategyError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 2
    except DistribUnsupportedError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 2
    except GoalError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    if args.trace is not None:
        try:
            session.save_trace(args.trace)
        except OSError as exc:
            print(f"{label}: cannot write {args.trace}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"{label}: wrote span trace to {args.trace} "
              f"(inspect with `repro trace {args.trace}`)", file=sys.stderr)
    if args.flight is not None:
        try:
            session.save_flight(args.flight)
        except OSError as exc:
            print(f"{label}: cannot write {args.flight}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"{label}: wrote search flight log to {args.flight} "
              f"(inspect with `repro explain {args.flight}`)",
              file=sys.stderr)
    return _finish_synth(result, args, label)


def _run_resume(args: argparse.Namespace, label: str) -> int:
    from .distrib import CheckpointError, ExplorationCheckpoint

    on_progress = (
        _progress_printer(label) if getattr(args, "progress", False) else None
    )
    try:
        checkpoint = ExplorationCheckpoint.load(args.checkpoint_file)
    except CheckpointError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    if args.max_seconds is not None:
        checkpoint.config.budget.max_seconds = args.max_seconds
    if args.max_instructions is not None:
        checkpoint.config.budget.max_instructions = args.max_instructions
    session = ReproSession.from_checkpoint(checkpoint, on_progress=on_progress)
    print(f"{label}: resuming {checkpoint.module.name!r} with "
          f"{checkpoint.pending} frontier state(s), "
          f"{checkpoint.instructions} instructions already explored",
          file=sys.stderr)
    result = session.resume(
        checkpoint,
        workers=args.workers,
        checkpoint_path=args.checkpoint or args.checkpoint_file,
        checkpoint_interval=getattr(args, "checkpoint_interval", 5.0),
        handle_signals=True,
    )
    args.checkpoint = args.checkpoint or args.checkpoint_file
    return _finish_synth(result, args, label)


def _run_play(args: argparse.Namespace) -> int:
    label = "repro play"
    try:
        session = _make_session(args.program, lang=args.lang)
        execution = ExecutionFile.load(args.execution)
    except _INPUT_ERRORS as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return 1
    if args.coverage is not None:
        return _run_play_coverage(session, execution, args, label)
    result = session.play_back(execution, mode=args.mode)
    if result.bug is not None:
        print(f"{label}: reproduced {result.bug.summary()}")
    if result.output:
        print(f"{label}: program output:")
        for line in result.output:
            print(f"  {line}")
    if not result.bug_reproduced:
        print(f"{label}: execution did NOT reproduce the recorded bug",
              file=sys.stderr)
        return 1
    return 0


def _run_play_coverage(session, execution, args: argparse.Namespace,
                       label: str) -> int:
    """Replay through the stepper and emit per-function/per-line hit counts
    as JSON (stdout, or the path given to ``--coverage``)."""
    from .playback import PlaybackDivergenceError, collect_coverage

    try:
        coverage = collect_coverage(session.module, execution)
    except PlaybackDivergenceError as exc:
        print(f"{label}: coverage replay diverged: {exc}", file=sys.stderr)
        return 1
    payload = json.dumps(coverage.to_dict(), indent=2)
    if args.coverage == "-":
        print(payload)
    else:
        try:
            Path(args.coverage).write_text(payload + "\n")
        except OSError as exc:
            print(f"{label}: cannot write {args.coverage}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"{label}: wrote coverage for {coverage.steps} executed "
              f"instructions to {args.coverage}", file=sys.stderr)
    return 0


def _run_repair(args: argparse.Namespace, label: str) -> int:
    from .repair import LocalizationError, RepairConfig

    on_progress = (
        _progress_printer(label) if getattr(args, "progress", False) else None
    )
    try:
        report = _load_report(args.coredump)
        if args.bug_type:
            report.bug_type = args.bug_type
        session = _make_session(args.program, lang=getattr(args, "lang", None))
    except _INPUT_ERRORS as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return 1
    config = RepairConfig(
        max_suspects=args.suspects,
        passing_count=args.passing,
        formula=args.formula,
        esd=_make_config(args),
    )
    try:
        result = session.repair(report, config=config,
                                on_progress=on_progress)
    except UnknownStrategyError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 2
    except (GoalError, LocalizationError) as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps({
            "found": result.found,
            "reason": result.reason,
            "patch": result.patch.to_dict() if result.patch else None,
            "localization": (result.localization.to_dict()
                             if result.localization else None),
            "candidates_tried": result.candidates_tried,
            "seconds": round(result.seconds, 6),
        }, indent=2))
    else:
        if result.localization is not None:
            print(f"{label}: top suspects "
                  f"({result.localization.formula}, "
                  f"{result.localization.passing_count} passing run(s)):")
            for rank, suspect in enumerate(result.localization.top(5), 1):
                print(f"{label}:   #{rank} {suspect.function}:{suspect.line} "
                      f"score {suspect.score:.3f}"
                      + (" [end-site]" if suspect.boosted else ""))
        if result.found:
            validation = result.patch.validation
            print(f"{label}: PATCHED -- {result.patch.description}")
            print(f"{label}: validated: re-synthesis "
                  f"{validation.resynthesis_reason!r}, "
                  f"{len(validation.passing)} passing run(s) preserved "
                  f"({validation.identical_replays} byte-identical), "
                  f"{result.candidates_tried} candidate(s) tried "
                  f"in {result.seconds:.1f}s")
        else:
            print(f"{label}: no validated patch ({result.reason}); "
                  f"{result.candidates_tried} candidate(s) tried "
                  f"in {result.seconds:.1f}s", file=sys.stderr)
    if not result.found:
        return 1
    try:
        Path(args.output).write_text(
            json.dumps(result.patch.to_dict(), indent=2) + "\n"
        )
    except OSError as exc:
        print(f"{label}: cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    if not args.json:
        print(f"{label}: wrote {args.output}")
    return 0


def _run_triage(args: argparse.Namespace, label: str) -> int:
    as_json = getattr(args, "json", False)
    try:
        session = _make_session(args.program, lang=getattr(args, "lang", None))
    except _INPUT_ERRORS as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return 1
    db_path = getattr(args, "db", None)
    preloaded = 0
    if db_path and Path(db_path).exists():
        # Accumulate across invocations: new reports dedupe against every
        # bug the persisted database already knows.
        try:
            session.triage_db = TriageDatabase.load(db_path)
        except (SchemaVersionError, *_INPUT_ERRORS) as exc:
            print(f"{label}: cannot load triage db {db_path}: "
                  f"{_describe(exc)}", file=sys.stderr)
            return 1
        preloaded = len(session.triage_db)
    config = _make_config(args)
    failures = 0
    records = []
    for path in args.coredumps:
        record = {"report": str(path), "bug_id": None, "new": False,
                  "error": None, "reason": None, "seconds": None}
        records.append(record)
        try:
            report = _load_report(path)
            if getattr(args, "bug_type", None):
                report.bug_type = args.bug_type
        except _INPUT_ERRORS as exc:
            # One unreadable/malformed report must not abort the batch.
            failures += 1
            record["error"] = _describe(exc)
            print(f"{label}: {path}: {_describe(exc)}", file=sys.stderr)
            continue
        try:
            outcome = session.triage(report, config)
        except UnknownStrategyError as exc:
            # A config typo, not a per-report problem: no report would work.
            print(f"{label}: {exc}", file=sys.stderr)
            return 2
        except GoalError as exc:
            failures += 1
            record["error"] = str(exc)
            print(f"{label}: {path}: {exc}", file=sys.stderr)
            continue
        record["reason"] = outcome.result.reason
        record["seconds"] = round(outcome.result.total_seconds, 6)
        if outcome.bug_id is None:
            failures += 1
            record["error"] = f"synthesis failed ({outcome.result.reason})"
            print(f"{label}: {path}: synthesis failed "
                  f"({outcome.result.reason})", file=sys.stderr)
            continue
        record["bug_id"] = outcome.bug_id
        record["new"] = outcome.is_new
        entry = session.triage_db.entry(outcome.bug_id)
        record["patched"] = bool(entry is not None and entry.patched)
        if not as_json:
            status = "NEW" if outcome.is_new else "duplicate"
            patched = ", patched" if record["patched"] else ""
            print(f"{label}: {path} -> bug #{outcome.bug_id} ({status}{patched}, "
                  f"synthesized in {outcome.result.total_seconds:.2f}s)")
    if db_path:
        try:
            session.triage_db.save(db_path)
        except OSError as exc:
            print(f"{label}: cannot write triage db {db_path}: {exc}",
                  file=sys.stderr)
            return 1
    if as_json:
        print(json.dumps({
            "program": args.program,
            "reports": records,
            "distinct_bugs": len(session.triage_db),
            "patched_bugs": session.triage_db.patched_count,
            "preloaded_bugs": preloaded,
            "db": db_path,
            "failures": failures,
            "static_distance_builds": session.static_stats.distance_builds,
        }, indent=2))
    else:
        print(f"{label}: {len(session.triage_db)} distinct bug(s) "
              f"from {len(args.coredumps)} report(s)"
              + (f" + {preloaded} preloaded from {db_path}" if preloaded
                 else "")
              + f"; static analysis ran "
                f"{session.static_stats.distance_builds} time(s)")
        if db_path:
            patched = session.triage_db.patched_count
            print(f"{label}: triage db saved to {db_path} "
                  f"({len(session.triage_db)} bugs, "
                  f"{patched} patched, "
                  f"{len(session.triage_db) - patched} unpatched)")
    return 1 if failures else 0


def _load_lintable_module(args: argparse.Namespace, label: str):
    """The compile-then-maybe-patch front shared by lint and analyze.

    Returns the module or None (after printing the error).  ``--workload``
    compiles a bundled workload instead of a source file; ``--patch`` applies
    a stored ``esd-patch-v1`` document first, so CI can assert the patched
    variant of a seeded bug lints clean.
    """
    try:
        if getattr(args, "workload", None):
            if args.program:
                print(f"{label}: give either a program file or --workload, "
                      f"not both", file=sys.stderr)
                return None
            from .workloads import ALL, get

            if args.workload not in ALL:
                print(f"{label}: unknown workload {args.workload!r}; "
                      f"available: {', '.join(sorted(ALL))}", file=sys.stderr)
                return None
            module = get(args.workload).compile()
        elif args.program:
            module = _compile_program(args.program,
                                      getattr(args, "lang", None))
        else:
            print(f"{label}: need a program file or --workload NAME",
                  file=sys.stderr)
            return None
        if getattr(args, "patch", None):
            from .repair import Patch

            patch = Patch.from_dict(json.loads(Path(args.patch).read_text()))
            module = patch.apply_to(module)
    except (SchemaVersionError, *_INPUT_ERRORS) as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return None
    return module


def _run_lint(args: argparse.Namespace, label: str) -> int:
    from .analysis import lint_module

    module = _load_lintable_module(args, label)
    if module is None:
        return 2
    report = lint_module(module)
    payload = json.dumps(report.to_dict(), indent=2)
    if args.output:
        try:
            Path(args.output).write_text(payload + "\n")
        except OSError as exc:
            print(f"{label}: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
    if args.json or args.format == "json":
        print(payload)
    else:
        if report.clean:
            print(f"{label}: {module.name}: clean")
        else:
            for finding in report.findings:
                print(f"{label}: {module.name}: {finding.function}:"
                      f"{finding.line}: [{finding.rule}] {finding.message}")
            counts = ", ".join(f"{rule} x{count}" for rule, count
                               in sorted(report.by_rule().items()))
            print(f"{label}: {module.name}: "
                  f"{len(report.findings)} finding(s) ({counts})")
    return 0 if report.clean else 1


def _run_analyze(args: argparse.Namespace, label: str) -> int:
    from .analysis import analysis_document

    module = _load_lintable_module(args, label)
    if module is None:
        return 2
    goals = None
    if args.workload:
        # A bundled workload carries its bug report, so the document can
        # include the goal-directed sections (may-reach closure + the
        # necessary-precondition tables the executor prunes with).
        from .core import GoalError, extract_goal
        from .workloads import get

        try:
            goal = extract_goal(module, get(args.workload).make_report())
        except GoalError:
            pass  # e.g. a patch moved the faulting instruction
        else:
            goals = {goal.description or args.workload: goal.targets}
    document = analysis_document(module, goals=goals)
    payload = json.dumps(document, indent=2)
    if args.output and args.output != "-":
        try:
            Path(args.output).write_text(payload + "\n")
        except OSError as exc:
            print(f"{label}: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 2
        absint = document["absint"]
        concurrency = document["concurrency"]
        goal_note = (f", {len(document['goals'])} goal section(s)"
                     if "goals" in document else "")
        print(f"{label}: {module.name}: {len(document['functions'])} "
              f"function(s), {len(absint['branch_facts'])} folded branch(es), "
              f"{len(concurrency['order_edges'])} lock-order edge(s)"
              f"{goal_note}; wrote {args.output}", file=sys.stderr)
    else:
        print(payload)
    return 0


def _run_bench(args: argparse.Namespace, label: str) -> int:
    from .core import esd_synthesize
    from .workloads import ALL, get

    if args.workload not in ALL:
        print(f"{label}: unknown workload {args.workload!r}; "
              f"available: {', '.join(sorted(ALL))}", file=sys.stderr)
        return 2
    workload = get(args.workload)
    module = workload.compile()
    reports = [workload.make_report() for _ in range(args.reports)]
    config = ESDConfig()
    config.budget.max_seconds = args.max_seconds

    cold_started = time.perf_counter()
    cold = [esd_synthesize(module, r, config) for r in reports]
    cold_wall = time.perf_counter() - cold_started
    cold_static = sum(r.static_seconds for r in cold)

    session = ReproSession(module, config=config)
    warm_started = time.perf_counter()
    batch = session.synthesize_batch(reports)
    warm_wall = time.perf_counter() - warm_started
    warm_static = batch.static_seconds
    ok = all(r.found for r in batch) and all(r.found for r in cold)

    def finish(exit_code: int) -> int:
        """Common tail: append to / gate against the benchmark history."""
        if not getattr(args, "history", None):
            return exit_code
        from .obs.history import append_entry, compare_latest, render_compare

        path = append_entry(args.history, f"bench_{workload.name}", {
            "workload": workload.name,
            "reports": args.reports,
            "all_found": ok,
            "one_shot": {"static_seconds": cold_static,
                         "wall_seconds": cold_wall},
            "session": {"static_seconds": warm_static,
                        "wall_seconds": warm_wall},
        })
        print(f"{label}: bench history appended to {path}", file=sys.stderr)
        if getattr(args, "compare", False):
            report = compare_latest(path, max_ratio=args.max_regression)
            print(render_compare(report), file=sys.stderr)
            if not report["passed"]:
                return 1
        return exit_code

    if getattr(args, "json", False):
        # All counters read through one unified-registry snapshot (the
        # ``esd-metrics-v1`` schema every bench tool emits).
        from .obs import unified_registry

        registry = unified_registry(solver=session.solver,
                                    statics=session.statics)
        snap = registry.snapshot(meta={"tool": "repro bench",
                                       "workload": workload.name})
        metrics = snap["metrics"]

        def counter(name: str):
            return metrics.get(name, {}).get("value", 0)

        print(json.dumps({
            "workload": workload.name,
            "reports": args.reports,
            "all_found": ok,
            "one_shot": {"static_seconds": cold_static,
                         "wall_seconds": cold_wall},
            "session": {"static_seconds": warm_static,
                        "wall_seconds": warm_wall,
                        "distance_builds": counter(
                            "esd_static_distance_builds_total"),
                        "cache_hits": counter(
                            "esd_static_cache_hits_total")},
            "amortization": (cold_static / warm_static
                             if warm_static > 0 else None),
            "metrics": snap,
        }, indent=2))
        return finish(0 if ok else 1)

    print(f"{label}: workload {workload.name}, {args.reports} reports")
    print(f"{label}: one-shot API: static {cold_static*1000:8.2f}ms total "
          f"({cold_wall*1000:.2f}ms wall)")
    print(f"{label}: session API:  static {warm_static*1000:8.2f}ms total "
          f"({warm_wall*1000:.2f}ms wall, "
          f"{session.static_stats.distance_builds} distance build, "
          f"{session.static_stats.cache_hits} cache hits)")
    if warm_static > 0:
        print(f"{label}: static-phase amortization: "
              f"{cold_static / warm_static:.1f}x")
    sstats = session.solver_stats
    cstats = session.solver_cache_stats
    fast_total = sstats.fastpath_hits + sstats.fastpath_misses
    print(f"{label}: solver: {sstats.queries} queries, "
          f"{sstats.cache_hits} cache hits "
          f"({cstats.exact_hits} exact, "
          f"{cstats.unsat_superset_hits} unsat-superset, "
          f"{cstats.sat_subset_hits} sat-subset, "
          f"{cstats.unknown_hits} unknown), "
          f"{sstats.search_nodes} search nodes")
    if fast_total:
        print(f"{label}: model-reuse fast path: {sstats.fastpath_hits}/"
              f"{fast_total} branch queries "
              f"({100.0 * sstats.fastpath_hits / fast_total:.1f}% hit)")
    return finish(0 if ok else 1)


# ---------------------------------------------------------------------------
# Job-service subcommands (repro serve | submit | status | fetch)
# ---------------------------------------------------------------------------


def _service_url(args: argparse.Namespace) -> str:
    import os

    from .service.client import DEFAULT_URL

    return (getattr(args, "url", None)
            or os.environ.get("REPRO_SERVICE_URL")
            or DEFAULT_URL)


def _run_serve(args: argparse.Namespace, label: str) -> int:
    import signal

    from .service import ReproService
    from .service.daemon import ServiceDaemon
    from .store import ArtifactStore, StoreError

    try:
        store = ArtifactStore(args.store)
    except StoreError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    service = ReproService(store=store, max_workers=args.max_workers,
                           trace_jobs=args.trace,
                           record_flight=args.flight)
    try:
        daemon = ServiceDaemon(service, host=args.host, port=args.port,
                               spool_dir=args.spool, verbose=args.verbose)
    except OSError as exc:
        print(f"{label}: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1

    def on_signal(signum, frame):  # noqa: ARG001 -- signal API
        daemon.request_stop()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    if service.stats.recovered:
        print(f"{label}: recovered {service.stats.recovered} queued "
              f"job(s) from {args.store}", file=sys.stderr)
    print(f"{label}: listening on {daemon.url} "
          f"(store {args.store}, {args.max_workers} worker(s)"
          + (f", spool {args.spool}" if args.spool else "") + ")",
          file=sys.stderr, flush=True)
    daemon.run()
    stats = service.stats
    print(f"{label}: drained; {stats.completed} completed, "
          f"{stats.interrupted} checkpointed as resumable, "
          f"{stats.cancelled} cancelled", file=sys.stderr)
    return 0


def _run_submit(args: argparse.Namespace, label: str) -> int:
    from .api.jobs import JobSpec, SpecError
    from .service.client import ServiceClient, ServiceClientError

    kind = "repair" if getattr(args, "repair", False) else "synth"
    try:
        if args.workload:
            if args.coredump or args.program:
                print(f"{label}: give either --workload or "
                      f"coredump+program, not both", file=sys.stderr)
                return 2
            if getattr(args, "bug_type", None):
                # The report is generated server-side for workload jobs;
                # silently dropping the override would search a different
                # goal than asked for.
                print(f"{label}: --bug-type needs an explicit coredump "
                      f"(workload jobs use the workload's bug type)",
                      file=sys.stderr)
                return 2
            spec = JobSpec(workload=args.workload,
                           config=_make_config(args),
                           priority=args.priority,
                           kind=kind)
        else:
            if not (args.coredump and args.program):
                print(f"{label}: need a coredump and a program "
                      f"(or --workload NAME)", file=sys.stderr)
                return 2
            report = _load_report(args.coredump)
            if getattr(args, "bug_type", None):
                report.bug_type = args.bug_type
            spec = JobSpec(
                report=report,
                source=Path(args.program).read_text(),
                program_name=Path(args.program).stem,
                lang=_program_lang(args.program, getattr(args, "lang", None)),
                config=_make_config(args),
                priority=args.priority,
                kind=kind,
            )
        spec.validate()
    except (SpecError, *_INPUT_ERRORS) as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return 1
    client = ServiceClient(_service_url(args))
    try:
        record = client.submit(spec)
        if args.wait:
            record = client.wait(record["job_id"], timeout=args.timeout)
    except ServiceClientError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(f"{label}: job {record['job_id']} {record['state']}"
              + (" (deduplicated)" if record.get("deduped") else ""))
    if args.wait:
        return 0 if record.get("state") == "FOUND" else 1
    return 0


def _run_status(args: argparse.Namespace, label: str) -> int:
    from .service.client import ServiceClient, ServiceClientError

    client = ServiceClient(_service_url(args))
    try:
        if not args.job_id:
            jobs = client.jobs()
            if args.json:
                print(json.dumps(jobs, indent=2))
            else:
                for job in jobs:
                    print(f"{job['job_id']}  {job['state']:<10} "
                          f"prio {job['priority']:<3} "
                          f"{job.get('reason') or ''}")
                if not jobs:
                    print(f"{label}: no jobs", file=sys.stderr)
            return 0
        record = client.job(args.job_id)
        if args.follow:
            for event, data in client.stream(args.job_id, since=args.since):
                if args.json:
                    print(json.dumps({"event": event, "data": data}),
                          flush=True)
                elif event == "done":
                    print(f"{label}: job {data['job_id']}: {data['state']}"
                          + (f" ({data['reason']})" if data.get("reason")
                             else ""))
                else:
                    print(f"#{data.get('seq', 0):<4} {event:<9} "
                          f"{data.get('state') or '':<10} "
                          f"{data.get('detail') or ''}", flush=True)
            return 0
        if args.events:
            events = client.events(args.job_id, since=args.since)
            if args.json:
                print(json.dumps(events, indent=2))
            else:
                for event in events:
                    print(f"#{event['seq']:<4} {event['kind']:<9} "
                          f"{event.get('state') or '':<10} "
                          f"{event.get('detail') or ''}")
            return 0
        if args.json:
            print(json.dumps(record, indent=2))
        else:
            print(f"{label}: job {record['job_id']}: {record['state']}"
                  + (f" ({record['reason']})" if record.get("reason")
                     else ""))
            for kind, digest in record.get("artifacts", {}).items():
                print(f"{label}:   artifact {kind}: {digest}")
        return 0
    except ServiceClientError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1


def _run_fetch(args: argparse.Namespace, label: str) -> int:
    from .service.client import ServiceClient, ServiceClientError

    client = ServiceClient(_service_url(args))
    try:
        if args.wait:
            client.wait(args.job_id, timeout=args.timeout)
        data = client.fetch_job_artifact(args.job_id, kind=args.kind)
    except ServiceClientError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    try:
        Path(args.output).write_bytes(data)
    except OSError as exc:
        print(f"{label}: cannot write {args.output}: {exc}", file=sys.stderr)
        return 1
    print(f"{label}: wrote {args.output} ({len(data)} bytes)")
    return 0


def _run_stats(args: argparse.Namespace, label: str) -> int:
    """``repro stats``: the live service's unified metrics snapshot."""
    from .service.client import ServiceClient, ServiceClientError

    client = ServiceClient(_service_url(args))
    try:
        if args.prometheus:
            sys.stdout.write(client.metrics_text())
            return 0
        snapshot = client.metrics()
    except ServiceClientError as exc:
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2))
        return 0
    for name, entry in snapshot["metrics"].items():
        if entry["type"] == "histogram":
            mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
            print(f"{name:<44} count={entry['count']} "
                  f"sum={entry['sum']:.3f}s mean={mean:.4f}s")
        else:
            value = entry["value"]
            shown = (f"{value:.4f}" if isinstance(value, float)
                     and value != int(value) else f"{int(value)}")
            print(f"{name:<44} {shown}")
    return 0


def _run_trace(args: argparse.Namespace, label: str) -> int:
    """``repro trace``: summarize (and convert) an esd-trace-v1 file."""
    from .obs import chrome_trace, load_trace, phase_summary

    try:
        document = load_trace(args.trace_file)
    except (SchemaVersionError, *_INPUT_ERRORS) as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return 1
    if args.chrome:
        try:
            Path(args.chrome).write_text(
                json.dumps(chrome_trace(document)) + "\n"
            )
        except OSError as exc:
            print(f"{label}: cannot write {args.chrome}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"{label}: wrote Chrome trace-event JSON to {args.chrome} "
              f"(open in Perfetto / chrome://tracing)", file=sys.stderr)
    summary = phase_summary(document)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"{label}: {summary['spans']} span(s), {summary['jobs']} job(s), "
          f"{summary['total_seconds']:.3f}s total"
          + (f", {summary['dropped']} dropped" if summary["dropped"] else ""))
    total = summary["total_seconds"] or 1.0
    for phase, seconds in sorted(summary["phase_seconds"].items(),
                                 key=lambda kv: -kv[1]):
        print(f"{label}:   {phase:<10} {seconds:8.3f}s "
              f"({100.0 * seconds / total:5.1f}%)")
    print(f"{label}: phase coverage {100.0 * summary['coverage']:.1f}% "
          f"of job wall-clock")
    return 0


def _run_explain(args: argparse.Namespace, label: str) -> int:
    """``repro explain``: decision chain and budget attribution from an
    esd-searchlog-v1 flight log (or the ranked diff of two)."""
    from .obs import (
        diff_flights,
        explain_flight,
        load_flight,
        render_diff,
        render_explain,
    )

    try:
        document = load_flight(args.flight_file)
        other = load_flight(args.diff) if args.diff else None
    except (SchemaVersionError, *_INPUT_ERRORS) as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return 1
    if other is not None:
        report = diff_flights(document, other)
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_diff(report))
        return 0
    report = explain_flight(document)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_explain(report))
    return 0


def _corpus_programs(args: argparse.Namespace):
    """The corpus bases: the bundled fixed Python programs, or one source
    file given with ``--program``."""
    from .corpus import CorpusProgram, default_programs

    if getattr(args, "program", None):
        path = args.program
        return [CorpusProgram(
            name=Path(path).stem,
            source=Path(path).read_text(),
            lang=_program_lang(path, getattr(args, "lang", None)),
        )]
    return default_programs()


def _print_corpus_rates(doc: dict, label: str) -> None:
    header = (f"{'class':<12} {'sel':>4} {'man':>4} {'repro':>6} "
              f"{'top3':>6} {'repair':>7}")
    print(f"{label}: {header}")
    rows = list(doc.get("classes", {}).items()) + [("TOTAL", doc["totals"])]
    for cls, row in rows:
        print(f"{label}: {cls:<12} {row.get('selected', 0):>4} "
              f"{row['manifested']:>4} {row['repro_rate']:>6.2f} "
              f"{row['top3_rate']:>6.2f} {row['repair_rate']:>7.2f}")


def _run_corpus_cmd(args: argparse.Namespace, label: str) -> int:
    """``repro corpus generate|run|report``: the mutation bug corpus."""
    from .corpus import run_corpus, select_mutations

    if args.mode == "report":
        try:
            doc = json.loads(Path(args.input).read_text())
            if doc.get("schema") != "esd-corpus-v1":
                raise ValueError(
                    f"not an esd-corpus-v1 document "
                    f"(schema {doc.get('schema')!r})"
                )
        except _INPUT_ERRORS as exc:
            print(f"{label}: {_describe(exc)}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(
                {"schema": doc["schema"], "seed": doc["seed"],
                 "classes": doc.get("classes", {}), "totals": doc["totals"]},
                indent=2, sort_keys=True))
        else:
            print(f"{label}: seed {doc['seed']}, "
                  f"{doc['totals']['selected']} mutant(s) over "
                  f"{len(doc.get('programs', []))} program(s)")
            _print_corpus_rates(doc, label)
        return 0

    try:
        programs = _corpus_programs(args)
    except _INPUT_ERRORS as exc:
        print(f"{label}: {_describe(exc)}", file=sys.stderr)
        return 1

    if args.mode == "generate":
        # Enumerate and select, but run nothing: the mutant list itself.
        share = args.count // len(programs)
        extra = args.count % len(programs)
        payload = []
        for position, program in enumerate(programs):
            try:
                module = program.compile()
            except _INPUT_ERRORS as exc:
                print(f"{label}: {program.name}: {_describe(exc)}",
                      file=sys.stderr)
                return 1
            want = share + (1 if position < extra else 0)
            selection, total = select_mutations(
                module, args.seed + position, want)
            payload.append({
                "program": program.name,
                "lang": program.lang,
                "sites_total": total,
                "mutations": [m.to_dict() for m in selection],
            })
        blob = json.dumps(
            {"schema": "esd-corpus-mutations-v1", "seed": args.seed,
             "programs": payload},
            indent=2, sort_keys=True)
        if args.output and args.output != "-":
            Path(args.output).write_text(blob + "\n")
            print(f"{label}: wrote "
                  f"{sum(len(p['mutations']) for p in payload)} mutation(s) "
                  f"to {args.output}", file=sys.stderr)
        else:
            print(blob)
        return 0

    # mode == "run": the full pipeline.
    def on_progress(name, index, total, outcome):
        if args.progress:
            print(f"{label}: {name} {index}/{total} "
                  f"{outcome.mutation.kind} -> {outcome.status}",
                  file=sys.stderr)

    doc = run_corpus(
        seed=args.seed, count=args.count, programs=programs,
        repair_every=args.repair_every, on_progress=on_progress,
    )
    blob = json.dumps(doc, indent=2, sort_keys=True)
    if args.output and args.output != "-":
        try:
            Path(args.output).write_text(blob + "\n")
        except OSError as exc:
            print(f"{label}: cannot write {args.output}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"{label}: wrote {args.output}", file=sys.stderr)
    if args.json:
        print(blob)
    else:
        _print_corpus_rates(doc, label)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_lang_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lang", choices=("esd", "python"), default=None,
        help="program language (default: by extension -- .py is Python, "
             "anything else MiniC)",
    )


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    """The flags _make_config reads, shared by synth and triage.

    Budget flags default to None so only user-set values override
    :class:`ESDConfig`'s defaults (180s / 20M instructions)."""
    parser.add_argument("--max-seconds", type=float, default=None)
    parser.add_argument("--max-instructions", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strategy", default="esd", metavar="NAME",
        help=f"search strategy ({', '.join(available_searchers())})",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard the path search across N worker processes "
             "(default: serial, or the REPRO_WORKERS environment variable)",
    )


def _add_synth_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("coredump", help="bug report JSON (BugReport.to_dict)")
    parser.add_argument("program", help="MiniC or Python (.py) source file")
    _add_lang_flag(parser)
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--crash", action="store_const", const="crash", dest="bug_type")
    kind.add_argument(
        "--deadlock", action="store_const", const="deadlock", dest="bug_type"
    )
    kind.add_argument("--race", action="store_const", const="race", dest="bug_type")
    parser.add_argument(
        "--with-race-det", action="store_true",
        help="enable data-race detection during path synthesis",
    )
    parser.add_argument("-o", "--output", default="execution.json")
    _add_search_flags(parser)
    parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write periodic frontier checkpoints to PATH "
             "(continue a killed run with `repro resume PATH`)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=5.0, metavar="SECONDS",
        help="seconds between frontier checkpoints (default: 5)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print structured progress events to stderr",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a hierarchical span trace (esd-trace-v1 JSON) of the "
             "synthesis to PATH; inspect with `repro trace PATH`",
    )
    parser.add_argument(
        "--flight", default=None, metavar="PATH",
        help="record the search flight log (esd-searchlog-v1 JSON) to "
             "PATH; inspect with `repro explain PATH`",
    )


def _add_play_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="MiniC or Python (.py) source file")
    _add_lang_flag(parser)
    parser.add_argument("execution", help="execution file written by repro synth")
    parser.add_argument(
        "--mode", choices=("strict", "happens-before"), default="strict"
    )
    parser.add_argument(
        "--coverage", nargs="?", const="-", default=None, metavar="PATH",
        help="replay through the stepper and emit per-function/per-line "
             "hit counts as JSON (to PATH, or stdout when omitted)",
    )


def repro_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Execution synthesis: reproduce, replay, and triage bugs "
                    "from coredumps alone.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser(
        "synth", help="synthesize an execution that reproduces a reported bug"
    )
    _add_synth_args(synth)

    resume = sub.add_parser(
        "resume",
        help="continue a checkpointed synthesis (see `repro synth --checkpoint`)",
    )
    resume.add_argument("checkpoint_file",
                        help="checkpoint written by `repro synth --checkpoint`")
    resume.add_argument("-o", "--output", default="execution.json")
    resume.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker count (default: the checkpointed value)")
    resume.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="keep checkpointing to PATH "
                             "(default: the resumed file itself)")
    resume.add_argument("--checkpoint-interval", type=float, default=5.0,
                        metavar="SECONDS")
    resume.add_argument("--max-seconds", type=float, default=None,
                        help="fresh wall-clock budget for the resumed leg")
    resume.add_argument("--max-instructions", type=int, default=None,
                        help="fresh instruction budget for the resumed leg")
    resume.add_argument("--progress", action="store_true")

    play = sub.add_parser(
        "play", help="deterministically play back a synthesized execution"
    )
    _add_play_args(play)

    repair = sub.add_parser(
        "repair",
        help="localize the fault and synthesize a validated patch",
    )
    repair.add_argument("coredump", help="bug report JSON (BugReport.to_dict)")
    repair.add_argument("program", help="MiniC or Python (.py) source file")
    _add_lang_flag(repair)
    repair_kind = repair.add_mutually_exclusive_group()
    repair_kind.add_argument("--crash", action="store_const", const="crash",
                             dest="bug_type")
    repair_kind.add_argument("--deadlock", action="store_const",
                             const="deadlock", dest="bug_type")
    repair_kind.add_argument("--race", action="store_const", const="race",
                             dest="bug_type")
    repair.add_argument("-o", "--output", default="patch.json",
                        help="where to write the validated patch JSON")
    repair.add_argument("--passing", type=int, default=4, metavar="N",
                        help="passing executions to synthesize for the "
                             "coverage spectra (default: 4)")
    repair.add_argument("--suspects", type=int, default=5, metavar="K",
                        help="ranked suspects to attempt patches at "
                             "(default: 5)")
    repair.add_argument("--formula", choices=("ochiai", "tarantula"),
                        default="ochiai",
                        help="suspiciousness formula (default: ochiai)")
    repair.add_argument("--json", action="store_true",
                        help="machine-readable result on stdout")
    repair.add_argument("--progress", action="store_true",
                        help="print structured progress events to stderr")
    _add_search_flags(repair)

    lint = sub.add_parser(
        "lint",
        help="statically lint a program's IR (bug smells + hygiene)",
    )
    lint.add_argument("program", nargs="?", default=None,
                      help="MiniC or Python (.py) source file "
                           "(omit with --workload)")
    _add_lang_flag(lint)
    lint.add_argument("--workload", default=None, metavar="NAME",
                      help="lint a bundled workload instead of a file")
    lint.add_argument("--patch", default=None, metavar="PATCH_JSON",
                      help="apply a stored esd-patch-v1 document before "
                           "linting (CI checks patched variants stay clean)")
    lint.add_argument("-o", "--output", default=None, metavar="PATH",
                      help="also write the esd-lint-v1 JSON report to PATH")
    lint.add_argument("--format", choices=("text", "json"), default="text",
                      dest="format",
                      help="stdout format: human text (default) or the "
                           "esd-lint-v1 JSON document")
    lint.add_argument("--json", action="store_true",
                      help="alias for --format json")

    analyze = sub.add_parser(
        "analyze",
        help="dump the whole-module static analysis as esd-analysis-v1 JSON",
    )
    analyze.add_argument("program", nargs="?", default=None,
                         help="MiniC or Python (.py) source file "
                              "(omit with --workload)")
    _add_lang_flag(analyze)
    analyze.add_argument("--workload", default=None, metavar="NAME",
                         help="analyze a bundled workload instead of a file")
    analyze.add_argument("--patch", default=None, metavar="PATCH_JSON",
                         help="apply a stored esd-patch-v1 document first")
    analyze.add_argument("-o", "--output", default=None, metavar="PATH",
                         help="write the JSON document to PATH "
                              "(default: stdout)")

    triage = sub.add_parser(
        "triage", help="synthesize a stream of reports and deduplicate them"
    )
    triage.add_argument("program", help="MiniC or Python (.py) source file")
    _add_lang_flag(triage)
    triage.add_argument("coredumps", nargs="+",
                        help="bug report JSON files, one per incoming report")
    _add_search_flags(triage)
    triage.add_argument("--bug-type", default=None, dest="bug_type",
                        choices=("crash", "deadlock", "race"),
                        help="override every report's bug type")
    triage.add_argument("--db", default=None, metavar="PATH",
                        help="persistent triage database (JSON); loaded if "
                             "present, saved after the run, so dedup "
                             "accumulates across invocations")
    triage.add_argument("--json", action="store_true",
                        help="machine-readable results on stdout")

    bench = sub.add_parser(
        "bench", help="measure session-API static-phase amortization"
    )
    bench.add_argument("--workload", default="ls1",
                       help="bundled workload name (default: ls1)")
    bench.add_argument("--reports", type=int, default=4)
    bench.add_argument("--max-seconds", type=float, default=120.0)
    bench.add_argument("--json", action="store_true",
                       help="machine-readable results on stdout")
    bench.add_argument("--history", default=None, metavar="DIR",
                       help="append this run to the benchmark history in "
                            "DIR (esd-benchhistory-v1 JSONL, per host)")
    bench.add_argument("--compare", action="store_true",
                       help="with --history: gate this run against the "
                            "previous entry, exit 1 on regression")
    bench.add_argument("--max-regression", type=float, default=1.5,
                       metavar="RATIO",
                       help="latest/baseline ratio that fails --compare "
                            "(default: 1.5)")

    serve = sub.add_parser(
        "serve", help="run the job-service daemon (HTTP + artifact store)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8377)
    serve.add_argument("--store", default="repro-store", metavar="DIR",
                       help="artifact-store directory (default: repro-store)")
    serve.add_argument("--max-workers", type=int, default=2, metavar="N",
                       help="concurrent synthesis jobs (default: 2)")
    serve.add_argument("--spool", default=None, metavar="DIR",
                       help="also watch DIR for *.json job-spec files")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.add_argument("--trace", action="store_true",
                       help="record a span trace per job (fetched with "
                            "`repro fetch --kind trace`)")
    serve.add_argument("--flight", action="store_true",
                       help="record a search flight log per job (fetched "
                            "with `repro fetch --kind flight`, read with "
                            "`repro explain`)")

    submit = sub.add_parser(
        "submit", help="submit a synthesis job to a running `repro serve`"
    )
    submit.add_argument("coredump", nargs="?", default=None,
                        help="bug report JSON (omit with --workload)")
    submit.add_argument("program", nargs="?", default=None,
                        help="MiniC or Python (.py) source file "
                             "(omit with --workload)")
    _add_lang_flag(submit)
    submit.add_argument("--workload", default=None, metavar="NAME",
                        help="submit a bundled workload instead of files")
    submit.add_argument("--bug-type", default=None, dest="bug_type",
                        choices=("crash", "deadlock", "race"))
    submit.add_argument("--repair", action="store_true", dest="repair",
                        help="queue the automated-repair pipeline instead "
                             "of plain synthesis (patch lands in the store)")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs sooner (default: 0)")
    submit.add_argument("--url", default=None,
                        help="service URL (default: $REPRO_SERVICE_URL or "
                             "http://127.0.0.1:8377)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job is terminal")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up waiting after SECONDS")
    submit.add_argument("--json", action="store_true")
    _add_search_flags(submit)

    status = sub.add_parser(
        "status", help="job status (or the whole job list) from the daemon"
    )
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--url", default=None)
    status.add_argument("--events", action="store_true",
                        help="print the job's lifecycle/progress events")
    status.add_argument("--follow", action="store_true",
                        help="stream events live (server-sent events) "
                             "until the job is terminal")
    status.add_argument("--since", type=int, default=0,
                        help="only events after this sequence number")
    status.add_argument("--json", action="store_true")

    fetch = sub.add_parser(
        "fetch", help="download a job's artifact from the daemon"
    )
    fetch.add_argument("job_id")
    fetch.add_argument("-o", "--output", default="execution.json")
    fetch.add_argument("--kind", default="execution",
                       choices=("execution", "checkpoint", "spec", "patch",
                                "trace", "flight"))
    fetch.add_argument("--url", default=None)
    fetch.add_argument("--wait", action="store_true",
                       help="wait for the job to finish first")
    fetch.add_argument("--timeout", type=float, default=None)

    stats = sub.add_parser(
        "stats", help="unified metrics snapshot from a running `repro serve`"
    )
    stats.add_argument("--url", default=None,
                       help="service URL (default: $REPRO_SERVICE_URL or "
                            "http://127.0.0.1:8377)")
    stats.add_argument("--prometheus", action="store_true",
                       help="print the raw /metrics text exposition")
    stats.add_argument("--json", action="store_true",
                       help="print the esd-metrics-v1 snapshot as JSON")

    corpus = sub.add_parser(
        "corpus",
        help="mutation-generated bug corpus: seed bugs into correct "
             "programs and measure the pipeline on them",
    )
    corpus.add_argument("mode", choices=("generate", "run", "report"),
                        help="generate: write the selected mutation list; "
                             "run: execute the full pipeline and write the "
                             "esd-corpus-v1 document; report: summarize an "
                             "existing document")
    corpus.add_argument("input", nargs="?", default="corpus.json",
                        help="esd-corpus-v1 document to summarize "
                             "(report mode only; default: corpus.json)")
    corpus.add_argument("--program", default=None, metavar="FILE",
                        help="mutate one source file instead of the "
                             "bundled fixed Python programs")
    _add_lang_flag(corpus)
    corpus.add_argument("--seed", type=int, default=0,
                        help="mutation-selection seed (default: 0)")
    corpus.add_argument("--count", type=int, default=100, metavar="N",
                        help="mutants to select across programs "
                             "(default: 100)")
    corpus.add_argument("--repair-every", type=int, default=5, metavar="K",
                        dest="repair_every",
                        help="run repair on every K-th manifested mutant "
                             "per program (1 = all, 0 = none; default: 5)")
    corpus.add_argument("-o", "--output", default="corpus.json",
                        help="where to write the document / mutation list "
                             "('-' for stdout; default: corpus.json)")
    corpus.add_argument("--json", action="store_true",
                        help="machine-readable document on stdout")
    corpus.add_argument("--progress", action="store_true",
                        help="print per-mutant progress to stderr")

    trace = sub.add_parser(
        "trace", help="summarize an esd-trace-v1 span trace file"
    )
    trace.add_argument("trace_file",
                       help="trace JSON written by `repro synth --trace` or "
                            "fetched with `repro fetch --kind trace`")
    trace.add_argument("--chrome", default=None, metavar="PATH",
                       help="also convert to Chrome trace-event JSON "
                            "(Perfetto / chrome://tracing)")
    trace.add_argument("--json", action="store_true",
                       help="machine-readable phase summary on stdout")

    explain = sub.add_parser(
        "explain",
        help="explain a search from its esd-searchlog-v1 flight log",
    )
    explain.add_argument("flight_file",
                         help="flight log written by `repro synth --flight` "
                              "or fetched with `repro fetch --kind flight`")
    explain.add_argument("--diff", default=None, metavar="OTHER",
                         help="compare against a second flight log and rank "
                              "what moved")
    explain.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout")

    args = parser.parse_args(argv)
    if args.command == "synth":
        return _run_synth(args)
    if args.command == "resume":
        return _run_resume(args, "repro resume")
    if args.command == "play":
        return _run_play(args)
    if args.command == "repair":
        return _run_repair(args, "repro repair")
    if args.command == "lint":
        return _run_lint(args, "repro lint")
    if args.command == "analyze":
        return _run_analyze(args, "repro analyze")
    if args.command == "triage":
        return _run_triage(args, "repro triage")
    if args.command == "bench":
        return _run_bench(args, "repro bench")
    if args.command == "serve":
        return _run_serve(args, "repro serve")
    if args.command == "submit":
        return _run_submit(args, "repro submit")
    if args.command == "status":
        return _run_status(args, "repro status")
    if args.command == "fetch":
        return _run_fetch(args, "repro fetch")
    if args.command == "stats":
        return _run_stats(args, "repro stats")
    if args.command == "corpus":
        return _run_corpus_cmd(args, "repro corpus")
    if args.command == "trace":
        return _run_trace(args, "repro trace")
    if args.command == "explain":
        return _run_explain(args, "repro explain")
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(repro_main())
