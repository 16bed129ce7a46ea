"""Explain a search from its flight log: why the goal path won, where
the budget went, and why two runs differ.

Consumes ``esd-searchlog-v1`` documents (:mod:`repro.obs.flight`) and
answers the three questions a search log exists for:

* **Decision chain** -- reconstruct the goal state's lineage (root to
  goal) and, for every ancestor, the picks that advanced it: which
  virtual queue selected it, at what combined proximity score, and what
  each selection cost in instructions and solver queries.  This is the
  paper's proximity-guidance story told on a concrete run.
* **Budget attribution** -- aggregate spend per function (from pick
  records) and per subsystem (from termination/kill tags: weakest-
  precondition kills, solver-refuted paths, the step limit, distance-INF
  abandonment, scheduler dead ends), so "where did my 2M instructions
  go" has a one-screen answer.
* **Diff** -- compare two logs of the same (or a changed) workload and
  rank what moved: picks, explored states, per-reason terminations,
  per-function spend.  "Why did this run explore 3x the states" becomes
  a sorted table instead of a guess.

Everything here is a pure function of the document; nothing imports the
executor or searcher, so logs from old runs stay explainable.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from .flight import KILL_SUBSYSTEM, check_flight_document

__all__ = [
    "explain_flight",
    "diff_flights",
    "render_explain",
    "render_diff",
]

Num = Union[int, float]


def _subsystem(reason: str, why: str) -> str:
    """Fold a termination (reason, killing layer) into a subsystem name."""
    if why:
        return KILL_SUBSYSTEM.get(why, why)
    if reason == "infeasible":
        # No layer labelled the kill: a feasibility probe refuted the path.
        return KILL_SUBSYSTEM["path-constraint"]
    if reason == "exited":
        return "completed"
    return reason  # 'goal' | 'bug' | 'duplicate'


def explain_flight(doc: dict[str, Any]) -> dict[str, Any]:
    """Structured explanation of one flight log.

    Returns a report dict with ``outcome``, ``attribution`` (the fraction
    of explored states covered by a recorded pick/termination/lineage
    record -- the >= 0.95 acceptance gate), ``states`` (how explored
    states ended), ``subsystems``, ``functions`` (budget spend), and
    ``goal_path`` (the decision chain, root first; empty when the run
    found no goal).
    """
    check_flight_document(doc)
    counts = doc.get("counts", {})
    totals = doc.get("totals", {})
    records = doc.get("records", [])

    parent: dict[int, int] = {}
    picks_by_sid: dict[int, list[dict[str, Any]]] = {}
    end_by_sid: dict[int, dict[str, Any]] = {}
    seen: set[int] = set()
    goal_sid: Optional[int] = None
    functions: dict[str, dict[str, Num]] = {}
    subsystems: dict[str, int] = {}

    for record in records:
        kind = record.get("k")
        sid = record.get("sid")
        if isinstance(sid, int):
            seen.add(sid)
        if kind == "pick":
            picks_by_sid.setdefault(record["sid"], []).append(record)
            fn = str(record.get("fn", "") or "?")
            spend = functions.setdefault(
                fn, {"picks": 0, "instructions": 0,
                     "solver_queries": 0, "static_answers": 0})
            spend["picks"] += 1
            spend["instructions"] += record.get("in", 0)
            spend["solver_queries"] += record.get("sq", 0)
            spend["static_answers"] += record.get("sa", 0)
        elif kind in ("add", "drop", "end"):
            parent[record["sid"]] = record.get("parent", 0)
            if kind == "end":
                end_by_sid[record["sid"]] = record
                reason = str(record.get("reason", ""))
                sub = _subsystem(reason, str(record.get("why", "")))
                subsystems[sub] = subsystems.get(sub, 0) + 1
                if reason == "goal":
                    goal_sid = record["sid"]
            elif kind == "drop":
                sub = _subsystem("", str(record.get("why", "distance-inf")))
                subsystems[sub] = subsystems.get(sub, 0) + 1

    # Attribution: every explored state should appear in some record.
    # The denominator prefers the engine's own count (exact even when the
    # buffer dropped records); with a complete log the ratio is 1.0.
    explored = totals.get("states_explored")
    if not isinstance(explored, int) or explored <= 0:
        explored = len(seen)
    attributed = len(seen)
    attribution = min(1.0, attributed / explored) if explored else 1.0

    ended = sum(counts.get("ends", {}).values())
    pending = max(0, counts.get("adds", 0) - ended)

    goal_path: list[dict[str, Any]] = []
    if goal_sid is not None:
        chain: list[int] = []
        sid = goal_sid
        hops = 0
        while sid and hops < 1_000_000:
            chain.append(sid)
            sid = parent.get(sid, 0)
            hops += 1
        chain.reverse()
        for sid in chain:
            picks = picks_by_sid.get(sid, [])
            step: dict[str, Any] = {
                "sid": sid,
                "picks": len(picks),
                "instructions": sum(p.get("in", 0) for p in picks),
                "solver_queries": sum(p.get("sq", 0) for p in picks),
            }
            if picks:
                step["queue"] = picks[0].get("q", -1)
                step["first_score"] = picks[0].get("score", 0.0)
                step["last_score"] = picks[-1].get("score", 0.0)
                step["function"] = picks[-1].get("fn", "")
            end = end_by_sid.get(sid)
            if end is not None:
                step["reason"] = end.get("reason", "")
                if end.get("why"):
                    step["why"] = end["why"]
            goal_path.append(step)

    spend_rows = sorted(
        ({"function": fn, **{k: v for k, v in row.items()}}
         for fn, row in functions.items()),
        key=lambda r: (-int(r["instructions"]), str(r["function"])),
    )

    return {
        "outcome": counts.get("reason", "") or doc.get("meta", {}).get("reason", ""),
        "picks": counts.get("picks", 0),
        "states_explored": explored,
        "attribution": round(attribution, 4),
        "states": {
            "ends": dict(counts.get("ends", {})),
            "kills": dict(counts.get("kills", {})),
            "pending": pending,
            "dropped_records": counts.get("dropped", 0),
        },
        "subsystems": dict(sorted(subsystems.items(),
                                  key=lambda kv: (-kv[1], kv[0]))),
        "functions": spend_rows,
        "goal_path": goal_path,
        "totals": dict(totals),
    }


def _numeric_items(mapping: dict[str, Any]) -> dict[str, Num]:
    return {k: v for k, v in mapping.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def diff_flights(doc_a: dict[str, Any], doc_b: dict[str, Any]) -> dict[str, Any]:
    """Compare two flight logs; positive deltas mean B did more than A.

    Covers the headline counters (picks, states, terminations by reason,
    kills by layer), the whole-run totals, and per-function instruction
    spend ranked by absolute delta -- the "why did this run explore 3x
    the states" view.
    """
    rep_a = explain_flight(doc_a)
    rep_b = explain_flight(doc_b)

    def ratio(a: Num, b: Num) -> Optional[float]:
        return round(b / a, 4) if a else None

    headline: dict[str, Any] = {}
    for key in ("picks", "states_explored"):
        a, b = rep_a[key], rep_b[key]
        headline[key] = {"a": a, "b": b, "delta": b - a, "ratio": ratio(a, b)}

    def dict_delta(da: dict[str, Num], db: dict[str, Num]) -> dict[str, Any]:
        out = {}
        for key in sorted(set(da) | set(db)):
            a, b = da.get(key, 0), db.get(key, 0)
            out[key] = {"a": a, "b": b, "delta": b - a, "ratio": ratio(a, b)}
        return out

    ends = dict_delta(rep_a["states"]["ends"], rep_b["states"]["ends"])
    kills = dict_delta(rep_a["states"]["kills"], rep_b["states"]["kills"])
    totals = dict_delta(_numeric_items(rep_a["totals"]),
                        _numeric_items(rep_b["totals"]))

    spend_a = {r["function"]: r["instructions"] for r in rep_a["functions"]}
    spend_b = {r["function"]: r["instructions"] for r in rep_b["functions"]}
    functions = [
        {"function": fn, "a": spend_a.get(fn, 0), "b": spend_b.get(fn, 0),
         "delta": spend_b.get(fn, 0) - spend_a.get(fn, 0)}
        for fn in sorted(set(spend_a) | set(spend_b))
    ]
    functions.sort(key=lambda r: (-abs(int(r["delta"])), str(r["function"])))

    return {
        "outcome": {"a": rep_a["outcome"], "b": rep_b["outcome"]},
        "headline": headline,
        "ends": ends,
        "kills": kills,
        "totals": totals,
        "functions": functions,
    }


# ----------------------------------------------------------------------
# Human-readable rendering (the default `repro explain` output)

def render_explain(report: dict[str, Any], *, max_rows: int = 12) -> str:
    lines: list[str] = []
    merged = report["totals"].get("states_merged")
    lines.append(
        f"outcome: {report['outcome'] or '?'}  "
        f"picks: {report['picks']}  states: {report['states_explored']}  "
        + (f"merged: {merged}  " if merged else "")
        + f"attribution: {100 * report['attribution']:.1f}%"
    )
    states = report["states"]
    ends = ", ".join(f"{k}={v}" for k, v in sorted(states["ends"].items()))
    lines.append(f"terminations: {ends or 'none'}  pending: {states['pending']}")
    if states["kills"]:
        kills = ", ".join(f"{k}={v}" for k, v in sorted(states["kills"].items()))
        lines.append(f"kills: {kills}")
    if states["dropped_records"]:
        lines.append(f"note: {states['dropped_records']} records dropped "
                     f"(buffer bound); aggregates stay exact")
    if report["subsystems"]:
        lines.append("state fates by subsystem:")
        for name, count in report["subsystems"].items():
            lines.append(f"  {name:12s} {count}")
    if report["functions"]:
        lines.append("budget spend by function (instructions / solver queries):")
        for row in report["functions"][:max_rows]:
            lines.append(f"  {str(row['function']):24s} "
                         f"{int(row['instructions']):>10d} / "
                         f"{int(row['solver_queries']):>6d}  "
                         f"({int(row['picks'])} picks)")
        hidden = len(report["functions"]) - max_rows
        if hidden > 0:
            lines.append(f"  ... {hidden} more functions")
    if report["goal_path"]:
        lines.append(f"goal path decision chain ({len(report['goal_path'])} "
                     f"states, root first):")
        for step in report["goal_path"]:
            bits = [f"sid={step['sid']}"]
            if step.get("picks"):
                bits.append(f"picks={step['picks']}")
                bits.append(f"queue={step.get('queue', -1)}")
                bits.append(f"score={step.get('first_score', 0.0):.0f}"
                            f"->{step.get('last_score', 0.0):.0f}")
                bits.append(f"instr={step['instructions']}")
            if step.get("reason"):
                why = f" ({step['why']})" if step.get("why") else ""
                bits.append(f"end={step['reason']}{why}")
            lines.append("  " + "  ".join(bits))
    else:
        lines.append("goal path: none recorded (search did not reach the goal)")
    return "\n".join(lines)


def render_diff(diff: dict[str, Any], *, max_rows: int = 12) -> str:
    lines: list[str] = []
    out = diff["outcome"]
    lines.append(f"outcome: A={out['a'] or '?'}  B={out['b'] or '?'}")
    for key, row in diff["headline"].items():
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "n/a"
        lines.append(f"{key}: {row['a']} -> {row['b']} "
                     f"(delta {row['delta']:+d}, {ratio})")
    for section in ("ends", "kills"):
        rows = {k: v for k, v in diff[section].items() if v["delta"]}
        if rows:
            lines.append(f"{section} that moved:")
            for key, row in rows.items():
                lines.append(f"  {key:20s} {row['a']} -> {row['b']} "
                             f"({row['delta']:+d})")
    moved = [r for r in diff["functions"] if r["delta"]]
    if moved:
        lines.append("instruction spend by function (largest movers):")
        for row in moved[:max_rows]:
            lines.append(f"  {str(row['function']):24s} "
                         f"{int(row['a']):>10d} -> {int(row['b']):>10d} "
                         f"({int(row['delta']):+d})")
    if len(lines) == 1 + len(diff["headline"]):
        lines.append("no per-state differences recorded")
    return "\n".join(lines)
