"""Cross-commit artifact pins.

Every registered workload (and three BPF deadlocks) is synthesized
serially in a cold session, and the result is compared with numbers
recorded in ``tests/assets/artifact_pins.json``: the sha256 of the
execution file's canonical bytes, the search's instruction and state
counts, the executor's fork and merged-duplicate counters, and the
solver's query count.
The other byte-identity tests compare two modes of one build; these pins
catch a change to the interpreter, the fork, or the searcher that moves
an artifact or a counter between builds.

Four more digests pin what the compilers and the search's observers
produce: the printed IR of the compiled module, the source line of
every instruction (printed IR omits it), the flight log's records
(state ids renumbered), and the progress events (everything but their
timing).  Every pinned deadlock execution must also play back
in both strict and happens-before mode.

Regenerate the pins (only for a change that is meant to move them, and
say why in the change description) with::

    PYTHONPATH=src python tests/test_artifact_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import ReproSession
from repro.bpf import BPFParams, generate
from repro.ir.printer import format_module
from repro.playback import play_back
from repro.workloads import ALL, get

PINS_PATH = Path(__file__).parent / "assets" / "artifact_pins.json"

# Small BPF deadlocks (two threads, two locks), pinned by generator seed,
# plus one of Fig. 3's largest size: its blocks hold many call sites, which
# is what the goal-distance lookup's per-block rows are built from.
BPF_PINS = {
    f"bpf-{seed}": BPFParams(num_inputs=8, num_branches=16,
                             num_input_branches=16, seed=seed)
    for seed in (7, 11)
}
BPF_PINS["bpf-2048-12"] = BPFParams(
    num_inputs=128, num_branches=2048, num_input_branches=2048,
    num_threads=2, num_locks=2, seed=12)


def _workload(name: str):
    params = BPF_PINS.get(name)
    return generate(params).workload if params is not None else get(name)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _renumbered(records: list) -> list:
    """Flight records with state ids renumbered by first appearance.

    State ids come from a process-wide counter, so their absolute values
    depend on what ran earlier in the process; the renumbered lineage does
    not."""
    ids = {0: 0}
    renumbered = []
    for record in records:
        record = dict(record)
        for key in ("sid", "parent"):
            if key in record:
                record[key] = ids.setdefault(record[key], len(ids))
        renumbered.append(record)
    return renumbered


def _lines(module) -> list:
    """``(function, block, index, line)`` of every instruction."""
    return [[ref.function, ref.block, ref.index, instr.line]
            for func in module.functions.values()
            for ref, instr in func.iter_instructions()]


def measure(name: str) -> dict:
    """Synthesize ``name`` serially in a cold session; return its pins."""
    return synthesize(name)[3]


def synthesize(name: str):
    """Synthesize ``name`` serially in a cold session; return the workload,
    the compiled module, the synthesis result and its pins."""
    workload = _workload(name)
    module = workload.compile()
    events: list = []
    session = ReproSession(module, workers=1, flight=True,
                           on_progress=events.append)
    result = session.synthesize(workload.make_report())
    totals = session.program.exec_totals
    records = _renumbered(session.flight_document()["records"])
    observed = [[e.kind, e.picks, e.instructions, e.states, e.pending,
                 e.reason, e.detail] for e in events]
    return workload, module, result, {
        "found": result.found,
        "sha256": hashlib.sha256(
            result.execution_file.canonical_bytes()).hexdigest()
        if result.found else None,
        "instructions_explored": result.instructions,
        "states_explored": result.states_explored,
        "forks": totals.forks,
        "states_created": totals.states_created,
        "sched_forks": totals.sched_forks,
        "states_merged": totals.states_merged,
        "solver_queries": session.solver_stats.queries,
        "ir_sha256": _sha256(format_module(module)),
        "lines_sha256": _sha256(json.dumps(_lines(module))),
        "flight_sha256": _sha256(json.dumps(records, sort_keys=True)),
        "events_sha256": _sha256(json.dumps(observed)),
    }


def pinned_names() -> list[str]:
    return sorted(ALL) + sorted(BPF_PINS)


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", pinned_names())
def test_artifact_and_counters_match_pins(name):
    workload, module, result, pins = synthesize(name)
    assert pins == _pins()[name]
    if workload.bug_type == "deadlock":
        verdicts = {
            mode: play_back(module, result.execution_file,
                            mode=mode).bug_reproduced
            for mode in ("strict", "happens-before")
        }
        assert verdicts == {"strict": True, "happens-before": True}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    pins = {name: measure(name) for name in pinned_names()}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
