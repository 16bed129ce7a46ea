"""Cross-commit artifact pins.

Every registered workload (and three BPF deadlocks) is synthesized
serially in a cold session, and the result is compared with numbers
recorded in ``tests/assets/artifact_pins.json``: the sha256 of the
execution file's canonical bytes, the search's instruction and state
counts, the executor's fork counters, and the solver's query count.
The other byte-identity tests compare two modes of one build; these pins
catch a change to the interpreter, the fork, or the searcher that moves
an artifact or a counter between builds.

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


def measure(name: str) -> dict:
    """Synthesize ``name`` serially in a cold session; return its pins."""
    workload = _workload(name)
    session = ReproSession(workload.compile(), workers=1)
    result = session.synthesize(workload.make_report())
    totals = session.program.exec_totals
    return {
        "found": result.found,
        "sha256": hashlib.sha256(
            result.execution_file.canonical_bytes()).hexdigest()
        if result.found else None,
        "instructions_explored": result.instructions,
        "states_explored": result.states_explored,
        "forks": totals.forks,
        "states_created": totals.states_created,
        "sched_forks": totals.sched_forks,
        "solver_queries": session.solver_stats.queries,
    }


def pinned_names() -> list[str]:
    return sorted(ALL) + sorted(BPF_PINS)


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text())


@pytest.mark.parametrize("name", pinned_names())
def test_artifact_and_counters_match_pins(name):
    assert measure(name) == _pins()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    pins = {name: measure(name) for name in pinned_names()}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS_PATH}")
