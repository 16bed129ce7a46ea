"""How the proximity-guided searcher orders states that tie on proximity.

At equal priority the state with the fewest instructions executed along
its path goes first; insertion order decides only when path lengths tie
too.  The seed-0 bounds keep the plateau workloads (ls4, ghttpd-hard) well
below the state counts that first-in-first-out tie-breaking explored
(12,678 and 5,195).
"""

import pytest

from repro.analysis import DistanceCalculator
from repro.core import ESDConfig, esd_synthesize
from repro.ir import InstrRef
from repro.lang import compile_source
from repro.search import GoalSpec
from repro.search.esd import ProximityGuidedSearcher
from repro.symbex import Executor
from repro.workloads import get

SOURCE = """
int main() {
    int c = getchar();
    if (c == 'm') {
        assert(0);
    }
    return 0;
}
"""


@pytest.fixture()
def plateau():
    """A searcher and three states at the same position (so the same
    priority) with path lengths 5, 2 and 2, added in that order."""
    module = compile_source(SOURCE, "plateau")
    executor = Executor(module)
    final = GoalSpec((InstrRef("main", module.functions["main"].entry, 0),),
                     "final")
    searcher = ProximityGuidedSearcher(DistanceCalculator(module), [], final)
    root = executor.initial_state()
    states = []
    for steps in (5, 2, 2):
        state = root.fork()
        state.steps = steps
        searcher.add(state)
        states.append(state)
    return searcher, states


def test_fewer_steps_first_then_insertion_order(plateau):
    searcher, (long, short_first, short_second) = plateau
    picked = [searcher.pick() for _ in range(3)]
    assert picked == [short_first, short_second, long]


def test_export_frontier_uses_the_queue_order(plateau):
    searcher, (long, short_first, short_second) = plateau
    scored = searcher.export_frontier()
    assert [state for _, state in scored] == [short_first, short_second, long]
    assert len({score for score, _ in scored}) == 1


@pytest.mark.parametrize("name, bound", [("ls4", 2_535), ("ghttpd-hard", 1_039)])
def test_plateau_workloads_stay_small_at_seed_0(name, bound):
    workload = get(name)
    result = esd_synthesize(workload.compile(), workload.make_report(),
                            ESDConfig(seed=0))
    assert result.found
    assert result.states_explored <= bound
