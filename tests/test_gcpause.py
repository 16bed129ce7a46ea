"""The cyclic-GC pause around compile and search."""

from __future__ import annotations

import gc
import os
import threading
import weakref

import pytest

from repro import ReproSession
from repro.bpf import BPFParams, generate
from repro.gcpause import gc_paused
from repro.lang import CompileError, compile_source
from repro.workloads import get


@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


class _Node:
    """A reference cycle with a weakref handle (plain lists have none)."""

    def __init__(self) -> None:
        self.me = self


def test_nested_pauses_restore_the_collector(collector_on):
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_a_compile_error_still_restores_the_collector(collector_on):
    with pytest.raises(CompileError):
        compile_source("int x; int x; int main() { return 0; }")
    assert gc.isenabled()


def test_a_caller_disabled_collector_stays_disabled(collector_on):
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    compile_source("int main() { return 0; }")
    assert not gc.isenabled()


def test_overlapping_pauses_collect_young_cycles(collector_on):
    first_entered = threading.Event()
    second_entered = threading.Event()
    first_left = threading.Event()
    second_may_leave = threading.Event()
    seen: dict = {}

    def first() -> None:
        with gc_paused():
            node = _Node()
            seen["cycle"] = weakref.ref(node)
            del node
            first_entered.set()
            second_entered.wait(5)
        first_left.set()

    def second() -> None:
        first_entered.wait(5)
        with gc_paused():
            second_entered.set()
            first_left.wait(5)
            seen["dead_before_second_left"] = seen["cycle"]() is None
            seen["enabled_while_open"] = gc.isenabled()
            second_may_leave.wait(5)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    first_left.wait(5)
    second_may_leave.set()
    for t in threads:
        t.join(5)
    assert seen["dead_before_second_left"]
    assert seen["enabled_while_open"] is False
    assert gc.isenabled()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_with_no_pause_open(collector_on):
    entered, leave = threading.Event(), threading.Event()

    def hold() -> None:
        with gc_paused():
            entered.set()
            leave.wait(5)

    holder = threading.Thread(target=hold)
    holder.start()
    entered.wait(5)
    try:
        pid = os.fork()
        if pid == 0:  # the holder thread does not exist here
            ok = gc.isenabled()
            with gc_paused():
                ok = ok and not gc.isenabled()
            os._exit(0 if ok and gc.isenabled() else 1)
        _, status = os.waitpid(pid, 0)
    finally:
        leave.set()
        holder.join(5)
    assert os.waitstatus_to_exitcode(status) == 0
    assert gc.isenabled()


def test_a_pipeline_run_leaves_no_var_or_cell_cycles(collector_on):
    """A compile, synthesis and strict playback make no ``Var`` self-cycles
    and no recursive-closure ``cell`` cycles: with the collector paused for
    the compile and the search, those would all wait for a later collection.  The
    sessions stay alive, so only what the runs dropped is counted."""
    bpf = generate(BPFParams(num_inputs=8, num_branches=16,
                             num_input_branches=16, seed=7)).workload
    workloads = [get("ls4"), get("ghttpd-hard"), get("hawknl"), bpf]
    sessions = []
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for workload in workloads:
            session = ReproSession(workload.compile(), workers=1)
            sessions.append(session)
            result = session.synthesize(workload.make_report())
            assert result.found, workload.name
            assert session.play_back(result.execution_file).bug_reproduced
        del result
        gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert "Var" not in kinds and "cell" not in kinds, kinds
