"""Property tests for the copy-on-write memory model: forked states must be
fully isolated -- a write in one state is never visible in the other.  This
invariant is what makes the paper's snapshot-based schedule search sound."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.symbex.memory import (
    AddressSpace,
    DoubleFree,
    InvalidFree,
    MemObject,
    OutOfBounds,
    UseAfterFree,
)


def space_with_objects(sizes):
    space = AddressSpace()
    for obj_id, size in enumerate(sizes, start=1):
        space.add(MemObject(obj_id, size, "heap", f"o{obj_id}"))
    return space


class TestBasics:
    def test_read_write_roundtrip(self):
        space = space_with_objects([4])
        space.write(1, 2, 99)
        assert space.read(1, 2) == 99

    def test_out_of_bounds_read(self):
        space = space_with_objects([4])
        with pytest.raises(OutOfBounds):
            space.read(1, 4)
        with pytest.raises(OutOfBounds):
            space.read(1, -1)

    def test_free_then_use(self):
        space = space_with_objects([4])
        space.free(1, 0)
        with pytest.raises(UseAfterFree):
            space.read(1, 0)
        with pytest.raises(DoubleFree):
            space.free(1, 0)

    def test_interior_free_rejected(self):
        space = space_with_objects([4])
        with pytest.raises(InvalidFree):
            space.free(1, 1)

    def test_global_free_rejected(self):
        space = AddressSpace()
        space.add(MemObject(1, 2, "global", "g"))
        with pytest.raises(InvalidFree):
            space.free(1, 0)


class TestForkIsolation:
    def test_write_after_fork_not_visible_in_parent(self):
        parent = space_with_objects([4])
        parent.write(1, 0, 10)
        child = parent.fork()
        child.write(1, 0, 20)
        assert parent.read(1, 0) == 10
        assert child.read(1, 0) == 20

    def test_parent_write_not_visible_in_child(self):
        parent = space_with_objects([4])
        child = parent.fork()
        parent.write(1, 3, 7)
        assert child.read(1, 3) == 0

    def test_free_isolated(self):
        parent = space_with_objects([4])
        child = parent.fork()
        child.free(1, 0)
        assert parent.read(1, 0) == 0  # parent unaffected
        with pytest.raises(UseAfterFree):
            child.read(1, 0)

    def test_grandchild_isolation(self):
        a = space_with_objects([2])
        b = a.fork()
        c = b.fork()
        a.write(1, 0, 1)
        b.write(1, 0, 2)
        c.write(1, 0, 3)
        assert (a.read(1, 0), b.read(1, 0), c.read(1, 0)) == (1, 2, 3)

    def test_one_clone_per_fork_and_object(self, monkeypatch):
        """Parent forks, parent writes, child writes: only the first write
        clones; the child, by then the original's sole holder, writes in
        place."""
        clones = []
        original_clone = MemObject.clone

        def counting_clone(obj, *args, **kwargs):
            clones.append(obj.obj_id)
            return original_clone(obj, *args, **kwargs)

        monkeypatch.setattr(MemObject, "clone", counting_clone)
        parent = space_with_objects([4])
        original = parent.objects[1]
        child = parent.fork()
        parent.write(1, 0, 10)
        child.write(1, 0, 20)
        assert clones == [1]
        assert child.objects[1] is original
        assert (parent.read(1, 0), child.read(1, 0)) == (10, 20)

    def test_free_of_shared_object_shares_cells_yet_stays_isolated(self):
        parent = space_with_objects([4])
        child = parent.fork()
        child.free(1, 0)
        assert child.objects[1].cells is parent.objects[1].cells
        parent.write(1, 0, 5)  # the freed copy keeps its hold: parent clones
        assert parent.objects[1].cells is not child.objects[1].cells
        assert child.objects[1].cells == [0, 0, 0, 0]
        assert parent.read(1, 0) == 5
        with pytest.raises(UseAfterFree):
            child.read(1, 0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(0, 7), st.integers(0, 255)),
            min_size=1, max_size=30,
        )
    )
    def test_random_write_interleavings_isolated(self, operations):
        """Replay random writes against three forked spaces and dict models;
        every space must match its model exactly."""
        base = space_with_objects([8])
        spaces = {"a": base, "b": base.fork(), "c": base.fork()}
        models = {name: {i: 0 for i in range(8)} for name in spaces}
        for name, offset, value in operations:
            spaces[name].write(1, offset, value)
            models[name][offset] = value
        for name in spaces:
            for offset in range(8):
                assert spaces[name].read(1, offset) == models[name][offset], (
                    name, offset,
                )


class TestStateForkIsolation:
    def test_forked_execution_states_do_not_share_writes(self):
        from repro.lang import compile_source
        from repro.symbex import ConcreteEnv, Executor, RecordedInputs

        module = compile_source("int g = 0;\nint main() { g = 1; return g; }")
        executor = Executor(module, env=ConcreteEnv(RecordedInputs()))
        state = executor.initial_state()
        fork = state.fork()
        # Run the original to completion; the fork must still see g == 0.
        final = executor.run_to_completion(state)
        assert final.exit_code == 1
        obj = fork.globals["g"]
        assert fork.address_space.read(obj, 0) == 0

    def test_fork_preserves_thread_positions(self):
        from repro.lang import compile_source
        from repro.symbex import ConcreteEnv, Executor, RecordedInputs

        module = compile_source(
            "int main() { int x = 0; x = x + 1; x = x + 2; return x; }"
        )
        executor = Executor(module, env=ConcreteEnv(RecordedInputs()))
        state = executor.initial_state()
        executor.step(state)
        fork = state.fork()
        assert fork.pc == state.pc
        executor.step(state)
        assert fork.pc != state.pc

    def test_forked_states_share_no_frames_logs_or_constraints(self):
        """Threads, frames, logs and the path condition are shared between
        forks until written; running one side to completion must leave the
        other exactly where it was."""
        from repro.lang import compile_source
        from repro.solver.expr import binop, make_var
        from repro.symbex import ConcreteEnv, Executor, RecordedInputs

        module = compile_source(
            "int f(int a) { int b = a + 1; print_int(b); return b; }\n"
            "int main() { int x = f(1); x = x + f(x); print_int(x); return x; }"
        )
        executor = Executor(module, env=ConcreteEnv(RecordedInputs()))
        state = executor.initial_state()
        while len(state.thread.frames) < 2:  # inside the first call to f
            executor.step(state)
        fork = state.fork()
        fork.add_constraint(binop("<", make_var("iso", 0, 9), 5))
        where = (fork.pc, [f.ref for f in fork.thread.frames])

        final = executor.run_to_completion(state)
        assert (final.exit_code, final.output) == (5, ["2", "3", "5"])
        assert final.constraints == []
        assert (fork.pc, [f.ref for f in fork.thread.frames]) == where
        assert fork.output == [] and len(fork.constraints) == 1

        again = executor.run_to_completion(fork)
        assert (again.exit_code, again.output) == (5, ["2", "3", "5"])
