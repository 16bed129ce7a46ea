"""Execution states: frames, threads, sync objects, and forking.

An execution state is "a program counter, a stack, and an address space"
(paper section 3.3) -- extended here, as in the paper's section 6.1, with a
set of simulated threads sharing the address space, one of which runs at a
time.  States fork at symbolic branches and at scheduling decisions.

A fork copies no log, no path condition and no frame stack.  What it
still copies is the running thread's top frame (its registers) for the
child, the address-space map (one entry per live memory object), and the
small per-state maps (mutexes, condition variables, snapshots, meta, the
model witness).  Everything else is shared by holder counting: threads, frames, the path condition, the
environment, memory objects and the append-only logs (``sync_log``,
``segments``, ``output``, ``input_events``) carry a count of the states
(or, for frames, threads) referencing them.  A writer that finds the
count above one clones the object for itself and decrements the
original's count, so after a fork exactly one side pays a clone and the
other writes in place.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from ..ir import InstrRef
from ..solver.expr import Atom, Expr, Var
from ..solver.intervals import Interval
from .bugs import BugInfo
from .memory import AddressSpace, CellValue, MemObject, Pointer, StateKey

AddrKey = tuple[int, int]  # (object id, concrete offset): identity of a sync object
# PathCondition.var_index entry: (constraints, interval, folded).
VarEntry = tuple[tuple[Expr, ...], Optional[Interval], int]


class Frame:
    """One activation record: function position + virtual registers.

    ``code`` caches the module's decoded form of the current block (see
    :meth:`repro.symbex.executor.Executor.run`); it is ``None`` until an
    executor first runs the frame, and travels with the frame's position.
    ``holders`` counts the threads whose stacks contain this frame.
    ``key`` caches :meth:`state_key` (see :meth:`ThreadState.key_parts`
    for when it may be cached).
    """

    __slots__ = ("function", "block", "index", "regs", "ret_dst", "allocas",
                 "code", "holders", "key")

    def __init__(self, function: str, block: str = "entry") -> None:
        self.function = function
        self.block = block
        self.index = 0
        self.regs: dict[str, CellValue] = {}
        self.ret_dst: Optional[str] = None  # caller register receiving the return
        self.allocas: list[int] = []  # stack object ids to release on return
        self.code: Optional[tuple] = None
        self.holders = 1
        self.key: Optional[StateKey] = None

    def clone(self) -> "Frame":
        copy = Frame.__new__(Frame)
        copy.function = self.function
        copy.block = self.block
        copy.index = self.index
        copy.regs = dict(self.regs)
        copy.ret_dst = self.ret_dst
        copy.allocas = list(self.allocas)
        copy.code = self.code
        copy.holders = 1
        copy.key = None
        return copy

    def key_parts(self) -> tuple:
        return (self.function, self.block, self.index,
                tuple(self.regs.items()), self.ret_dst, tuple(self.allocas))

    def state_key(self) -> StateKey:
        key = self.key
        if key is None:
            key = self.key = StateKey(self.key_parts())
        return key

    @property
    def ref(self) -> InstrRef:
        return InstrRef(self.function, self.block, self.index)

    def __repr__(self) -> str:
        return f"<frame {self.function}:{self.block}:{self.index}>"


RUNNABLE = "runnable"
BLOCKED = "blocked"
EXITED = "exited"


class ThreadState:
    """A simulated POSIX thread.

    ``holders`` counts the states sharing this thread object; a state only
    mutates a thread it holds alone (:meth:`ExecutionState.own_thread`).
    A thread held alone always holds its top frame alone too: cloning a
    thread clones the top frame and shares only the frames below it.
    ``key`` caches :meth:`state_key`.
    """

    __slots__ = (
        "tid", "frames", "status", "blocked_on", "reacquire_mutex",
        "instr_count", "entry_function", "replaying", "holders", "key",
    )

    def __init__(self, tid: int, entry_function: str) -> None:
        self.tid = tid
        self.frames: list[Frame] = []
        self.status = RUNNABLE
        # ('mutex', key) | ('cond', key) | ('join', tid) when status == BLOCKED
        self.blocked_on: Optional[tuple] = None
        # After a cond wait is signaled, the mutex the thread must re-acquire.
        self.reacquire_mutex: Optional[AddrKey] = None
        self.instr_count = 0
        self.entry_function = entry_function
        # A blocking sync operation (lock contention, cond wait, join) leaves
        # the pc on the blocking instruction, so the woken thread *re-executes*
        # it.  This flag marks that pending re-execution; the engine's budget
        # accounting counts the instruction once, not per retry, keeping
        # instruction counts consistent between serial and sharded runs.
        self.replaying = False
        self.holders = 1
        self.key: Optional[StateKey] = None

    def clone(self) -> "ThreadState":
        """A private copy: a fresh top frame over the shared frames below."""
        copy = ThreadState.__new__(ThreadState)
        copy.tid = self.tid
        frames = self.frames
        if frames:
            for frame in frames[:-1]:
                frame.holders += 1
            copy.frames = frames[:-1]
            copy.frames.append(frames[-1].clone())
        else:
            copy.frames = []
        copy.status = self.status
        copy.blocked_on = self.blocked_on
        copy.reacquire_mutex = self.reacquire_mutex
        copy.instr_count = self.instr_count
        copy.entry_function = self.entry_function
        copy.replaying = self.replaying
        copy.holders = 1
        copy.key = None
        return copy

    def key_parts(self) -> tuple:
        """The thread's part of :meth:`ExecutionState.state_key`, computed
        afresh.

        The executor changes the running thread and its top frame in place
        without clearing their keys, so the running thread's parts are
        never cached; every other change to a thread goes through
        :meth:`ExecutionState.own_thread`, which clears the keys.  A frame
        below the top changes only when a return makes it the top again,
        through :meth:`own_top`, so frames below the top use their cached
        keys.
        """
        frames = self.frames
        parts = [frame.state_key() for frame in frames[:-1]]
        if frames:
            parts.append(frames[-1].key_parts())
        return (self.tid, self.status, self.blocked_on, self.reacquire_mutex,
                self.replaying, *parts)

    def state_key(self) -> StateKey:
        """:meth:`key_parts` of a thread that is not running, cached."""
        key = self.key
        if key is None:
            key = self.key = StateKey(self.key_parts())
        return key

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def own_top(self) -> Frame:
        """The top frame, cloned first if another thread shares it (the
        thread itself must already be held alone)."""
        frame = self.frames[-1]
        if frame.holders > 1:
            frame.holders -= 1
            frame = self.frames[-1] = frame.clone()
        else:
            frame.key = None
        return frame

    @property
    def pc(self) -> InstrRef:
        return self.top.ref

    def call_stack(self) -> list[InstrRef]:
        """Innermost-first stack of instruction refs (like a gdb backtrace)."""
        return [frame.ref for frame in reversed(self.frames)]

    def __repr__(self) -> str:
        where = self.pc if self.frames else "-"
        return f"<thread {self.tid} {self.status} at {where}>"


@dataclass(slots=True)
class MutexRec:
    owner: Optional[int] = None
    waiters: list[int] = field(default_factory=list)

    def clone(self) -> "MutexRec":
        return MutexRec(self.owner, list(self.waiters))


@dataclass(slots=True)
class InputEvent:
    """One symbolic input introduced during execution.

    ``kind`` is 'stdin' | 'env' | 'arg' | 'argc' | 'buffer'; ``key`` is the
    env-var name, argv index, or buffer label; ``variables`` are the symbolic
    cells whose model values become the concrete input at playback.
    """

    kind: str
    key: str
    variables: list[Var]


@dataclass(slots=True)
class SyncEvent:
    """A serialized synchronization operation (for happens-before replay)."""

    seq: int
    tid: int
    op: str  # 'lock' | 'unlock' | 'wait' | 'signal' | 'broadcast' | 'create' | 'join' | 'exit' | 'access'
    addr: Optional[AddrKey]
    ref: InstrRef


@dataclass(slots=True)
class Segment:
    """A maximal run of one thread (for strict serial replay)."""

    tid: int
    instrs: int


class EnvState:
    """Symbolic environment: stdin stream, env vars, argv (paper section 3.4:
    'symbolic models of the filesystem and the network stack to ensure all
    symbolic I/O stays consistent').  Reading the same env var twice returns
    the same buffer."""

    __slots__ = ("stdin_vars", "env_buffers", "arg_buffers", "argc_var",
                 "buffers", "holders")

    def __init__(self) -> None:
        self.stdin_vars: list[Var] = []
        self.env_buffers: dict[str, Pointer] = {}
        self.arg_buffers: dict[int, Pointer] = {}
        self.argc_var: Optional[Atom] = None
        self.buffers: dict[str, Pointer] = {}
        self.holders = 1  # states sharing this environment

    def state_key(self) -> tuple:
        return (tuple(self.stdin_vars), tuple(self.env_buffers.items()),
                tuple(self.arg_buffers.items()), self.argc_var,
                tuple(self.buffers.items()))

    def clone(self) -> "EnvState":
        copy = EnvState.__new__(EnvState)
        copy.holders = 1
        copy.stdin_vars = list(self.stdin_vars)
        copy.env_buffers = dict(self.env_buffers)
        copy.arg_buffers = dict(self.arg_buffers)
        copy.argc_var = self.argc_var
        copy.buffers = dict(self.buffers)
        return copy


class SharedLog(list):
    """An append-only log that forked states share; ``holders`` counts
    them (see :meth:`ExecutionState._append`)."""

    __slots__ = ("holders",)

    def __init__(self, items: Iterable = ()) -> None:
        super().__init__(items)
        self.holders = 1


class _LogField:
    """A state attribute holding a :class:`SharedLog`.  Assigning any list
    stores an unshared copy (snapshot decoding assigns plain lists)."""

    def __init__(self, slot: str) -> None:
        self.slot = slot

    def __get__(self, state: Optional["ExecutionState"], owner: type) -> Any:
        return self if state is None else getattr(state, self.slot)

    def __set__(self, state: "ExecutionState", items: Iterable) -> None:
        setattr(state, self.slot, SharedLog(items))


class PathCondition:
    """A state's path constraints, in the order added, with their lookup
    structures; shared between forks.

    ``var_index`` maps a variable name to a :data:`VarEntry`: the
    constraints mentioning it (Klee's independent-constraint optimization
    at the state level), and the interval the first ``folded`` of them
    narrow it to, ``None`` until the solver first folds them in (see
    :meth:`repro.solver.Solver.check`).  The interval is a cache, never
    part of the key.  Entries are tuples, so a shallow copy of the map is
    a full copy.  Every expression has a variable, so the entry of any one
    of its variables tells whether a constraint is on the path already.
    ``holders`` counts the states sharing this path condition; ``key``
    caches :meth:`state_key`.
    """

    __slots__ = ("constraints", "var_index", "holders", "key")

    def __init__(self) -> None:
        self.constraints: list[Expr] = []
        self.var_index: dict[str, VarEntry] = {}
        self.holders = 1
        self.key: Optional[StateKey] = None

    def state_key(self) -> StateKey:
        key = self.key
        if key is None:
            key = self.key = StateKey(tuple(self.constraints))
        return key

    def copy(self) -> "PathCondition":
        copy = PathCondition.__new__(PathCondition)
        copy.constraints = list(self.constraints)
        copy.var_index = dict(self.var_index)
        copy.holders = 1
        copy.key = None
        return copy


_state_ids = itertools.count(1)


class ExecutionState:
    """One node of the symbolic execution tree."""

    __slots__ = (
        "sid", "parent_sid", "address_space", "globals", "threads",
        "current_tid", "next_tid", "next_obj", "path", "mutexes",
        "condvars", "_env", "_input_events", "_output", "_sync_log",
        "_segments", "segment_instrs", "steps", "forks", "status",
        "exit_code", "bug",
        "snapshots", "schedule_distance", "preemptions", "meta", "last_model",
        "goal_code",
    )

    def __init__(self) -> None:
        self.sid = next(_state_ids)
        self.parent_sid = 0
        self.address_space = AddressSpace()
        self.globals: dict[str, int] = {}
        self.threads: dict[int, ThreadState] = {}
        self.current_tid = 0
        self.next_tid = 1
        self.next_obj = 1
        self.path = PathCondition()
        self.mutexes: dict[AddrKey, MutexRec] = {}
        self.condvars: dict[AddrKey, list[int]] = {}
        self._env = EnvState()
        self._input_events = SharedLog()
        self._output = SharedLog()
        self._sync_log = SharedLog()
        self._segments = SharedLog()
        self.segment_instrs = 0
        self.steps = 0
        self.forks = 0
        # 'running' | 'exited' | 'bug' | 'infeasible' | 'duplicate'
        self.status = "running"
        self.exit_code = 0
        self.bug: Optional[BugInfo] = None
        # Deadlock schedule synthesis (paper section 4.1): mutex -> state
        # snapshot taken just before that mutex was acquired.
        self.snapshots: dict[AddrKey, "ExecutionState"] = {}
        self.schedule_distance = 1.0  # 1.0 == far, 0.0 == near
        self.preemptions = 0  # context-switch count (for Chess-style bounding)
        self.meta: dict[str, object] = {}
        # Last satisfying assignment the solver produced for this path: the
        # executor's model-reuse fast path tries it before solving (Klee's
        # "counterexample" reuse at the state level).  Advisory only -- a
        # stale model just misses and falls back to the solver.
        self.last_model: Optional[dict[str, int]] = None
        # The decoded block at which intermediate goals were last checked
        # for this state's running thread (see Executor.step).
        self.goal_code: Optional[tuple] = None

    # Append-only logs, shared between forks (appends go through _append).
    input_events: list[InputEvent] = _LogField("_input_events")  # type: ignore[assignment]
    output: list[str] = _LogField("_output")  # type: ignore[assignment]
    sync_log: list[SyncEvent] = _LogField("_sync_log")  # type: ignore[assignment]
    segments: list[Segment] = _LogField("_segments")  # type: ignore[assignment]

    # -- thread accessors ------------------------------------------------------

    @property
    def thread(self) -> ThreadState:
        return self.threads[self.current_tid]

    @property
    def frame(self) -> Frame:
        return self.thread.top

    @property
    def pc(self) -> InstrRef:
        return self.thread.pc

    @property
    def terminated(self) -> bool:
        return self.status != "running"

    @property
    def constraints(self) -> list[Expr]:
        """The path condition, in the order constraints were added."""
        return self.path.constraints

    @property
    def env(self) -> EnvState:
        """The symbolic environment, cloned first if a fork shares it."""
        env = self._env
        if env.holders > 1:
            env.holders -= 1
            env = self._env = env.clone()
        return env

    @env.setter
    def env(self, env: EnvState) -> None:
        self._env = env

    def own_thread(self, tid: int) -> ThreadState:
        """Thread ``tid``, cloned first if another state shares it.  The
        caller may change the thread and its top frame in place."""
        thread = self.threads[tid]
        if thread.holders > 1:
            thread.holders -= 1
            thread = self.threads[tid] = thread.clone()
        else:
            thread.key = None
        return thread

    def runnable_tids(self) -> list[int]:
        return [t.tid for t in self.threads.values() if t.status == RUNNABLE]

    def live_threads(self) -> list[ThreadState]:
        return [t for t in self.threads.values() if t.status != EXITED]

    # -- memory helpers ------------------------------------------------------

    def new_object(
        self, size: int, kind: str, name: str = "",
        init: Optional[list[CellValue]] = None,
    ) -> MemObject:
        obj = MemObject(self.next_obj, size, kind, name, init)
        self.next_obj += 1
        self.address_space.add(obj)
        return obj

    # -- scheduling bookkeeping ------------------------------------------------

    def uncount_instruction(self) -> None:
        """Roll back the current instruction's accounting.

        Scheduling policies fork "preempted" states from hooks that run
        *before* an instruction's semantics complete (e.g. just before a
        mutex acquisition).  In the forked state that instruction has not
        executed, so its count must not appear in the strict schedule --
        otherwise playback diverges by one instruction per preemption.
        """
        assert self.segment_instrs > 0
        self.steps -= 1
        self.segment_instrs -= 1
        self.own_thread(self.current_tid).instr_count -= 1

    def switch_to(self, tid: int) -> None:
        """Context-switch the running thread, closing the current segment."""
        if tid == self.current_tid:
            return
        if self.segment_instrs:
            self._append("_segments", Segment(self.current_tid,
                                              self.segment_instrs))
            self.segment_instrs = 0
        self.preemptions += 1
        self.current_tid = tid

    def finish_segments(self) -> list[Segment]:
        """All segments including the in-progress one (call at termination)."""
        result = list(self.segments)
        if self.segment_instrs:
            result.append(Segment(self.current_tid, self.segment_instrs))
        return result

    def log_sync(self, op: str, addr: Optional[AddrKey], ref: InstrRef) -> None:
        self._append("_sync_log", SyncEvent(len(self._sync_log),
                                            self.current_tid, op, addr, ref))

    def log_input(self, event: InputEvent) -> None:
        self._append("_input_events", event)

    def log_output(self, text: str) -> None:
        self._append("_output", text)

    def _append(self, slot: str, item: object) -> None:
        """Append to the log in ``slot``, cloning it first if shared."""
        log = getattr(self, slot)
        if log.holders > 1:
            log.holders -= 1
            log = SharedLog(log)
            setattr(self, slot, log)
        log.append(item)

    # -- forking ------------------------------------------------------------

    def fork(self) -> "ExecutionState":
        """Fork a child state (see the module docstring for what is shared
        and what is copied).

        The parent keeps sole ownership of its running thread and that
        thread's top frame, so a handler that forks mid-instruction may go
        on mutating the frame it holds; the child gets its own copies.
        """
        child = ExecutionState.__new__(ExecutionState)
        child.sid = next(_state_ids)
        child.parent_sid = self.sid
        child.address_space = self.address_space.fork()
        child.globals = self.globals  # immutable after setup
        threads = dict(self.threads)
        for tid, thread in threads.items():
            if tid == self.current_tid:
                threads[tid] = thread.clone()
            else:
                thread.holders += 1
        child.threads = threads
        child.current_tid = self.current_tid
        child.next_tid = self.next_tid
        child.next_obj = self.next_obj
        child.path = self.path
        self.path.holders += 1
        child.mutexes = {k: m.clone() for k, m in self.mutexes.items()}
        child.condvars = {k: list(v) for k, v in self.condvars.items()}
        child._env = self._env
        self._env.holders += 1
        for log in (self._input_events, self._output, self._sync_log,
                    self._segments):
            log.holders += 1
        child._input_events = self._input_events
        child._output = self._output
        child._sync_log = self._sync_log
        child._segments = self._segments
        child.segment_instrs = self.segment_instrs
        child.steps = self.steps
        child.forks = self.forks + 1
        self.forks += 1
        child.status = self.status
        child.exit_code = self.exit_code
        child.bug = self.bug
        child.snapshots = dict(self.snapshots)
        child.schedule_distance = self.schedule_distance
        child.preemptions = self.preemptions
        child.meta = dict(self.meta)
        child.last_model = dict(self.last_model) if self.last_model else None
        child.goal_code = self.goal_code
        return child

    def add_constraint(self, constraint: Atom) -> None:
        if not isinstance(constraint, Expr):
            return
        path = self.path
        entry = path.var_index.get(next(iter(constraint.variables())).name)
        if entry is not None and constraint in entry[0]:
            return
        if path.holders > 1:
            path.holders -= 1
            path = self.path = path.copy()
        path.key = None
        path.constraints.append(constraint)
        var_index = path.var_index
        for var in constraint.variables():
            entry = var_index.get(var.name)
            if entry is None:
                var_index[var.name] = ((constraint,), None, 0)
            else:
                constraints, interval, folded = entry
                var_index[var.name] = (constraints + (constraint,), interval,
                                       folded)

    def related_constraints(self, atom: Atom) -> list[Expr]:
        """The constraints transitively connected to ``atom`` through shared
        variables -- the only ones whose satisfiability a new condition on
        ``atom``'s variables can change."""
        if not isinstance(atom, Expr):
            return []
        seen_vars: set[str] = set()
        seen_constraints: set[int] = set()
        related: list[Expr] = []
        var_index = self.path.var_index
        worklist = [v.name for v in atom.variables()]
        while worklist:
            name = worklist.pop()
            if name in seen_vars:
                continue
            seen_vars.add(name)
            entry = var_index.get(name)
            if entry is None:
                continue
            for constraint in entry[0]:
                if constraint.uid in seen_constraints:
                    continue
                seen_constraints.add(constraint.uid)
                related.append(constraint)
                for var in constraint.variables():
                    if var.name not in seen_vars:
                        worklist.append(var.name)
        return related

    # -- visited-state keys ------------------------------------------------------

    def state_key(self) -> tuple:
        """An exact key for what this running state can still do.

        Two states with equal keys have the same futures: the key covers
        every thread, memory object, mutex and condition variable, the
        thread and object counters, the path condition, the symbolic
        environment, and ``meta`` (where policies and searchers keep their
        per-state flags).  It leaves out only what records the search or
        guides it (:data:`KEY_IGNORED`).  Components are cached on the
        copy-on-write objects forks share, so a check costs a few hash
        calls for whatever did not change since the last one.
        """
        current = self.current_tid
        return (
            tuple([thread.key_parts() if tid == current
                   else thread.state_key()
                   for tid, thread in self.threads.items()]),
            self.address_space.state_key(),
            tuple([(key, rec.owner, tuple(rec.waiters))
                   for key, rec in self.mutexes.items()]),
            tuple([(key, tuple(tids)) for key, tids in self.condvars.items()]),
            current, self.next_tid, self.next_obj,
            self.path.state_key(),
            self._env.state_key(),
            frozenset(self.meta.items()),
        )

    def __repr__(self) -> str:
        return (
            f"<state {self.sid} {self.status} tid={self.current_tid} "
            f"steps={self.steps} constraints={len(self.constraints)}>"
        )


# The slots each part of :meth:`ExecutionState.state_key` leaves out; every
# other slot of these classes is in the key.  What is left out records the
# search (logs, counters, ids), guides it (schedule distance, snapshots,
# the model witness), caches something derived (decoded code, keys), counts
# sharing (holders), is fixed for a whole search (globals), or is only set
# once a state has ended (status, exit code, bug).
KEY_IGNORED: dict[type, frozenset[str]] = {
    ExecutionState: frozenset({
        "sid", "parent_sid", "globals", "_input_events", "_output",
        "_sync_log", "_segments", "segment_instrs", "steps", "forks",
        "status", "exit_code", "bug", "snapshots", "schedule_distance",
        "preemptions", "last_model", "goal_code",
    }),
    ThreadState: frozenset({"instr_count", "entry_function", "holders", "key"}),
    Frame: frozenset({"code", "holders", "key"}),
    MemObject: frozenset({"holders", "key"}),
    MutexRec: frozenset(),
    EnvState: frozenset({"holders"}),
    PathCondition: frozenset({"var_index", "holders", "key"}),
}
