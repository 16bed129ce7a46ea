"""The symbolic virtual machine.

Interprets IR one instruction per :meth:`Executor.step` call, the granularity
at which the paper's search strategies pick states off priority queues
(section 3.3).  Values are concrete Python ints, symbolic expressions,
pointers, or function pointers; branches over symbolic values fork states,
accumulating path constraints.

The same executor runs fully concrete programs (playback, coredump
generation): with a :class:`~repro.symbex.env.ConcreteEnv` no symbolic values
ever appear, so no forking happens and execution is deterministic under the
scheduling policy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

from .. import ir
from ..analysis.wp import StaticPruneStats, _FalseCond
from ..ir import InstrRef
from ..solver import Solver
from ..solver.expr import (
    Atom,
    Expr,
    Var,
    binop,
    evaluate,
    holds_under,
    make_var,
    negate,
    truthy,
    unop,
)
from .bugs import BugInfo, BugKind, DeadlockEdge
from .env import InputProvider, SymbolicEnv
from .memory import (
    DoubleFree,
    FnPtr,
    InvalidFree,
    MemoryError_,
    OutOfBounds,
    Pointer,
    UseAfterFree,
)
from .policy import SchedulerPolicy
from .state import (
    BLOCKED,
    EXITED,
    RUNNABLE,
    AddrKey,
    ExecutionState,
    Frame,
    MutexRec,
    ThreadState,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.absint import ModuleFacts
    from ..analysis.wp import NecessaryConditions

Value = Union[int, Expr, Pointer, FnPtr]


# Symbolic-hole variables (constraint-based repair).  One hole denotes one
# unknown *program constant*, so every evaluation of the same hole -- across
# states, executors, and separate runs over the failing and passing inputs --
# must yield the *same* solver variable: the constraints those runs produce
# are later conjoined into a single query whose model binds the hole.  Repair
# generates globally fresh hole names, so a long-lived daemon running repair
# jobs would grow the registry forever; the table is bounded by evicting the
# oldest entries (insertion order), which only ever touches holes of long-
# finished candidates -- the live candidate's one or two holes are always
# the newest.
_HOLE_VARS: dict[tuple[str, int, int], Var] = {}
_HOLE_VARS_LIMIT = 4096


def hole_var(hole: "ir.Hole") -> Var:
    key = (hole.name, hole.lo, hole.hi)
    var = _HOLE_VARS.get(key)
    if var is None:
        while len(_HOLE_VARS) >= _HOLE_VARS_LIMIT:
            _HOLE_VARS.pop(next(iter(_HOLE_VARS)))
        var = make_var(f"hole:{hole.name}", hole.lo, hole.hi)
        _HOLE_VARS[key] = var
    return var


class _ExecError(Exception):
    """Internal: converted into a bug state by the dispatcher."""

    def __init__(self, kind: BugKind, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message


@dataclass(slots=True)
class ExecConfig:
    max_steps_per_state: int = 2_000_000
    string_size: int = 8
    max_args: int = 4
    # Treat accesses to these instruction refs as racy preemption points.
    detect_deadlocks: bool = True
    # Answer branch-feasibility queries by evaluating the state's last
    # satisfying assignment before solving (off only for ablations, e.g.
    # bench_solver's baseline).
    model_reuse: bool = True


@dataclass(slots=True)
class ExecStats:
    instructions: int = 0
    # Re-executions of a blocking sync instruction after its thread was woken
    # (the pc stays on a contended lock/wait/join, so the instruction runs
    # again).  ``instructions - replayed`` is the count of *distinct*
    # instruction executions, which is what search budgets charge.
    replayed: int = 0
    forks: int = 0
    sched_forks: int = 0
    states_created: int = 0
    solver_forks: int = 0
    # States a scheduling policy ended because the search had already
    # reached an identical one (status 'duplicate').
    states_merged: int = 0


class Executor:
    """Executes IR modules symbolically or concretely."""

    def __init__(
        self,
        module: ir.Module,
        solver: Optional[Solver] = None,
        env: Optional[InputProvider] = None,
        policy: Optional[SchedulerPolicy] = None,
        config: Optional[ExecConfig] = None,
        absint: Optional["ModuleFacts"] = None,
        wp: Optional["NecessaryConditions"] = None,
        wp_audit: bool = False,
    ) -> None:
        self.module = module
        self.config = config or ExecConfig()
        self.solver = solver or Solver()
        self.env = env or SymbolicEnv(self.config.string_size, self.config.max_args)
        self.policy = policy or SchedulerPolicy()
        self.stats = ExecStats()
        # Abstract-interpretation facts for static pruning.  Callers must
        # only pass facts whose ``pruning_sound`` property holds; every
        # consulting site adds the *same* constraints the probed path would
        # have added, so the synthesized artifact is byte-identical with
        # pruning on or off -- only the feasibility probes are skipped.
        self.absint = absint
        if absint is not None and not absint.pruning_sound:
            raise ValueError(
                "absint facts for module "
                f"{absint.module_name!r} are not pruning-sound"
            )
        # Goal-directed necessary preconditions: a branch direction whose
        # target block's condition is refuted by the state's concrete store
        # (and with no outer stack frame through which a return could still
        # reach the goal) cannot lead to the goal, so it is pruned without a
        # feasibility probe.  Conditions are *necessary*, so pruning never
        # loses a goal-reaching path; it can only skip states that at most
        # witness *other* bugs.  With ``wp_audit`` nothing is pruned --
        # successors down a refuted direction are tagged in ``state.meta``
        # instead, so tests can assert the goal state never carries the tag.
        self.wp = wp
        self.wp_audit = wp_audit
        self.prune_stats = StaticPruneStats()
        # Optional repro.obs SearchObserver, attached by the owner of the
        # search.  Never consulted in step() -- the hot loop stays
        # telemetry-free; the engine reports picks from outside, and the
        # executor only marks bug discoveries (rare) and tags its kills in
        # ``state.meta['killed']`` for the engine to attribute.
        self.observer = None
        # Called as ``hook(state, function, block)`` whenever a live state's
        # running thread is found in a different block after a step (the
        # searcher's intermediate-goal tracking; set by the engine).
        self.on_block_entry: Optional[
            Callable[[ExecutionState, str, str], None]] = None
        # The module's decoded code, shared with every other executor of it.
        self._decoded = _module_code(module)

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------

    def initial_state(self, entry: str = "main") -> ExecutionState:
        if entry not in self.module.functions:
            raise ValueError(f"no entry function {entry!r}")
        state = ExecutionState()
        for var in self.module.globals.values():
            obj = state.new_object(var.size, "global", var.name, init=list(var.init))
            state.globals[var.name] = obj.obj_id
        thread = ThreadState(0, entry)
        thread.frames.append(Frame(entry, self.module.functions[entry].entry))
        state.threads[0] = thread
        state.current_tid = 0
        return state

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self, state: ExecutionState) -> list[ExecutionState]:
        """Execute one instruction (or one scheduling decision) in ``state``.

        Returns every successor state, including terminated ones (bug/exit);
        callers must check ``state.status``.
        """
        return self.run(state, 1)

    def run(self, state: ExecutionState, limit: int) -> list[ExecutionState]:
        """Step ``state`` up to ``limit`` times, stopping early when a step
        leaves anything but ``[state]`` still running (a fork or a
        termination); returns the last step's successors.

        Each instruction comes from the running frame's decoded block
        (``frame.code``, see :meth:`_ModuleCode.decode`): one index, then a
        call to the entry's handler with the state, the running thread and
        its top frame, all of which the state holds alone.  While the same
        thread runs on, the thread lookup is not repeated.
        """
        successors = [state]
        max_steps = self.config.max_steps_per_state
        stats = self.stats
        hook = self.on_block_entry
        thread: Optional[ThreadState] = None  # running, runnable, held alone
        tid = 0
        for _ in range(limit):
            if thread is None:
                if state.status != "running":
                    return [state]
                tid = state.current_tid
                thread = state.threads.get(tid)
                if thread is None or thread.status != RUNNABLE:
                    thread = None
                    self._reschedule(state)
                    successors = self._settle([state])
                    if state.status != "running":
                        return successors
                    continue
                thread = state.own_thread(tid)
            if state.steps >= max_steps:
                state.status = "infeasible"
                state.meta["killed"] = "step-limit"
                return [state]

            frame = thread.frames[-1]
            code = frame.code
            if code is None:
                code = self._block_code(frame)
            entry = code[frame.index]
            state.steps += 1
            state.segment_instrs += 1
            thread.instr_count += 1
            stats.instructions += 1
            if thread.replaying:
                # Woken after blocking here: a retry of an instruction that
                # was already charged when the thread first attempted it.
                thread.replaying = False
                stats.replayed += 1
            try:
                successors = entry[0](self, state, thread, frame, entry)
            except _ExecError as err:
                self._mark_bug(state, err.kind, entry[1], err.message)
                return [state]
            except MemoryError_ as err:
                self._mark_bug(state, _memory_bug_kind(err), entry[1], str(err))
                return [state]

            if (len(successors) == 1 and state.status == "running"
                    and state.current_tid == tid and thread.status == RUNNABLE):
                # The common case: the same thread runs on.  Intermediate
                # goals only need a look when its block changed.
                if hook is not None and thread.frames[-1].code is not state.goal_code:
                    self._enter_block(state, thread, hook)
                continue
            thread = None
            successors = self._settle(successors)
            if len(successors) != 1 or state.status != "running":
                return successors
        return successors

    def _settle(self, successors: list[ExecutionState]) -> list[ExecutionState]:
        """Reschedule successors whose running thread cannot go on, and note
        the block each live successor's running thread now sits in."""
        hook = self.on_block_entry
        for succ in successors:
            if succ.status != "running":
                continue
            current = succ.threads.get(succ.current_tid)
            if current is None or current.status != RUNNABLE:
                self._reschedule(succ)
                if succ.status != "running":
                    continue
                current = succ.threads[succ.current_tid]
            if hook is not None and current.frames:
                self._enter_block(succ, current, hook)
        return successors

    def _enter_block(
        self, state: ExecutionState, thread: ThreadState,
        hook: Callable[[ExecutionState, str, str], None],
    ) -> None:
        """Report ``thread``'s block to ``hook`` unless the state's last
        report was the same block (decoded blocks are unique per
        (function, label), so identity is the comparison)."""
        frame = thread.frames[-1]
        code = frame.code or self._block_code(frame)
        if code is not state.goal_code:
            state.goal_code = code
            hook(state, frame.function, frame.block)

    def run_to_completion(
        self, state: ExecutionState, max_steps: int = 5_000_000
    ) -> ExecutionState:
        """Drive a (concrete, non-forking) state until it terminates."""
        steps = 0
        while state.status == "running":
            successors = self.step(state)
            if len(successors) != 1:
                raise RuntimeError(
                    "run_to_completion requires a deterministic execution; "
                    f"got {len(successors)} successors"
                )
            state = successors[0]
            steps += 1
            if steps > max_steps:
                raise RuntimeError("concrete execution exceeded step budget")
        return state

    # ------------------------------------------------------------------
    # Decoded code
    # ------------------------------------------------------------------

    def _function_code(self, name: str) -> dict[str, tuple]:
        """``name``'s decoded blocks, decoding the function on the module's
        first entry into it."""
        code = self._decoded.functions.get(name)
        if code is None:
            code = self._decoded.decode(self.module.functions[name])
        return code

    def _block_code(self, frame: Frame) -> tuple:
        code = frame.code = self._function_code(frame.function)[frame.block]
        return code

    def _mark_bug(
        self,
        state: ExecutionState,
        kind: BugKind,
        instr: ir.Instr,
        message: str,
        *,
        fault_value: Optional[int] = None,
        cycle: Optional[list[DeadlockEdge]] = None,
    ) -> None:
        state.status = "bug"
        state.bug = BugInfo(
            kind=kind,
            ref=state.pc,
            tid=state.current_tid,
            message=message,
            line=instr.line,
            fault_value=fault_value,
            cycle=cycle or [],
        )
        if self.observer is not None:
            self.observer.bug(kind.value, instr.line, state.current_tid)

    # ------------------------------------------------------------------
    # Value arithmetic
    # ------------------------------------------------------------------

    # -- arithmetic over mixed concrete/symbolic/pointer values ----------------

    def _compute_binop(self, op: str, lhs: Value, rhs: Value) -> Value:
        lhs_ptr = isinstance(lhs, Pointer)
        rhs_ptr = isinstance(rhs, Pointer)
        if not lhs_ptr and not rhs_ptr:
            if isinstance(lhs, FnPtr) or isinstance(rhs, FnPtr):
                return self._fnptr_binop(op, lhs, rhs)
            return binop(op, lhs, rhs)

        if op == "+":
            if lhs_ptr and not rhs_ptr and not isinstance(rhs, FnPtr):
                return Pointer(lhs.obj, binop("+", lhs.offset, rhs))
            if rhs_ptr and not lhs_ptr and not isinstance(lhs, FnPtr):
                return Pointer(rhs.obj, binop("+", rhs.offset, lhs))
        elif op == "-":
            if lhs_ptr and rhs_ptr:
                if lhs.obj != rhs.obj:
                    raise _ExecError(
                        BugKind.WILD_POINTER,
                        "subtraction of pointers into different objects",
                    )
                return binop("-", lhs.offset, rhs.offset)
            if lhs_ptr:
                return Pointer(lhs.obj, binop("-", lhs.offset, rhs))
        elif op in ("==", "!="):
            if lhs_ptr and rhs_ptr:
                if lhs.obj == rhs.obj:
                    return binop(op, lhs.offset, rhs.offset)
                return int(op == "!=")
            # Pointer vs integer: only equal if the integer is the null
            # pointer, and live pointers are never null.
            return int(op == "!=")
        elif op in ("<", "<=", ">", ">="):
            if lhs_ptr and rhs_ptr:
                if lhs.obj == rhs.obj:
                    return binop(op, lhs.offset, rhs.offset)
                return binop(op, lhs.obj, rhs.obj)
        raise _ExecError(
            BugKind.WILD_POINTER, f"invalid pointer arithmetic: {op!r}"
        )

    def _fnptr_binop(self, op: str, lhs: Value, rhs: Value) -> int:
        if op in ("==", "!="):
            if isinstance(lhs, FnPtr) and isinstance(rhs, FnPtr):
                same = lhs.name == rhs.name
            else:
                same = False  # function pointer vs integer: equal only to null
            return int(same if op == "==" else not same)
        raise _ExecError(BugKind.WILD_POINTER, f"invalid function-pointer op {op!r}")

    @staticmethod
    def _truth_value(value: Value) -> Atom:
        """0/1 (or symbolic 0/1 expression) for a branch condition."""
        if isinstance(value, (Pointer, FnPtr)):
            return 1
        if isinstance(value, int):
            return int(value != 0)
        return truthy(value)

    # -- constraint plumbing ------------------------------------------------------

    def _feasible(
        self, state: ExecutionState, extra: Atom,
        related: Optional[list[Expr]] = None,
    ) -> bool:
        """May ``extra`` hold on this path?

        The existing path condition is satisfiable by construction (every
        constraint was feasible when added), so only the constraints sharing
        variables with ``extra`` need to be re-solved.  A caller probing a
        condition and its negation passes their one ``related`` list.

        Model-reuse fast path: if the state's last satisfying assignment
        also satisfies ``extra`` (and the related constraints -- a forked
        sibling may carry a model that predates its branch constraint), the
        query is SAT by witness and no solve runs.  Most branch-feasibility
        queries take this path: one concrete evaluation instead of an
        interval search.  Otherwise the solver gets the path too, so a
        cache miss starts from the interval fixpoint the path stores.
        """
        if isinstance(extra, int):
            return extra != 0
        if related is None:
            related = state.related_constraints(extra)
        model = state.last_model if self.config.model_reuse else None
        if model is not None:
            # Evaluate the new condition first: the common stale case is a
            # model that contradicts exactly the branch being asked about.
            if holds_under([extra], model) and holds_under(related, model):
                self.solver.stats.fastpath_hits += 1
                return True
            self.solver.stats.fastpath_misses += 1
        solution = self.solver.check(related + [extra], state.path)
        if solution.is_sat:
            merged = dict(model) if model else {}
            merged.update(solution.model)
            state.last_model = merged
        return solution.maybe_sat

    def concretize(self, state: ExecutionState, atom: Atom) -> int:
        """Pick a concrete value for ``atom`` consistent with the path
        constraints, and pin it with an equality constraint (Klee-style
        address/size concretization)."""
        if isinstance(atom, int):
            return atom
        model = self.solver.model(state.constraints)
        if model is None:
            raise _ExecError(BugKind.ABORT, "path constraints became unsatisfiable")
        value = _eval_with_defaults(atom, model)
        state.add_constraint(binop("==", atom, value))
        # A full-path model is the best possible fast-path witness: it also
        # satisfies the pin constraint just added (it produced the value).
        state.last_model = {**(state.last_model or {}), **model}
        return value

    # ------------------------------------------------------------------
    # Memory access
    # ------------------------------------------------------------------

    def _access(
        self, state: ExecutionState, frame: Frame, addr: Value,
        instr: ir.Instr, is_write: bool,
    ) -> tuple[list[ExecutionState], Optional[tuple[ExecutionState, int, int]]]:
        """Resolve ``addr`` for an access.

        Returns ``(bug_states, ok)`` where ``ok`` is ``(state, obj_id,
        concrete_offset)`` if an in-bounds access is possible.  Symbolic
        offsets fork an out-of-bounds bug state when the bounds can be
        violated, and are concretized on the in-bounds path.  (Loads and
        stores through a concrete pointer never get here.)
        """
        if isinstance(addr, int):
            # Small positive addresses are offsets from a NULL base (field or
            # array access through a null pointer): the OS null page.
            kind = (
                BugKind.NULL_DEREF if 0 <= addr < 4096 else BugKind.WILD_POINTER
            )
            raise _ExecError(kind, f"dereference of address {addr}")
        if isinstance(addr, FnPtr):
            raise _ExecError(BugKind.WILD_POINTER, "dereference of function pointer")
        if isinstance(addr, Expr):
            # A symbolic non-pointer address: could be null.
            raise _ExecError(
                BugKind.NULL_DEREF, "dereference of symbolic integer address"
            )
        obj = state.address_space.get(addr.obj)
        offset = addr.offset
        bug_states: list[ExecutionState] = []
        oob = binop(
            "||", binop("<", offset, 0), binop(">=", offset, obj.size)
        )
        in_bounds = binop(
            "&&", binop(">=", offset, 0), binop("<", offset, obj.size)
        )
        # Static pruning: the access was proven in-bounds for every
        # execution, so the out-of-bounds fork can never materialize and
        # the in-bounds probe must succeed.  The in-bounds constraint (and
        # the offset concretization behind it) is still added unchanged.
        if self.absint is not None:
            ref = InstrRef(frame.function, frame.block, frame.index)
            if ref in self.absint.access_safe:
                self.solver.stats.static_answers += 2
                state.add_constraint(truthy(in_bounds))
                concrete = self.concretize(state, offset)
                return [], (state, addr.obj, concrete)
        orig_model = state.last_model
        if self._feasible(state, oob):
            bug = state.fork()  # inherits the out-of-bounds model
            self.stats.states_created += 1
            bug.add_constraint(truthy(oob))
            model = self.solver.model(bug.constraints)
            fault = _eval_with_defaults(offset, model) if model else None
            op = "write" if is_write else "read"
            self._mark_bug(
                bug,
                BugKind.OUT_OF_BOUNDS,
                instr,
                f"out-of-bounds {op} at offset {fault} of {obj!r}",
                fault_value=fault,
            )
            bug_states.append(bug)
        state.last_model = orig_model  # un-poison the in-bounds probe
        if self._feasible(state, in_bounds):
            state.add_constraint(truthy(in_bounds))
            concrete = self.concretize(state, offset)
            return bug_states, (state, addr.obj, concrete)
        state.status = "infeasible"
        return bug_states, None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _reschedule(self, state: ExecutionState) -> None:
        """The current thread cannot run; pick another or diagnose the end."""
        next_tid = self.policy.pick_next(state)
        if next_tid is not None:
            state.switch_to(next_tid)
            return
        live = state.live_threads()
        if not live:
            state.status = "exited"
            return
        # Every live thread is blocked: a deadlock (paper section 4.1 --
        # waiting on a mutex, a condvar signal, or a join).
        if self.config.detect_deadlocks:
            cycle = self._wait_cycle(state)
            blocked = live[0]
            info = BugInfo(
                kind=BugKind.DEADLOCK,
                ref=blocked.pc,
                tid=blocked.tid,
                message="no thread can make progress",
                line=self._line_at(blocked.pc),
                cycle=cycle,
            )
            state.status = "bug"
            state.bug = info
        else:
            state.status = "infeasible"
            state.meta["killed"] = "no-runnable-thread"

    def _line_at(self, ref: InstrRef) -> int:
        try:
            return self.module.instruction(ref).line
        except KeyError:  # pragma: no cover
            return 0

    def _wait_cycle(self, state: ExecutionState) -> list[DeadlockEdge]:
        """Resource-allocation-graph cycle among blocked threads [paper 4.1]."""
        waiting: dict[int, tuple[str, Optional[int]]] = {}
        for thread in state.live_threads():
            if thread.status != BLOCKED or thread.blocked_on is None:
                continue
            kind = thread.blocked_on[0]
            if kind == "mutex":
                key = thread.blocked_on[1]
                holder = state.mutexes[key].owner if key in state.mutexes else None
                waiting[thread.tid] = (f"mutex@{key}", holder)
            elif kind == "join":
                waiting[thread.tid] = (f"thread{thread.blocked_on[1]}", thread.blocked_on[1])
            else:
                waiting[thread.tid] = (f"cond@{thread.blocked_on[1]}", None)

        for start in waiting:
            path: list[int] = []
            tid: Optional[int] = start
            while tid is not None and tid in waiting and tid not in path:
                path.append(tid)
                tid = waiting[tid][1]
            if tid is not None and tid in path:
                cycle_tids = path[path.index(tid):]
                return [
                    DeadlockEdge(t, waiting[t][0], waiting[t][1]) for t in cycle_tids
                ]
        return [DeadlockEdge(t, res, holder) for t, (res, holder) in waiting.items()]

    def _check_mutex_cycle(self, state: ExecutionState, instr: ir.Instr) -> bool:
        """After a thread blocks on a mutex: is there a circular wait already?
        Catches deadlocks among a subset of threads while others still run."""
        if not self.config.detect_deadlocks:
            return False
        origin = state.current_tid
        seen: list[int] = []
        tid = origin
        while True:
            thread = state.threads.get(tid)
            if thread is None or thread.status != BLOCKED or not thread.blocked_on:
                return False
            kind, key = thread.blocked_on[0], thread.blocked_on[1]
            if kind != "mutex":
                return False
            rec = state.mutexes.get(key)
            if rec is None or rec.owner is None:
                return False
            if rec.owner == origin or rec.owner in seen:
                seen.append(tid)
                cycle = [
                    DeadlockEdge(
                        t,
                        f"mutex@{state.threads[t].blocked_on[1]}",
                        state.mutexes[state.threads[t].blocked_on[1]].owner,
                    )
                    for t in seen
                ]
                self._mark_bug(
                    state,
                    BugKind.DEADLOCK,
                    instr,
                    "circular mutex wait",
                    cycle=cycle,
                )
                return True
            seen.append(tid)
            tid = rec.owner

    def _sync_key(self, state: ExecutionState, value: Value) -> AddrKey:
        """A mutex/condvar identity: concrete (object, offset)."""
        if not isinstance(value, Pointer):
            raise _ExecError(
                BugKind.WILD_POINTER, f"sync operation on non-pointer {value!r}"
            )
        offset = value.offset
        if isinstance(offset, Expr):
            offset = self.concretize(state, offset)
        return (value.obj, offset)

    # ------------------------------------------------------------------
    # Instruction handlers
    #
    # Each takes the state, its running thread and that thread's top frame
    # (all held alone by the state) and the decoded entry, whose layout the
    # decoding notes at the end of this module give.  ``entry[1]`` is the
    # ``ir.Instr``.
    # ------------------------------------------------------------------

    def _exec_assign(self, state, thread, frame, entry) -> list[ExecutionState]:
        regs = frame.regs
        regs[entry[2]] = _val(state, regs, entry[3])
        frame.index += 1
        return [state]

    def _exec_binop(self, state, thread, frame, entry) -> list[ExecutionState]:
        regs = frame.regs
        lhs = _val(state, regs, entry[4])
        rhs = _val(state, regs, entry[5])
        if lhs.__class__ is int and rhs.__class__ is int:
            regs[entry[2]] = binop(entry[3], lhs, rhs)
        else:
            regs[entry[2]] = self._compute_binop(entry[3], lhs, rhs)
        frame.index += 1
        return [state]

    def _exec_division(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, dst, op, lhs, rhs = entry
        regs = frame.regs
        lhs = _val(state, regs, lhs)
        rhs = _val(state, regs, rhs)
        if isinstance(lhs, (Pointer, FnPtr)) or isinstance(rhs, (Pointer, FnPtr)):
            raise _ExecError(BugKind.WILD_POINTER, "division involving a pointer")
        if isinstance(rhs, int):
            if rhs == 0:
                raise _ExecError(BugKind.DIV_BY_ZERO, "division by zero")
            regs[dst] = binop(op, lhs, rhs)
            frame.index += 1
            return [state]
        # Static pruning: a divisor proven nonzero for every execution
        # cannot fork a division-by-zero bug state; the nonzero constraint
        # the surviving path carries is added unchanged.
        if self.absint is not None:
            ref = InstrRef(frame.function, frame.block, frame.index)
            if ref in self.absint.nonzero_divisors:
                self.solver.stats.static_answers += 2
                state.add_constraint(binop("!=", rhs, 0))
                regs[dst] = binop(op, lhs, rhs)
                frame.index += 1
                return [state]
        successors: list[ExecutionState] = []
        zero = binop("==", rhs, 0)
        orig_model = state.last_model
        if self._feasible(state, zero):
            bug = state.fork()  # inherits the zero-satisfying model
            self.stats.states_created += 1
            bug.add_constraint(zero)
            self._mark_bug(bug, BugKind.DIV_BY_ZERO, instr, "division by zero")
            successors.append(bug)
        state.last_model = orig_model  # un-poison the nonzero probe
        nonzero = binop("!=", rhs, 0)
        if self._feasible(state, nonzero):
            state.add_constraint(nonzero)
            regs[dst] = binop(op, lhs, rhs)
            frame.index += 1
            successors.append(state)
        else:
            state.status = "infeasible"
            successors.append(state)
        return successors

    def _exec_unop(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, dst, op, operand = entry
        operand = _val(state, frame.regs, operand)
        if isinstance(operand, (Pointer, FnPtr)):
            if op == "!":
                result: Value = 0  # pointers are truthy
            else:
                raise _ExecError(BugKind.WILD_POINTER, f"unary {op} on pointer")
        else:
            result = unop(op, operand)
        frame.regs[dst] = result
        frame.index += 1
        return [state]

    def _exec_alloc(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, dst, size_value, heap, name = entry
        size_value = _val(state, frame.regs, size_value)
        if isinstance(size_value, (Pointer, FnPtr)):
            raise _ExecError(BugKind.WILD_POINTER, "allocation with pointer size")
        size = (
            size_value if isinstance(size_value, int)
            else self.concretize(state, size_value)
        )
        if size < 0:
            raise _ExecError(BugKind.OUT_OF_BOUNDS, f"allocation of negative size {size}")
        obj = state.new_object(max(size, 0), "heap" if heap else "stack", name)
        if not heap:
            frame.allocas.append(obj.obj_id)
        frame.regs[dst] = Pointer(obj.obj_id, 0)
        frame.index += 1
        return [state]

    def _exec_free(self, state, thread, frame, entry) -> list[ExecutionState]:
        ptr = _val(state, frame.regs, entry[2])
        if isinstance(ptr, int):
            if ptr == 0:
                frame.index += 1  # free(NULL) is a no-op, as in C
                return [state]
            raise _ExecError(BugKind.INVALID_FREE, f"free of integer address {ptr}")
        if not isinstance(ptr, Pointer):
            raise _ExecError(BugKind.INVALID_FREE, f"free of {ptr!r}")
        offset = ptr.offset
        if isinstance(offset, Expr):
            offset = self.concretize(state, offset)
        state.address_space.free(ptr.obj, offset)
        frame.index += 1
        return [state]

    def _exec_load(self, state, thread, frame, entry) -> list[ExecutionState]:
        instr = entry[1]
        addr = _val(state, frame.regs, entry[3])
        extra = self._memory_hook(state, frame, instr, addr, is_write=False)
        if addr.__class__ is Pointer and addr.offset.__class__ is int:
            # A concrete address cannot fork: read (or fault) directly.
            frame.regs[entry[2]] = state.address_space.read(addr.obj, addr.offset)
            frame.index += 1
            return extra + [state]
        bug_states, ok = self._access(state, frame, addr, instr, is_write=False)
        if ok is not None:
            ok_state, obj_id, offset = ok
            frame.regs[entry[2]] = ok_state.address_space.read(obj_id, offset)
            frame.index += 1
            return extra + bug_states + [ok_state]
        return extra + bug_states + [state]

    def _exec_store(self, state, thread, frame, entry) -> list[ExecutionState]:
        instr = entry[1]
        regs = frame.regs
        addr = _val(state, regs, entry[2])
        value = _val(state, regs, entry[3])
        extra = self._memory_hook(state, frame, instr, addr, is_write=True)
        if addr.__class__ is Pointer and addr.offset.__class__ is int:
            state.address_space.write(addr.obj, addr.offset, value)
            frame.index += 1
            return extra + [state]
        bug_states, ok = self._access(state, frame, addr, instr, is_write=True)
        if ok is not None:
            ok_state, obj_id, offset = ok
            ok_state.address_space.write(obj_id, offset, value)
            frame.index += 1
            return extra + bug_states + [ok_state]
        return extra + bug_states + [state]

    def _memory_hook(
        self, state: ExecutionState, frame: Frame, instr: ir.Instr,
        addr: Value, is_write: bool,
    ) -> list[ExecutionState]:
        """Race-detection / racy-preemption hook for shared-memory accesses."""
        if not self.policy.wants_memory_hooks(state):
            return []
        if not isinstance(addr, Pointer):
            return []
        offset = addr.offset
        if isinstance(offset, Expr):
            return []  # symbolic offsets are concretized by _access afterwards
        obj = state.address_space.objects.get(addr.obj)
        if obj is None or obj.kind == "stack":
            return []
        forks = self.policy.on_memory_access(
            self, state, instr, InstrRef(frame.function, frame.block, frame.index),
            (addr.obj, offset), is_write,
        )
        self.stats.sched_forks += len(forks)
        return forks

    def _exec_gep(self, state, thread, frame, entry) -> list[ExecutionState]:
        regs = frame.regs
        base = _val(state, regs, entry[3])
        offset = _val(state, regs, entry[4])
        if isinstance(offset, (Pointer, FnPtr)):
            raise _ExecError(BugKind.WILD_POINTER, "pointer used as index")
        if isinstance(base, Pointer):
            result: Value = Pointer(base.obj, binop("+", base.offset, offset))
        elif isinstance(base, int):
            result = binop("+", base, offset) if base else offset
            if isinstance(result, int) and base == 0:
                # Indexing off the null pointer: keep it null-like so the
                # dereference reports a null dereference.
                result = 0 if offset == 0 else result
        elif isinstance(base, Expr):
            result = binop("+", base, offset)
        else:
            raise _ExecError(BugKind.WILD_POINTER, "indexing a function pointer")
        regs[entry[2]] = result
        frame.index += 1
        return [state]

    def _exec_call(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, dst, callee, args = entry
        regs = frame.regs
        callee = _val(state, regs, callee)
        if isinstance(callee, FnPtr):
            name = callee.name
        else:
            raise _ExecError(
                BugKind.WILD_POINTER, f"indirect call through non-function {callee!r}"
            )
        func = self.module.functions.get(name)
        if func is None:
            raise _ExecError(BugKind.WILD_POINTER, f"call to unknown function {name!r}")
        if len(args) != len(func.params):
            raise _ExecError(
                BugKind.WILD_POINTER,
                f"call to {name} with {len(args)} args, "
                f"expected {len(func.params)}",
            )
        values = [_val(state, regs, a) for a in args]
        frame.index += 1  # the caller resumes *after* the call
        callee_frame = Frame(name, func.entry)
        callee_frame.code = self._function_code(name)[func.entry]
        callee_frame.ret_dst = dst
        callee_frame.regs = dict(zip(func.params, values))
        thread.frames.append(callee_frame)
        return [state]

    def _exec_ret(self, state, thread, frame, entry) -> list[ExecutionState]:
        value: Value = 0
        if entry[2] is not None:
            value = _val(state, frame.regs, entry[2])
        frames = thread.frames
        frames.pop()
        if frame.allocas:
            state.address_space.release_stack(frame.allocas)
        if not frames:
            return self._thread_exit(state, thread, entry[1], value)
        caller = thread.own_top()
        if frame.ret_dst is not None:
            caller.regs[frame.ret_dst] = value
        if caller.code is None:
            self._block_code(caller)
        return [state]

    def _thread_exit(
        self, state: ExecutionState, thread: ThreadState, instr: ir.Instr,
        value: Value,
    ) -> list[ExecutionState]:
        thread.status = EXITED
        state.log_sync("exit", ("thread", thread.tid),
                       InstrRef(thread.entry_function, "exit", 0))
        if thread.tid == 0:
            # main returned: the process exits (C semantics).
            state.status = "exited"
            state.exit_code = value if isinstance(value, int) else 0
            return [state]
        joining = ("join", thread.tid)
        for tid, other in list(state.threads.items()):
            if other.status == BLOCKED and other.blocked_on == joining:
                other = state.own_thread(tid)
                other.status = RUNNABLE
                other.blocked_on = None
        forks = self.policy.on_thread_event(self, state, "exit", thread.tid, instr)
        self.stats.sched_forks += len(forks)
        return forks + [state]

    def _exec_br(self, state, thread, frame, entry) -> list[ExecutionState]:
        self._jump(frame, entry[2])
        return [state]

    def _jump(self, frame: Frame, label: str) -> None:
        """Move ``frame`` to the start of block ``label``."""
        frame.block = label
        frame.index = 0
        frame.code = self._function_code(frame.function)[label]

    # ------------------------------------------------------------------
    # Goal-directed necessary-precondition checks (see :mod:`..analysis.wp`)
    # ------------------------------------------------------------------

    def _wp_applicable(self, state: ExecutionState, thread: ThreadState) -> bool:
        """May refuted necessary conditions prune this state?

        Only single-threaded states (the conditions reason sequentially),
        and only when no *outer* stack frame sits in the goal's reach set:
        a condition says "the goal is unreachable from here *within this
        function*", so an outer frame from which the goal is still
        reachable after a return must veto the prune.
        """
        if self.wp is None:
            return False
        if len(state.threads) != 1:
            return False
        reach = self.wp.reach_blocks
        for frame in thread.frames[:-1]:  # outer frames (top of stack is last)
            if (frame.function, frame.block) in reach:
                return False
        return True

    def _wp_refuted(self, state: ExecutionState, frame: Frame, label: str) -> bool:
        """Does the state's concrete store contradict the necessary
        condition at ``label``'s entry?  Symbolic or unreadable cells never
        refute -- only definite concrete violations do."""
        cond = self.wp.condition_at(frame.function, label)  # type: ignore[union-attr]
        if isinstance(cond, _FalseCond):
            return True
        for (kind, func, name), interval in cond.items():
            if kind == "global":
                obj_id = state.globals.get(name)
                if obj_id is None:
                    continue
                try:
                    cell = state.address_space.read(obj_id, 0)
                except MemoryError_:
                    continue
            else:
                if func != frame.function:
                    continue
                ptr = frame.regs.get(name)
                if not isinstance(ptr, Pointer) or ptr.offset != 0:
                    continue
                try:
                    cell = state.address_space.read(ptr.obj, 0)
                except MemoryError_:
                    continue
            if isinstance(cell, int) and cell not in interval:
                return True
        return False

    def _wp_kill(self, state: ExecutionState) -> None:
        state.status = "infeasible"
        state.meta["killed"] = "wp-dead"
        self.prune_stats.state_kills += 1

    def _exec_condbr(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, cond, then_target, else_target = entry
        cond = self._truth_value(_val(state, frame.regs, cond))
        if isinstance(cond, int):
            target = then_target if cond else else_target
            if self.wp is not None and self._wp_applicable(state, thread):
                self.prune_stats.checks += 1
                if self._wp_refuted(state, frame, target):
                    if self.wp_audit:
                        state.meta["wp_dead"] = True
                    else:
                        self.solver.stats.wp_refuted += 1
                        self._wp_kill(state)
                        return [state]
            self._jump(frame, target)
            return [state]

        # Static pruning: the abstract interpreter proved one direction
        # infeasible for *every* execution reaching this branch, so both
        # feasibility probes are answered without touching the solver.  The
        # surviving direction gets exactly the constraint the probed path
        # would have added; the state's model witness stays valid because
        # every model of the path constraints takes the proven side.
        if self.absint is not None:
            side = self.absint.branch_facts.get(
                InstrRef(frame.function, frame.block, frame.index)
            )
            if side is not None:
                self.solver.stats.static_answers += 2
                if side == "then":
                    state.add_constraint(
                        cond if isinstance(cond, Expr) else truthy(cond)
                    )
                    target = then_target
                else:
                    false_cond = negate(cond)
                    state.add_constraint(
                        false_cond if isinstance(false_cond, Expr)
                        else truthy(false_cond)
                    )
                    target = else_target
                self._jump(frame, target)
                return [state]

        # Goal-directed pruning: a direction whose target block's necessary
        # condition is refuted by the concrete store cannot reach the goal
        # (and no outer frame offers a return path to it), so its
        # feasibility probe is skipped entirely.  The surviving direction
        # still gets probed and constrained exactly as an unpruned run
        # would, so the goal path's constraints -- and the synthesized
        # artifact -- are unchanged; only dead subtrees disappear.
        dead_then = dead_else = False
        if self.wp is not None and self._wp_applicable(state, thread):
            self.prune_stats.checks += 1
            dead_then = self._wp_refuted(state, frame, then_target)
            dead_else = self._wp_refuted(state, frame, else_target)
        if (dead_then or dead_else) and not self.wp_audit:
            self.solver.stats.wp_refuted += int(dead_then) + int(dead_else)
            if dead_then and dead_else:
                self._wp_kill(state)
                return [state]
            self.prune_stats.branch_prunes += 1
            self.prune_stats.probes_avoided += 1
            self.solver.stats.static_answers += 1
            if dead_else:
                if not self._feasible(state, cond):
                    self._wp_kill(state)
                    return [state]
                state.add_constraint(cond if isinstance(cond, Expr) else truthy(cond))
                target = then_target
            else:
                false_cond = negate(cond)
                if not self._feasible(state, false_cond):
                    self._wp_kill(state)
                    return [state]
                state.add_constraint(
                    false_cond if isinstance(false_cond, Expr) else truthy(false_cond)
                )
                target = else_target
            self._jump(frame, target)
            return [state]

        successors = self._condbr_fork(state, frame, entry, cond)
        if self.wp_audit and (dead_then or dead_else):
            for succ in successors:
                if succ.status != "running":
                    continue
                block = succ.frame.block
                if (dead_then and block == then_target) or (
                    dead_else and block == else_target
                ):
                    succ.meta["wp_dead"] = True
        return successors

    def _condbr_fork(
        self, state: ExecutionState, frame: Frame, entry: tuple, cond: Value
    ) -> list[ExecutionState]:
        # Probe each direction against the state's *original* path witness:
        # exactly one direction holds under it, so one of the two probes is
        # a guaranteed fast-path hit.  Letting the first probe's refreshed
        # model leak into the second would poison it (a model satisfying
        # ``cond`` never satisfies ``!cond``), and each surviving branch
        # must keep the model matching the constraint it adds.
        then_target, else_target = entry[3], entry[4]
        related = state.related_constraints(cond)
        orig_model = state.last_model
        true_feasible = self._feasible(state, cond, related)
        true_model = state.last_model
        state.last_model = orig_model
        false_cond = negate(cond)
        false_feasible = self._feasible(state, false_cond, related)
        if true_feasible and false_feasible:
            other = state.fork()  # inherits the false-direction model
            self.stats.forks += 1
            self.stats.states_created += 1
            state.last_model = true_model
            other.add_constraint(false_cond)
            self._jump(other.threads[other.current_tid].frames[-1], else_target)
            state.add_constraint(cond if isinstance(cond, Expr) else truthy(cond))
            self._jump(frame, then_target)
            return [state, other]
        if true_feasible:
            state.last_model = true_model
            state.add_constraint(cond if isinstance(cond, Expr) else truthy(cond))
            target = then_target
        elif false_feasible:
            state.add_constraint(false_cond if isinstance(false_cond, Expr) else truthy(false_cond))
            target = else_target
        else:
            state.status = "infeasible"
            return [state]
        self._jump(frame, target)
        return [state]

    def _exec_unreachable(self, state, thread, frame, entry) -> list[ExecutionState]:
        raise _ExecError(BugKind.ABORT, "reached unreachable code")

    def _exec_assert(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, cond, message = entry
        cond = self._truth_value(_val(state, frame.regs, cond))
        if isinstance(cond, int):
            if cond:
                frame.index += 1
                return [state]
            self._mark_bug(
                state, BugKind.ASSERT_FAIL, instr, f"assertion failed: {message}"
            )
            return [state]
        successors: list[ExecutionState] = []
        failing = negate(cond)
        related = state.related_constraints(cond)
        orig_model = state.last_model
        if self._feasible(state, failing, related):
            bug = state.fork()  # inherits the failing-side model
            self.stats.states_created += 1
            bug.add_constraint(failing)
            self._mark_bug(
                bug, BugKind.ASSERT_FAIL, instr, f"assertion failed: {message}"
            )
            successors.append(bug)
        state.last_model = orig_model  # un-poison the passing-side probe
        if self._feasible(state, cond, related):
            state.add_constraint(cond)
            frame.index += 1
            successors.append(state)
        else:
            state.status = "infeasible"
            successors.append(state)
        return successors

    # -- synchronization --------------------------------------------------------

    def _wake(self, state: ExecutionState, tids: list[int], blocked_on: tuple) -> None:
        """Make every thread in ``tids`` blocked on ``blocked_on`` runnable."""
        for tid in tids:
            waiter = state.threads[tid]
            if waiter.status == BLOCKED and waiter.blocked_on == blocked_on:
                waiter = state.own_thread(tid)
                waiter.status = RUNNABLE
                waiter.blocked_on = None

    def _exec_lock(self, state, thread, frame, entry) -> list[ExecutionState]:
        instr = entry[1]
        key = self._sync_key(state, _val(state, frame.regs, entry[2]))
        ref = InstrRef(frame.function, frame.block, frame.index)
        rec = state.mutexes.get(key)
        if rec is None:
            rec = state.mutexes[key] = MutexRec()
        if rec.owner is None:
            forks = self.policy.fork_before_acquire(self, state, key, instr, ref)
            self.stats.sched_forks += len(forks)
            if state.status != "running":
                return forks + [state]
            rec = state.mutexes[key]  # policy fork may have cloned records
            rec.owner = thread.tid
            if thread.tid in rec.waiters:
                rec.waiters.remove(thread.tid)
            state.log_sync("lock", key, ref)
            frame.index += 1
            after = self.policy.after_acquire(self, state, key, instr, ref)
            self.stats.sched_forks += len(after)
            return forks + after + [state]
        # Mutex held (possibly by this same thread: self-deadlock, as for a
        # non-recursive POSIX mutex).
        holder = rec.owner
        if thread.tid not in rec.waiters:
            rec.waiters.append(thread.tid)
        thread.status = BLOCKED
        thread.blocked_on = ("mutex", key)
        thread.replaying = True  # the pc stays here; wake re-executes the lock
        state.log_sync("block", key, ref)
        if self._check_mutex_cycle(state, instr):
            return [state]
        forks = self.policy.on_contention(self, state, key, holder, instr, ref)
        self.stats.sched_forks += len(forks)
        return forks + [state]

    def _exec_unlock(self, state, thread, frame, entry) -> list[ExecutionState]:
        instr = entry[1]
        key = self._sync_key(state, _val(state, frame.regs, entry[2]))
        ref = InstrRef(frame.function, frame.block, frame.index)
        rec = state.mutexes.get(key)
        if rec is None or rec.owner != state.current_tid:
            raise _ExecError(
                BugKind.INVALID_UNLOCK,
                "unlock of a mutex not held by this thread",
            )
        forks = self.policy.fork_before_release(self, state, key, instr, ref)
        self.stats.sched_forks += len(forks)
        if state.status != "running":
            return forks + [state]
        rec = state.mutexes[key]
        rec.owner = None
        self._wake(state, rec.waiters, ("mutex", key))
        rec.waiters.clear()
        state.log_sync("unlock", key, ref)
        frame.index += 1
        self.policy.on_release(self, state, key, instr, ref)
        return forks + [state]

    def _exec_cond_wait(self, state, thread, frame, entry) -> list[ExecutionState]:
        instr = entry[1]
        regs = frame.regs
        cond_key = self._sync_key(state, _val(state, regs, entry[2]))
        mutex_key = self._sync_key(state, _val(state, regs, entry[3]))
        ref = InstrRef(frame.function, frame.block, frame.index)

        if thread.reacquire_mutex is not None:
            # Phase 2: signaled; re-acquire the mutex, then the wait returns.
            rec = state.mutexes.get(mutex_key)
            if rec is None:
                rec = state.mutexes[mutex_key] = MutexRec()
            if rec.owner is None:
                rec.owner = thread.tid
                if thread.tid in rec.waiters:
                    rec.waiters.remove(thread.tid)
                thread.reacquire_mutex = None
                state.log_sync("wakelock", mutex_key, ref)
                frame.index += 1
                return [state]
            if thread.tid not in rec.waiters:
                rec.waiters.append(thread.tid)
            thread.status = BLOCKED
            thread.blocked_on = ("mutex", mutex_key)
            thread.replaying = True  # wake retries the re-acquisition
            self._check_mutex_cycle(state, instr)
            return [state]

        # Phase 1: atomically release the mutex and sleep on the condvar.
        rec = state.mutexes.get(mutex_key)
        if rec is None or rec.owner != thread.tid:
            raise _ExecError(
                BugKind.INVALID_UNLOCK, "cond_wait without holding the mutex"
            )
        rec.owner = None
        self._wake(state, rec.waiters, ("mutex", mutex_key))
        rec.waiters.clear()
        state.condvars.setdefault(cond_key, []).append(thread.tid)
        thread.status = BLOCKED
        thread.blocked_on = ("cond", cond_key)
        thread.reacquire_mutex = mutex_key
        thread.replaying = True  # the signaled wait re-executes as phase 2
        state.log_sync("wait", cond_key, ref)
        return [state]

    def _exec_cond_signal(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, cond, broadcast = entry
        cond_key = self._sync_key(state, _val(state, frame.regs, cond))
        waiters = state.condvars.get(cond_key, [])
        woken = list(waiters) if broadcast else waiters[:1]
        for tid in woken:
            waiters.remove(tid)
            woken_thread = state.own_thread(tid)
            woken_thread.status = RUNNABLE
            woken_thread.blocked_on = None
            # reacquire_mutex stays set: the wait resumes in phase 2.
        op = "broadcast" if broadcast else "signal"
        state.log_sync(op, cond_key, InstrRef(frame.function, frame.block, frame.index))
        frame.index += 1
        forks = self.policy.on_thread_event(self, state, op, state.current_tid, instr)
        self.stats.sched_forks += len(forks)
        return forks + [state]

    def _exec_thread_create(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, dst, func_value, arg = entry
        regs = frame.regs
        func_value = _val(state, regs, func_value)
        if not isinstance(func_value, FnPtr):
            raise _ExecError(
                BugKind.WILD_POINTER, f"thread start routine is {func_value!r}"
            )
        func = self.module.functions.get(func_value.name)
        if func is None:
            raise _ExecError(
                BugKind.WILD_POINTER, f"unknown start routine {func_value.name!r}"
            )
        if len(func.params) != 1:
            raise _ExecError(
                BugKind.WILD_POINTER,
                f"start routine {func.name} must take exactly one argument",
            )
        arg = _val(state, regs, arg)
        tid = state.next_tid
        state.next_tid += 1
        created = ThreadState(tid, func.name)
        start = Frame(func.name, func.entry)
        start.regs[func.params[0]] = arg
        created.frames.append(start)
        state.threads[tid] = created
        if dst is not None:
            regs[dst] = tid
        state.log_sync("create", ("thread", tid),
                       InstrRef(frame.function, frame.block, frame.index))
        frame.index += 1
        forks = self.policy.on_thread_event(self, state, "create", tid, instr)
        self.stats.sched_forks += len(forks)
        return forks + [state]

    def _exec_thread_join(self, state, thread, frame, entry) -> list[ExecutionState]:
        dst = entry[2]
        tid_value = _val(state, frame.regs, entry[3])
        if isinstance(tid_value, Expr):
            tid_value = self.concretize(state, tid_value)
        if not isinstance(tid_value, int) or tid_value not in state.threads:
            raise _ExecError(BugKind.WILD_POINTER, f"join of unknown thread {tid_value!r}")
        target = state.threads[tid_value]
        if target.status == EXITED:
            if dst is not None:
                frame.regs[dst] = 0
            state.log_sync("join", ("thread", tid_value),
                           InstrRef(frame.function, frame.block, frame.index))
            frame.index += 1
            return [state]
        thread.status = BLOCKED
        thread.blocked_on = ("join", tid_value)
        thread.replaying = True  # the join re-executes once the target exits
        return [state]

    # -- intrinsics ------------------------------------------------------------

    def _exec_intrinsic(self, state, thread, frame, entry) -> list[ExecutionState]:
        _, instr, dst, name, args = entry
        args = [_val(state, frame.regs, a) for a in args]
        result: Value = 0
        if name == "getchar":
            result = self.env.getchar(state)
        elif name == "getenv":
            var_name = self._read_cstring(state, args[0])
            result = self.env.getenv(state, var_name)
        elif name == "argc":
            result = self.env.argc(state)
        elif name == "arg":
            index = args[0]
            if isinstance(index, Expr):
                index = self.concretize(state, index)
            if not isinstance(index, int):
                raise _ExecError(BugKind.WILD_POINTER, "arg() index must be an int")
            result = self.env.arg(state, index)
        elif name == "read_input":
            label = self._read_cstring(state, args[0])
            size = args[1]
            if isinstance(size, Expr):
                size = self.concretize(state, size)
            if not isinstance(size, int) or size <= 0:
                raise _ExecError(BugKind.WILD_POINTER, "read_input size must be positive")
            result = self.env.read_input(state, label, size)
        elif name == "print_int":
            state.log_output(_format_value(args[0]))
        elif name == "print_str":
            state.log_output(self._read_cstring(state, args[0], lossy=True))
        elif name == "exit":
            code = args[0]
            state.status = "exited"
            state.exit_code = code if isinstance(code, int) else 0
            return [state]
        elif name == "abort":
            raise _ExecError(BugKind.ABORT, "abort() called")
        elif name == "assume":
            cond = self._truth_value(args[0])
            if isinstance(cond, int):
                if not cond:
                    state.status = "infeasible"
                    return [state]
            elif self._feasible(state, cond):
                state.add_constraint(cond)
            else:
                state.status = "infeasible"
                return [state]
        else:  # pragma: no cover - verifier rules this out
            raise _ExecError(BugKind.ABORT, f"unknown intrinsic {name}")
        if dst is not None:
            frame.regs[dst] = result
        frame.index += 1
        return [state]

    def _read_cstring(
        self, state: ExecutionState, value: Value, lossy: bool = False, limit: int = 4096
    ) -> str:
        if not isinstance(value, Pointer):
            raise _ExecError(BugKind.WILD_POINTER, "expected a string pointer")
        offset = value.offset
        if isinstance(offset, Expr):
            offset = self.concretize(state, offset)
        chars: list[str] = []
        for i in range(limit):
            cell = state.address_space.read(value.obj, offset + i)
            if isinstance(cell, Expr):
                if lossy:
                    chars.append("?")
                    continue
                cell = self.concretize(state, cell)
            if isinstance(cell, (Pointer, FnPtr)):
                if lossy:
                    chars.append("*")
                    continue
                raise _ExecError(BugKind.WILD_POINTER, "non-character in string")
            if cell == 0:
                return "".join(chars)
            chars.append(chr(cell & 0xFF))
        return "".join(chars)


def _memory_bug_kind(err: MemoryError_) -> BugKind:
    if isinstance(err, UseAfterFree):
        return BugKind.USE_AFTER_FREE
    if isinstance(err, DoubleFree):
        return BugKind.DOUBLE_FREE
    if isinstance(err, InvalidFree):
        return BugKind.INVALID_FREE
    if isinstance(err, OutOfBounds):
        return BugKind.OUT_OF_BOUNDS
    return BugKind.WILD_POINTER


def _eval_with_defaults(atom: Atom, model: dict[str, int]) -> int:
    if isinstance(atom, int):
        return atom
    full = dict(model)
    for var in atom.variables():
        full.setdefault(var.name, var.lo)
    return evaluate(atom, full)


def _format_value(value: Value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Pointer):
        return f"<ptr {value.obj}+{value.offset!r}>"
    if isinstance(value, FnPtr):
        return f"<fn {value.name}>"
    return f"<sym {value!r}>"


# ---------------------------------------------------------------------------
# Decoding: IR blocks to flat tuples of (handler, instr, resolved operands...)
#
# Operands decode to a register name (``str``), a constant value (``int`` or
# ``FnPtr``), or a :class:`_Late` operand resolved against the state when
# read.  Entry layouts, after ``(handler, instr)``:
#
#   Assign (dst, src)             BinOp (dst, op, lhs, rhs)
#   UnOp (dst, op, value)         Alloc (dst, size, heap, name)
#   Free (ptr)                    Load (dst, addr)
#   Store (addr, value)           Gep (dst, base, offset)
#   Call (dst|None, callee, args) Ret (value|None)
#   Br (target)                   CondBr (cond, then, else)
#   Assert (cond, message)        Intrinsic (dst|None, name, args)
#   MutexLock/Unlock (mutex)      CondWait (cond, mutex)
#   CondSignal (cond, broadcast)  ThreadCreate (dst|None, func, arg)
#   ThreadJoin (dst|None, tid)    Unreachable ()
#
# Branch targets stay labels, resolved through the module's table when
# taken: an entry referencing other blocks' tuples would make every loop a
# reference cycle, which only the cyclic garbage collector frees.
#
# A module is decoded once, however many executors run it (search, playback,
# repair validation, ...): its decoded form lives in a table keyed weakly by
# the module, so it dies with the module, and a deep copy (a repair
# candidate) is a new key that decodes afresh.  Code must not mutate a
# module once it has been run; mutate a copy instead.
# ---------------------------------------------------------------------------


class _Late:
    """An operand whose value depends on the state it is read in."""

    __slots__ = ()

    def resolve(self, state: ExecutionState) -> Value:
        raise NotImplementedError


class _GlobalOperand(_Late):
    # One per global name and module (see _ModuleCode.operand).  Remembers
    # the pointer for the last globals map it was read against: every state
    # of one run shares that map (see ExecutionState.fork).
    __slots__ = ("name", "_cached")

    def __init__(self, name: str) -> None:
        self.name = name
        self._cached: tuple[Optional[dict[str, int]], Pointer] = (None, Pointer(0))

    def resolve(self, state: ExecutionState) -> Value:
        cached = self._cached
        if cached[0] is not state.globals:
            cached = self._cached = (state.globals,
                                     Pointer(state.globals[self.name], 0))
        return cached[1]


class _HoleOperand(_Late):
    # Resolved per read, not at decode time: the hole registry may evict.
    __slots__ = ("hole",)

    def __init__(self, hole: "ir.Hole") -> None:
        self.hole = hole

    def resolve(self, state: ExecutionState) -> Value:
        return hole_var(self.hole)


def _val(state: ExecutionState, regs: dict, operand) -> Value:
    """The runtime value of a decoded operand in ``regs``' frame."""
    if operand.__class__ is str:
        try:
            return regs[operand]
        except KeyError:
            raise _ExecError(
                BugKind.WILD_POINTER,
                f"use of uninitialized register %{operand}",
            ) from None
    if isinstance(operand, _Late):
        return operand.resolve(state)
    return operand


def _dst(value: Optional[ir.Value]) -> Optional[str]:
    if value is None:
        return None
    assert isinstance(value, ir.Reg)
    return value.name


def _decode(instr: ir.Instr, op: Callable[[ir.Value], object]) -> tuple:
    if isinstance(instr, ir.Assign):
        return (Executor._exec_assign, instr, _dst(instr.dst), op(instr.src))
    if isinstance(instr, ir.BinOp):
        handler = (Executor._exec_division if instr.op in ("/", "%")
                   else Executor._exec_binop)
        return (handler, instr, _dst(instr.dst), instr.op,
                op(instr.lhs), op(instr.rhs))
    if isinstance(instr, ir.UnOp):
        return (Executor._exec_unop, instr, _dst(instr.dst), instr.op,
                op(instr.value))
    if isinstance(instr, ir.Alloc):
        return (Executor._exec_alloc, instr, _dst(instr.dst), op(instr.size),
                instr.heap, instr.name)
    if isinstance(instr, ir.Free):
        return (Executor._exec_free, instr, op(instr.ptr))
    if isinstance(instr, ir.Load):
        return (Executor._exec_load, instr, _dst(instr.dst), op(instr.addr))
    if isinstance(instr, ir.Store):
        return (Executor._exec_store, instr, op(instr.addr), op(instr.value))
    if isinstance(instr, ir.Gep):
        return (Executor._exec_gep, instr, _dst(instr.dst), op(instr.base),
                op(instr.offset))
    if isinstance(instr, ir.Call):
        dst = instr.dst.name if isinstance(instr.dst, ir.Reg) else None
        return (Executor._exec_call, instr, dst, op(instr.callee),
                tuple(op(a) for a in instr.args))
    if isinstance(instr, ir.Ret):
        return (Executor._exec_ret, instr,
                None if instr.value is None else op(instr.value))
    if isinstance(instr, ir.Br):
        return (Executor._exec_br, instr, instr.target)
    if isinstance(instr, ir.CondBr):
        return (Executor._exec_condbr, instr, op(instr.cond),
                instr.then_target, instr.else_target)
    if isinstance(instr, ir.Unreachable):
        return (Executor._exec_unreachable, instr)
    if isinstance(instr, ir.Assert):
        return (Executor._exec_assert, instr, op(instr.cond), instr.message)
    if isinstance(instr, ir.Intrinsic):
        return (Executor._exec_intrinsic, instr, _dst(instr.dst), instr.name,
                tuple(op(a) for a in instr.args))
    if isinstance(instr, ir.MutexLock):
        return (Executor._exec_lock, instr, op(instr.mutex))
    if isinstance(instr, ir.MutexUnlock):
        return (Executor._exec_unlock, instr, op(instr.mutex))
    if isinstance(instr, ir.CondWait):
        return (Executor._exec_cond_wait, instr, op(instr.cond), op(instr.mutex))
    if isinstance(instr, ir.CondSignal):
        return (Executor._exec_cond_signal, instr, op(instr.cond), instr.broadcast)
    if isinstance(instr, ir.ThreadCreate):
        return (Executor._exec_thread_create, instr, _dst(instr.dst),
                op(instr.func), op(instr.arg))
    if isinstance(instr, ir.ThreadJoin):
        return (Executor._exec_thread_join, instr, _dst(instr.dst), op(instr.tid))
    return (_unhandled, instr)  # pragma: no cover - verifier rules this out


def _unhandled(executor, state, thread, frame, entry) -> list[ExecutionState]:
    raise _ExecError(BugKind.ABORT, f"unhandled instruction {entry[1]!r}")


class _ModuleCode:
    """One module's decoded form, shared by every executor of the module:
    ``functions`` maps name -> label -> entries, filled on the first entry
    into each function, and ``globals`` interns one operand per global
    name."""

    __slots__ = ("functions", "globals")

    def __init__(self) -> None:
        self.functions: dict[str, dict[str, tuple]] = {}
        self.globals: dict[str, _GlobalOperand] = {}

    def decode(self, function: ir.Function) -> dict[str, tuple]:
        """Decode every block of ``function`` into a tuple of entries, the
        terminator last, so instruction ``i`` of a block is ``code[i]``.
        Executors on other threads may decode the same function at once;
        every one of them keeps the first table stored."""
        blocks: dict[str, tuple] = {}
        op = self.operand
        for label, block in function.blocks.items():
            instrs = list(block.instrs)
            if block.terminator is not None:
                instrs.append(block.terminator)
            blocks[label] = tuple(_decode(instr, op) for instr in instrs)
        return self.functions.setdefault(function.name, blocks)

    def operand(self, value: ir.Value):
        if isinstance(value, ir.Reg):
            return value.name
        if isinstance(value, ir.Const):
            return value.value
        if isinstance(value, ir.GlobalRef):
            operand = self.globals.get(value.name)
            if operand is None:
                operand = self.globals.setdefault(
                    value.name, _GlobalOperand(value.name))
            return operand
        if isinstance(value, ir.FuncRef):
            return FnPtr(value.name)
        if isinstance(value, ir.Hole):
            return _HoleOperand(value)
        raise TypeError(f"unknown operand {value!r}")  # pragma: no cover


_DECODED: "weakref.WeakKeyDictionary[ir.Module, _ModuleCode]" = (
    weakref.WeakKeyDictionary())


def _module_code(module: ir.Module) -> _ModuleCode:
    return _DECODED.setdefault(module, _ModuleCode())
