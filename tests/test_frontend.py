"""The real-Python frontend: differential semantics against CPython,
golden IR, and precise rejection of out-of-subset constructs.

Differential tests are the frontend's correctness contract: for every
in-subset program, the concrete executor's result must equal CPython's
(``main()``'s return value, and the exception-to-bug-kind mapping for
crashing programs).  A frontend that *miscompiles* instead of rejecting
would silently synthesize executions of the wrong program.
"""

import pytest

from repro.frontend import (
    FrontendError,
    PythonCompileError,
    UnsupportedPythonError,
    compile_python_source,
)
from repro.ir.printer import format_function
from repro.symbex import BugKind, ConcreteEnv, Executor, RecordedInputs


def run_ir(source, env=None):
    module = compile_python_source(source, "t")
    executor = Executor(module, env=ConcreteEnv(env or RecordedInputs()))
    return executor.run_to_completion(executor.initial_state())


def run_cpython(source):
    namespace = {"__name__": "not_main"}
    exec(compile(source, "<test>", "exec"), namespace)
    return namespace["main"]()


# ---------------------------------------------------------------------------
# Differential semantics: executor result == CPython result.
# ---------------------------------------------------------------------------

DIFFERENTIAL_PROGRAMS = {
    "arith-chain": """\
def main():
    x = 10
    y = x * 3 + 4 - 2
    return y % 17
""",
    "floor-division-negatives": """\
def main():
    a = -7
    b = 2
    return (a // b) * 100 + (-9 // -4) * 10 + (7 // -2)
""",
    "floor-modulo-negatives": """\
def main():
    return (-7 % 3) * 100 + (7 % -3) * 10 + (-7 % -3)
""",
    "augassign": """\
def main():
    x = 5
    x += 3
    x -= 1
    x *= 2
    x //= 3
    x %= 3
    return x
""",
    "while-loop": """\
def main():
    i = 0
    s = 0
    while i < 10:
        s = s + i
        i = i + 1
    return s
""",
    "for-range-variants": """\
def main():
    s = 0
    for i in range(5):
        s = s + i
    for j in range(2, 8):
        s = s + j
    for k in range(10, 0, -3):
        s = s + k
    return s
""",
    "for-loop-var-keeps-last-value": """\
def main():
    i = 99
    for i in range(4):
        pass
    return i
""",
    "break-continue": """\
def main():
    s = 0
    i = 0
    while i < 20:
        i = i + 1
        if i % 2 == 0:
            continue
        if i > 11:
            break
        s = s + i
    return s * 100 + i
""",
    "chained-comparison": """\
def main():
    a = 3
    b = 5
    return (1 < a < 10) * 100 + (a <= b <= 4) * 10 + (0 == 0 == 0)
""",
    "boolop-condition": """\
def main():
    a = 4
    b = 0
    if a > 2 and not b:
        return 1
    if a > 9 or b == 0:
        return 2
    return 3
""",
    "boolop-value-position": """\
def main():
    a = 7
    x = a > 3 and a < 5
    y = a == 7 or a == 0
    return x * 10 + y
""",
    "lists": """\
ws = [10, 20, 30]


def main():
    xs = [1, 2, 3, 4]
    ys = [0] * 3
    ys[1] = xs[0] + xs[-1]
    ys[2] = len(xs) + len(ws)
    return ys[0] + ys[1] * 10 + ys[2] + ws[-2]
""",
    "globals-and-calls": """\
COUNT = 0


def bump(n):
    global COUNT
    COUNT = COUNT + n
    return COUNT


def main():
    bump(3)
    bump(4)
    return COUNT * 10 + bump(0)
""",
    "early-return-and-nesting": """\
def classify(n):
    if n < 0:
        return -1
    if n == 0:
        return 0
    if n < 10:
        return 1
    return 2


def main():
    return (classify(-5) + 1) * 1000 + classify(0) * 100 \\
        + classify(7) * 10 + classify(77)
""",
    "assert-passes": """\
def main():
    x = 6 * 7
    assert x == 42
    return x
""",
    "recursion": """\
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)


def main():
    return fib(10)
""",
}


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_PROGRAMS))
    def test_matches_cpython(self, name):
        source = DIFFERENTIAL_PROGRAMS[name]
        state = run_ir(source)
        assert state.status == "exited", (state.status, state.bug)
        assert state.exit_code == run_cpython(source)

    def test_env_gated_branch(self, monkeypatch):
        source = """\
import os


def main():
    mode = os.getenv("MODE")
    if mode[0] == 'A':
        return 10
    return 20
"""
        state = run_ir(source, RecordedInputs(env={"MODE": "A"}))
        monkeypatch.setenv("MODE", "A")
        assert state.exit_code == run_cpython(source) == 10


EXCEPTION_PROGRAMS = {
    "assert-fail": (
        """\
def main():
    x = 1
    assert x == 2, "x must be two"
    return 0
""",
        AssertionError, BugKind.ASSERT_FAIL,
    ),
    "zero-division": (
        """\
def main():
    a = 10
    b = 0
    return a // b
""",
        ZeroDivisionError, BugKind.DIV_BY_ZERO,
    ),
    "index-error": (
        """\
def main():
    xs = [1, 2, 3]
    i = 5
    return xs[i]
""",
        IndexError, BugKind.OUT_OF_BOUNDS,
    ),
}


class TestDifferentialExceptions:
    @pytest.mark.parametrize("name", sorted(EXCEPTION_PROGRAMS))
    def test_exception_maps_to_bug_kind(self, name):
        source, exc_type, bug_kind = EXCEPTION_PROGRAMS[name]
        with pytest.raises(exc_type):
            run_cpython(source)
        state = run_ir(source)
        assert state.status == "bug"
        assert state.bug.kind is bug_kind


class TestThreading:
    def test_thread_create_join_and_locks(self):
        # Not differential (CPython threads are nondeterministic); the
        # executor's default round-robin makes this deterministic.
        source = """\
import threading

lock = threading.Lock()
TOTAL = 0


def worker(n):
    global TOTAL
    lock.acquire()
    TOTAL = TOTAL + n
    lock.release()
    return 0


def main():
    t1 = threading.Thread(target=worker, args=(10,))
    t2 = threading.Thread(target=worker, args=(32,))
    t1.start()
    t2.start()
    t1.join()
    t2.join()
    return TOTAL
"""
        state = run_ir(source)
        assert state.status == "exited"
        assert state.exit_code == 42

    def test_with_lock_block(self):
        source = """\
import threading

lock = threading.Lock()


def main():
    x = 0
    with lock:
        x = 7
    return x
"""
        state = run_ir(source)
        assert state.exit_code == 7


# ---------------------------------------------------------------------------
# Golden IR: the lowering itself is part of the contract.
# ---------------------------------------------------------------------------


GOLDEN_SOURCE = """\
def add(a, b):
    return a + b


def main():
    x = 3
    if x > 1:
        x = add(x, 4)
    return x
"""

GOLDEN_ADD = """\
func add(a, b) {
entry:
    %a.addr = alloca(1)
    store %a -> %a.addr
    %b.addr = alloca(1)
    store %b -> %b.addr
    %t1 = load %a.addr
    %t2 = load %b.addr
    %t3 = %t1 + %t2
    ret %t3
}"""

GOLDEN_MAIN = """\
func main() {
entry:
    %x.addr = alloca(1)
    store 3 -> %x.addr
    %t1 = load %x.addr
    %t2 = %t1 > 1
    br %t2, if.then1, if.end2
if.then1:
    %t3 = load %x.addr
    %t4 = call &add(%t3, 4)
    store %t4 -> %x.addr
    br if.end2
if.end2:
    %t5 = load %x.addr
    ret %t5
}"""


class TestGoldenIR:
    def test_lowering_matches_golden(self):
        module = compile_python_source(GOLDEN_SOURCE, "golden")
        assert format_function(module.functions["add"]).rstrip() == GOLDEN_ADD
        assert format_function(module.functions["main"]).rstrip() == GOLDEN_MAIN

    def test_same_allocas_as_minic_compiler(self):
        # The frontend mirrors lang/compiler.py's lowering discipline: one
        # alloca per local, named <var>.addr, loads/stores per access.
        from repro import ir

        module = compile_python_source(GOLDEN_SOURCE, "golden")
        allocas = [
            instr.dst.name
            for _, instr in module.functions["main"].iter_instructions()
            if isinstance(instr, ir.Alloc)
        ]
        assert allocas == ["x.addr"]


# ---------------------------------------------------------------------------
# Precise rejection: out-of-subset constructs must raise, never miscompile.
# ---------------------------------------------------------------------------


REJECTED = [
    ("floats", "def main():\n    return 1.5\n", "Constant"),
    ("strings-as-values", 'def main():\n    x = "ab"\n    return 0\n', ""),
    ("dicts", "def main():\n    d = {}\n    return 0\n", "Dict"),
    ("try-except",
     "def main():\n    try:\n        return 1\n    except Exception:\n"
     "        return 2\n", "Try"),
    ("classes", "class C:\n    pass\ndef main():\n    return 0\n",
     "ClassDef"),
    ("lambdas", "def main():\n    f = lambda x: x\n    return 0\n",
     "Lambda"),
    ("imports", "import random\ndef main():\n    return 0\n", "random"),
    ("from-imports", "from os import getenv\ndef main():\n    return 0\n",
     "ImportFrom"),
    ("default-args", "def f(a=1):\n    return a\ndef main():\n"
     "    return f()\n", "default"),
    ("starargs", "def f(*a):\n    return 0\ndef main():\n    return f()\n",
     ""),
    ("kwargs-call", "def f(a):\n    return a\ndef main():\n"
     "    return f(a=1)\n", "keyword"),
    ("while-else", "def main():\n    while 0:\n        pass\n    else:\n"
     "        return 1\n", "else"),
    ("fstrings", 'def main():\n    x = f"{1}"\n    return 0\n', ""),
    ("slices", "def main():\n    xs = [1, 2]\n    return xs[0:1]\n",
     "Slice"),
    ("nonlocal", "def main():\n    def g():\n        nonlocal x\n"
     "    return 0\n", ""),
    ("unknown-builtin", "def main():\n    return abs(-1)\n", "abs"),
    ("range-zero-step",
     "def main():\n    for i in range(0, 5, 0):\n        pass\n"
     "    return 0\n", "step"),
]


class TestRejection:
    @pytest.mark.parametrize("name,source,needle",
                             [(n, s, m) for n, s, m in REJECTED],
                             ids=[n for n, _, _ in REJECTED])
    def test_unsupported_raises_with_position(self, name, source, needle):
        with pytest.raises(UnsupportedPythonError) as info:
            compile_python_source(source, "t")
        message = str(info.value)
        assert "line" in message
        assert info.value.line > 0
        if needle:
            assert needle.lower() in message.lower()

    def test_syntax_error_is_compile_error(self):
        with pytest.raises(PythonCompileError) as info:
            compile_python_source("def main(:\n    pass\n", "t")
        assert "line 1" in str(info.value)

    def test_missing_main_rejected(self):
        with pytest.raises(PythonCompileError, match="main"):
            compile_python_source("def helper():\n    return 0\n", "t")

    def test_arity_mismatch_rejected(self):
        source = "def f(a, b):\n    return a\ndef main():\n    return f(1)\n"
        with pytest.raises(FrontendError, match="argument"):
            compile_python_source(source, "t")

    def test_unknown_name_rejected(self):
        with pytest.raises(FrontendError, match="nope"):
            compile_python_source("def main():\n    return nope\n", "t")

    def test_out_of_range_integer_literal_rejected(self):
        # CPython gives 10 here; an IR constant would wrap 10**10 to
        # 1410065408 and compute 1.
        source = "def main():\n    return 10000000000 // 1000000000\n"
        assert run_cpython(source) == 10
        with pytest.raises(PythonCompileError, match="32 bits") as info:
            compile_python_source(source, "t")
        assert info.value.line == 2

    @pytest.mark.parametrize("literal", ["2147483648", "-2147483649",
                                         "[0, 4294967296]"])
    def test_out_of_range_literals_rejected_everywhere(self, literal):
        for source in (f"def main():\n    x = {literal}\n    return 0\n",
                       f"X = {literal}\ndef main():\n    return 0\n"):
            with pytest.raises(PythonCompileError, match="32 bits"):
                compile_python_source(source, "t")

    def test_int32_boundary_literals_compile(self):
        source = "def main():\n    return -2147483648 + 2147483647\n"
        assert run_ir(source).exit_code == run_cpython(source) == -1

    def test_errors_are_frontend_errors(self):
        # The CLI catches FrontendError; both concrete types must be
        # subclasses or `repro synth prog.py` would traceback on bad input.
        assert issubclass(UnsupportedPythonError, FrontendError)
        assert issubclass(PythonCompileError, FrontendError)
