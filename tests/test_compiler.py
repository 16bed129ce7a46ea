"""Unit tests for the MiniC -> IR compiler."""

import pytest

from repro import ir
from repro.lang import CompileError, compile_source
from repro.lang.compiler import compile_source as compile_minic

LISTING1 = """
int idx = 0;
int mode = 0;
mutex M1;
mutex M2;

void critical_section(int unused) {
    lock(M1);
    lock(M2);
    if (mode == 1 && idx == 1) {
        unlock(M1);
        lock(M1);
    }
    unlock(M2);
    unlock(M1);
}

int main() {
    if (getchar() == 'm') {
        idx = idx + 1;
    }
    char *env;
    env = getenv("mode");
    if (env[0] == 'Y') {
        mode = 1;
    } else {
        mode = 2;
    }
    int t1 = spawn(critical_section, 0);
    int t2 = spawn(critical_section, 0);
    join(t1);
    join(t2);
    return 0;
}
"""


class TestCompileBasics:
    def test_empty_main(self):
        module = compile_source("int main() { return 0; }")
        assert "main" in module.functions

    def test_module_is_verified(self):
        module = compile_source("int main() { return 0; }")
        ir.verify_module(module)  # does not raise

    def test_missing_main_rejected(self):
        with pytest.raises(ir.VerificationError):
            compile_source("int f() { return 0; }")

    def test_globals_compiled(self):
        module = compile_source("int g = 7;\nint main() { return g; }")
        assert module.globals["g"].init == [7]

    def test_mutex_global_flagged(self):
        module = compile_source("mutex m;\nint main() { lock(m); unlock(m); return 0; }")
        assert module.globals["m"].is_mutex

    def test_string_interning_deduplicates(self):
        module = compile_source(
            'int main() { getenv("x"); getenv("x"); getenv("y"); return 0; }'
        )
        strings = [n for n in module.globals if n.startswith(".str")]
        assert len(strings) == 2

    def test_locals_become_allocas(self):
        module = compile_source("int main() { int x = 1; return x; }")
        entry = module.functions["main"].blocks["entry"]
        allocs = [i for i in entry.instrs if isinstance(i, ir.Alloc)]
        assert len(allocs) == 1
        assert allocs[0].name == "x"

    def test_params_spilled_to_allocas(self):
        module = compile_source("int f(int a) { return a; }\nint main() { return f(1); }")
        entry = module.functions["f"].blocks["entry"]
        assert any(isinstance(i, ir.Store) for i in entry.instrs)

    def test_source_lines_preserved(self):
        module = compile_source("int main() {\nint x = 1;\nreturn x;\n}")
        entry = module.functions["main"].blocks["entry"]
        lines = {i.line for i in entry.instrs}
        assert 2 in lines

    def test_redeclaration_rejected(self):
        with pytest.raises(CompileError):
            compile_source("int main() { int x; int x; return 0; }")

    def test_undefined_variable_rejected(self):
        with pytest.raises(CompileError):
            compile_source("int main() { return nope; }")

    def test_wrong_arity_rejected(self):
        with pytest.raises(CompileError):
            compile_source("int f(int a) { return a; }\nint main() { return f(); }")

    def test_builtin_arity_checked(self):
        with pytest.raises(CompileError):
            compile_source("int main() { getchar(1); return 0; }")


class TestControlFlow:
    def test_if_creates_branches(self):
        module = compile_source("int main() { if (1) { return 1; } return 0; }")
        func = module.functions["main"]
        terminators = [b.terminator for b in func.blocks.values()]
        assert any(isinstance(t, ir.CondBr) for t in terminators)

    def test_while_loop_shape(self):
        module = compile_source(
            "int main() { int i = 0; while (i < 3) { i = i + 1; } return i; }"
        )
        labels = set(module.functions["main"].blocks)
        assert any(label.startswith("while.head") for label in labels)
        assert any(label.startswith("while.body") for label in labels)

    def test_short_circuit_and_compiles_to_branches(self):
        module = compile_source(
            "int main() { int a = 1; int b = 2; if (a == 1 && b == 2) { return 1; } return 0; }"
        )
        func = module.functions["main"]
        condbrs = [
            b.terminator for b in func.blocks.values()
            if isinstance(b.terminator, ir.CondBr)
        ]
        assert len(condbrs) == 2  # one per conjunct

    def test_short_circuit_value_position(self):
        module = compile_source("int main() { int a = 1; int x = a == 1 || a == 2; return x; }")
        ir.verify_module(module)

    def test_break_targets_loop_end(self):
        module = compile_source(
            "int main() { while (1) { break; } return 0; }"
        )
        func = module.functions["main"]
        ends = [label for label in func.blocks if label.startswith("while.end")]
        assert len(ends) == 1

    def test_dead_code_after_return_is_parked(self):
        module = compile_source("int main() { return 1; return 2; }")
        ir.verify_module(module)


class TestSyncAndMemory:
    def test_spawn_join(self):
        module = compile_source(
            "void w(int a) { return; }\n"
            "int main() { int t = spawn(w, 1); join(t); return 0; }"
        )
        instrs = [i for _, i in module.functions["main"].iter_instructions()]
        assert any(isinstance(i, ir.ThreadCreate) for i in instrs)
        assert any(isinstance(i, ir.ThreadJoin) for i in instrs)

    def test_lock_unlock(self):
        module = compile_source("mutex m;\nint main() { lock(m); unlock(m); return 0; }")
        instrs = [i for _, i in module.functions["main"].iter_instructions()]
        kinds = [type(i) for i in instrs]
        assert ir.MutexLock in kinds
        assert ir.MutexUnlock in kinds

    def test_condvar_ops(self):
        module = compile_source(
            "mutex m;\ncond c;\n"
            "int main() { lock(m); wait(c, m); signal(c); broadcast(c); unlock(m); return 0; }"
        )
        instrs = [i for _, i in module.functions["main"].iter_instructions()]
        signals = [i for i in instrs if isinstance(i, ir.CondSignal)]
        assert [s.broadcast for s in signals] == [False, True]

    def test_malloc_free(self):
        module = compile_source("int main() { int *p = malloc(4); free(p); return 0; }")
        instrs = [i for _, i in module.functions["main"].iter_instructions()]
        heaps = [i for i in instrs if isinstance(i, ir.Alloc) and i.heap]
        assert len(heaps) == 1
        assert any(isinstance(i, ir.Free) for i in instrs)

    def test_array_index_load_store(self):
        module = compile_source("int a[4];\nint main() { a[1] = 5; return a[1]; }")
        instrs = [i for _, i in module.functions["main"].iter_instructions()]
        assert any(isinstance(i, ir.Gep) for i in instrs)

    def test_assert_statement(self):
        module = compile_source("int main() { int x = 1; assert(x == 1); return 0; }")
        instrs = [i for _, i in module.functions["main"].iter_instructions()]
        asserts = [i for i in instrs if isinstance(i, ir.Assert)]
        assert len(asserts) == 1
        assert "assert" in asserts[0].message

    def test_function_pointer(self):
        module = compile_source(
            "int f(int x) { return x + 1; }\n"
            "int main() { int *p = &f; return p(1); }"
        )
        instrs = [i for _, i in module.functions["main"].iter_instructions()]
        calls = [i for i in instrs if isinstance(i, ir.Call)]
        assert any(isinstance(c.callee, ir.Reg) for c in calls)

    def test_mutex_passed_by_address(self):
        module = compile_source(
            "mutex m;\n"
            "void f(int *mu) { lock(mu); unlock(mu); }\n"
            "int main() { f(m); return 0; }"
        )
        ir.verify_module(module)


class TestListing1:
    """The paper's running example (Listing 1) must compile cleanly."""

    def test_compiles_and_verifies(self):
        module = compile_minic(LISTING1, "listing1")
        ir.verify_module(module)

    def test_has_sync_instructions(self):
        module = compile_minic(LISTING1)
        instrs = [
            i for _, i in module.functions["critical_section"].iter_instructions()
        ]
        locks = [i for i in instrs if isinstance(i, ir.MutexLock)]
        unlocks = [i for i in instrs if isinstance(i, ir.MutexUnlock)]
        assert len(locks) == 3
        assert len(unlocks) == 3

    def test_env_intrinsics_present(self):
        module = compile_minic(LISTING1)
        instrs = [i for _, i in module.functions["main"].iter_instructions()]
        names = {i.name for i in instrs if isinstance(i, ir.Intrinsic)}
        assert {"getchar", "getenv"} <= names


class TestColumns:
    def test_compile_error_carries_column(self):
        import pytest

        from repro.lang import CompileError, compile_source

        with pytest.raises(CompileError) as info:
            compile_source("int main() { return nope; }")
        assert info.value.line == 1
        assert info.value.col == 21
        assert "line 1:21" in str(info.value)


class TestLiteralRange:
    @pytest.mark.parametrize("source, where, value", [
        ("int main() { return 99999999999; }", (1, 21), 99999999999),
        ("int main() {\n  return 2147483648;\n}", (2, 10), 2147483648),
        ("int main() { return -2147483649; }", (1, 22), -2147483649),
        ("int main() { return 1 - 2147483648; }", (1, 25), 2147483648),
        ("int g = 2147483648;\nint main() { return g; }", (1, 9), 2147483648),
        ("int g = -4294967296;\nint main() { return g; }", (1, 10), -4294967296),
        ("int a[2] = {1, 2147483648};\nint main() { return a[0]; }", (1, 1),
         2147483648),
        ("int main() {\n  int a[2] = {-2147483649, 0};\n  return a[0];\n}", (2, 3),
         -2147483649),
        ("int a[4294967297];\nint main() { return 0; }", (1, 1), 4294967297),
        ("int main() {\n  int a[4294967297];\n  return 0;\n}", (2, 3), 4294967297),
    ])
    def test_out_of_range_literal_is_rejected(self, source, where, value):
        with pytest.raises(CompileError) as info:
            compile_source(source)
        assert (info.value.line, info.value.col) == where
        assert f"integer literal {value} does not fit in 32 bits" in str(info.value)

    def test_int_min_spelled_as_negated_literal(self):
        module = compile_source(
            "int g = -2147483648;\n"
            "int a[1] = {-2147483648};\n"
            "int main() { return -2147483648 + 2147483647; }")
        assert module.globals["g"].init == [-2**31]
        assert module.globals["a"].init == [-2**31]
        ret = [i for i in module.functions["main"].blocks["entry"].instrs
               if isinstance(i, ir.BinOp)][0]
        assert ret.lhs == ir.Const(-2**31)
        assert ret.rhs == ir.Const(2**31 - 1)

    def test_non_ascii_digit_is_a_lex_error(self):
        from repro.lang import LexError

        with pytest.raises(LexError) as info:
            compile_source("int main() { return ²; }")
        assert (info.value.line, info.value.col) == (1, 21)
