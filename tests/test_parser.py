"""Unit tests for the MiniC parser."""

import pytest

from repro.lang import ast
from repro.lang.parser import ParseError, parse


def parse_single_function(body: str) -> ast.FuncDef:
    program = parse("int main() {\n" + body + "\n}")
    assert len(program.functions) == 1
    return program.functions[0]


class TestTopLevel:
    def test_global_scalar(self):
        program = parse("int g;")
        assert program.globals[0].name == "g"
        assert program.globals[0].kind == "int"

    def test_global_with_init(self):
        program = parse("int g = 5;")
        assert isinstance(program.globals[0].init, ast.IntLit)

    def test_global_array(self):
        program = parse("int a[8];")
        decl = program.globals[0]
        assert decl.kind == "array"
        assert decl.array_size == 8

    def test_global_array_with_init_list(self):
        program = parse("int a[3] = {1, 2, -3};")
        assert program.globals[0].init_list == [1, 2, -3]

    def test_mutex_and_cond(self):
        program = parse("mutex m;\ncond c;")
        assert [d.kind for d in program.globals] == ["mutex", "cond"]

    def test_function_with_params(self):
        program = parse("int add(int a, int b) { return a + b; }")
        assert program.functions[0].params == ["a", "b"]

    def test_pointer_param(self):
        program = parse("void f(int *p) { return; }")
        assert program.functions[0].params == ["p"]

    def test_void_function(self):
        program = parse("void f() { }")
        assert program.functions[0].name == "f"

    def test_mixed_globals_and_functions(self):
        program = parse("int g;\nint main() { return g; }\nint h;")
        assert len(program.globals) == 2
        assert len(program.functions) == 1


class TestStatements:
    def test_local_decl_with_init(self):
        func = parse_single_function("int x = 3;")
        decl = func.body[0]
        assert isinstance(decl, ast.VarDecl)
        assert isinstance(decl.init, ast.IntLit)

    def test_pointer_decl(self):
        func = parse_single_function("int *p;")
        assert func.body[0].kind == "ptr"

    def test_local_array(self):
        func = parse_single_function("int buf[16];")
        assert func.body[0].array_size == 16

    def test_assignment(self):
        func = parse_single_function("int x; x = 1;")
        assert isinstance(func.body[1], ast.Assign)

    def test_array_assignment(self):
        func = parse_single_function("int a[4]; a[2] = 9;")
        assign = func.body[1]
        assert isinstance(assign.target, ast.Index)

    def test_deref_assignment(self):
        func = parse_single_function("int *p; *p = 1;")
        assign = func.body[1]
        assert isinstance(assign.target, ast.Unary)
        assert assign.target.op == "*"

    def test_if_else(self):
        func = parse_single_function("if (1) { return 1; } else { return 2; }")
        stmt = func.body[0]
        assert isinstance(stmt, ast.If)
        assert len(stmt.then_body) == 1
        assert len(stmt.else_body) == 1

    def test_else_if_chain(self):
        func = parse_single_function(
            "if (1) { return 1; } else if (2) { return 2; } else { return 3; }"
        )
        stmt = func.body[0]
        nested = stmt.else_body[0]
        assert isinstance(nested, ast.If)
        assert len(nested.else_body) == 1

    def test_if_without_braces(self):
        func = parse_single_function("if (1) return 1;")
        assert isinstance(func.body[0].then_body[0], ast.Return)

    def test_while(self):
        func = parse_single_function("while (1) { break; }")
        stmt = func.body[0]
        assert isinstance(stmt, ast.While)
        assert isinstance(stmt.body[0], ast.Break)

    def test_for_full(self):
        func = parse_single_function("int i; for (i = 0; i < 10; i = i + 1) { continue; }")
        stmt = func.body[1]
        assert isinstance(stmt, ast.For)
        assert stmt.init is not None
        assert stmt.cond is not None
        assert stmt.step is not None

    def test_for_with_decl_init(self):
        func = parse_single_function("for (int i = 0; i < 3; i = i + 1) { }")
        stmt = func.body[0]
        assert isinstance(stmt.init, ast.VarDecl)

    def test_for_empty_clauses(self):
        func = parse_single_function("for (;;) { break; }")
        stmt = func.body[0]
        assert stmt.init is None
        assert stmt.cond is None
        assert stmt.step is None

    def test_return_void(self):
        func = parse_single_function("return;")
        assert func.body[0].value is None


class TestExpressions:
    def expr(self, text):
        func = parse_single_function(f"int x; x = {text};")
        return func.body[1].value

    def test_precedence_mul_over_add(self):
        e = self.expr("1 + 2 * 3")
        assert e.op == "+"
        assert e.rhs.op == "*"

    def test_precedence_cmp_over_and(self):
        e = self.expr("a < b && c > d")
        assert e.op == "&&"
        assert e.lhs.op == "<"

    def test_parentheses(self):
        e = self.expr("(1 + 2) * 3")
        assert e.op == "*"
        assert e.lhs.op == "+"

    def test_left_associativity(self):
        e = self.expr("10 - 3 - 2")
        assert e.op == "-"
        assert e.lhs.op == "-"

    def test_unary_chain(self):
        e = self.expr("!!a")
        assert e.op == "!"
        assert e.operand.op == "!"

    def test_address_of(self):
        e = self.expr("&g")
        assert e.op == "&"

    def test_deref(self):
        e = self.expr("*p + 1")
        assert e.op == "+"
        assert e.lhs.op == "*"

    def test_call_no_args(self):
        e = self.expr("getchar()")
        assert isinstance(e, ast.CallExpr)
        assert e.args == []

    def test_call_with_args(self):
        e = self.expr("f(1, a + 2)")
        assert len(e.args) == 2

    def test_nested_index(self):
        e = self.expr("a[b[0]]")
        assert isinstance(e, ast.Index)
        assert isinstance(e.index, ast.Index)

    def test_string_argument(self):
        e = self.expr('getenv("mode")')
        assert isinstance(e.args[0], ast.StrLit)
        assert e.args[0].value == "mode"

    def test_char_literal_is_int(self):
        e = self.expr("'m'")
        assert isinstance(e, ast.IntLit)
        assert e.value == ord("m")

    def test_shift_expression(self):
        e = self.expr("1 << 4")
        assert e.op == "<<"


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("int main() { int x = 1 }")

    def test_unclosed_brace(self):
        with pytest.raises(ParseError):
            parse("int main() { return 0;")

    def test_garbage_toplevel(self):
        with pytest.raises(ParseError):
            parse("42;")

    def test_break_is_statement_level(self):
        with pytest.raises(ParseError):
            parse("int main() { int x = break; }")

    def test_error_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse("int main() {\nint x = ;\n}")
        assert err.value.line == 2

    def test_error_quotes_char_literal_as_written(self):
        with pytest.raises(ParseError) as err:
            parse("int main() { int x = 'a' 'b'; }")
        assert str(err.value) == "line 1:26: expected ';', got \"'b'\""


class TestColumns:
    def test_parse_error_carries_column(self):
        import pytest

        from repro.lang.parser import ParseError, parse

        with pytest.raises(ParseError) as info:
            parse("int main() { return x }")
        assert info.value.line == 1
        assert info.value.col == 23

    def test_nodes_carry_columns(self):
        from repro.lang.parser import parse

        program = parse("int main() {\n    return 7;\n}")
        ret = program.functions[0].body[0]
        assert (ret.line, ret.col) == (2, 5)
