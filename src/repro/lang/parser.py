"""Recursive-descent parser for MiniC."""

from __future__ import annotations

from typing import Optional

from . import ast
from .lexer import Token, tokenize


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int = 0) -> None:
        where = f"line {line}:{col}" if col else f"line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.col = col


# Binary operator precedence levels, lowest first.
_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]

# Binary operator -> its level in _PRECEDENCE.
_LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}

_TYPE_KEYWORDS = frozenset({"int", "void", "char"})


def parse(source: str) -> ast.Program:
    """Parse MiniC source into a :class:`~repro.lang.ast.Program`."""
    return _Parser(tokenize(source), source).parse_program()


class _Parser:
    def __init__(self, tokens: list[Token], source: str) -> None:
        self._tokens = tokens
        self._pos = 0
        self._source = source

    # -- token plumbing ----------------------------------------------------

    @property
    def _tok(self) -> Token:
        return self._tokens[self._pos]

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise ParseError(f"expected {want!r}, got {tok.text!r}", tok.line, tok.col)
        return self._advance()

    def _match(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self._tokens[self._pos]
        if tok.kind == kind and (text is None or tok.text == text):
            return self._advance()
        return None

    # -- grammar -------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        globals_: list[ast.VarDecl] = []
        functions: list[ast.FuncDef] = []
        while (tok := self._tok).kind != "eof":
            if tok.kind != "kw":
                raise ParseError(f"expected declaration, got {tok.text!r}", tok.line, tok.col)
            if tok.text in ("mutex", "cond"):
                globals_.append(self._parse_sync_decl())
                continue
            if tok.text not in _TYPE_KEYWORDS:
                raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
            # Distinguish "int f(...) {" from "int x;" by looking past the name.
            offset = 1
            while self._peek(offset).text == "*":
                offset += 1
            if self._peek(offset).kind != "ident":
                raise ParseError("expected name after type", tok.line, tok.col)
            after = self._peek(offset + 1)
            if after.text == "(":
                functions.append(self._parse_function())
            else:
                globals_.append(self._parse_var_decl())
        return ast.Program(globals_, functions, source=self._source, line=1, col=1)

    def _parse_sync_decl(self) -> ast.VarDecl:
        kw = self._advance()  # mutex | cond
        name = self._expect("ident")
        self._expect("op", ";")
        return ast.VarDecl(name.text, kw.text, line=kw.line, col=kw.col)

    def _parse_function(self) -> ast.FuncDef:
        start = self._advance()  # return type keyword
        while self._match("op", "*"):
            pass
        name = self._expect("ident")
        self._expect("op", "(")
        params: list[str] = []
        if not self._match("op", ")"):
            while True:
                if self._tok.kind == "kw" and self._tok.text in _TYPE_KEYWORDS:
                    self._advance()
                    while self._match("op", "*"):
                        pass
                params.append(self._expect("ident").text)
                if self._match("op", ")"):
                    break
                self._expect("op", ",")
        self._expect("op", "{")
        body = self._parse_block_body()
        return ast.FuncDef(name.text, params, body, line=start.line, col=start.col)

    def _parse_block_body(self) -> list[ast.Stmt]:
        stmts: list[ast.Stmt] = []
        while not self._match("op", "}"):
            if self._tok.kind == "eof":
                raise ParseError("unexpected end of file in block", self._tok.line, self._tok.col)
            stmts.append(self._parse_statement())
        return stmts

    def _parse_statement(self) -> ast.Stmt:
        tok = self._tok
        if tok.kind == "kw":
            if tok.text in _TYPE_KEYWORDS:
                return self._parse_var_decl()
            if tok.text == "if":
                return self._parse_if()
            if tok.text == "while":
                return self._parse_while()
            if tok.text == "for":
                return self._parse_for()
            if tok.text == "return":
                self._advance()
                value = None
                if not (self._tok.kind == "op" and self._tok.text == ";"):
                    value = self._parse_expression()
                self._expect("op", ";")
                return ast.Return(value, line=tok.line, col=tok.col)
            if tok.text == "break":
                self._advance()
                self._expect("op", ";")
                return ast.Break(line=tok.line, col=tok.col)
            if tok.text == "continue":
                self._advance()
                self._expect("op", ";")
                return ast.Continue(line=tok.line, col=tok.col)
            raise ParseError(f"unexpected keyword {tok.text!r}", tok.line, tok.col)
        if tok.text == "{":
            # A bare block is allowed and flattened by the compiler.
            self._advance()
            body = self._parse_block_body()
            return ast.If(ast.IntLit(1, line=tok.line, col=tok.col), body, [], line=tok.line, col=tok.col)
        return self._parse_assign_or_expr()

    def _parse_var_decl(self) -> ast.VarDecl:
        start = self._expect("kw")  # int | void | char
        kind = "int"
        while self._match("op", "*"):
            kind = "ptr"
        name = self._expect("ident")
        if self._match("op", "["):
            size = self._expect("int")
            self._expect("op", "]")
            init_list: Optional[list[int]] = None
            if self._match("op", "="):
                self._expect("op", "{")
                init_list = []
                while not self._match("op", "}"):
                    item = self._parse_const_item()
                    init_list.append(item)
                    if not self._match("op", ","):
                        self._expect("op", "}")
                        break
            self._expect("op", ";")
            return ast.VarDecl(
                name.text, "array", array_size=size.value,
                init_list=init_list, line=start.line, col=start.col,
            )
        init = None
        if self._match("op", "="):
            init = self._parse_expression()
        self._expect("op", ";")
        return ast.VarDecl(name.text, kind, init=init, line=start.line, col=start.col)

    def _parse_const_item(self) -> int:
        negative = bool(self._match("op", "-"))
        tok = self._tok
        if tok.kind == "int" or tok.kind == "char":
            self._advance()
            return -tok.value if negative else tok.value
        raise ParseError("expected constant in initializer list", tok.line, tok.col)

    def _parse_if(self) -> ast.If:
        start = self._expect("kw", "if")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        then_body = self._parse_body_or_single()
        else_body: list[ast.Stmt] = []
        if self._match("kw", "else"):
            if self._tok.kind == "kw" and self._tok.text == "if":
                else_body = [self._parse_if()]
            else:
                else_body = self._parse_body_or_single()
        return ast.If(cond, then_body, else_body, line=start.line, col=start.col)

    def _parse_while(self) -> ast.While:
        start = self._expect("kw", "while")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        body = self._parse_body_or_single()
        return ast.While(cond, body, line=start.line, col=start.col)

    def _parse_for(self) -> ast.For:
        start = self._expect("kw", "for")
        self._expect("op", "(")
        init: Optional[ast.Stmt] = None
        if not self._match("op", ";"):
            if self._tok.kind == "kw" and self._tok.text in _TYPE_KEYWORDS:
                init = self._parse_var_decl()
            else:
                init = self._parse_assign_or_expr()
        cond: Optional[ast.Expr] = None
        if not (self._tok.kind == "op" and self._tok.text == ";"):
            cond = self._parse_expression()
        self._expect("op", ";")
        step: Optional[ast.Stmt] = None
        if not (self._tok.kind == "op" and self._tok.text == ")"):
            step = self._parse_assign_or_expr(consume_semicolon=False)
        self._expect("op", ")")
        body = self._parse_body_or_single()
        return ast.For(init, cond, step, body, line=start.line, col=start.col)

    def _parse_body_or_single(self) -> list[ast.Stmt]:
        if self._match("op", "{"):
            return self._parse_block_body()
        return [self._parse_statement()]

    def _parse_assign_or_expr(self, consume_semicolon: bool = True) -> ast.Stmt:
        line = self._tok.line
        col = self._tok.col
        expr = self._parse_expression()
        if self._match("op", "="):
            value = self._parse_expression()
            if consume_semicolon:
                self._expect("op", ";")
            return ast.Assign(expr, value, line=line, col=col)
        if consume_semicolon:
            self._expect("op", ";")
        return ast.ExprStmt(expr, line=line, col=col)

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, min_level: int) -> ast.Expr:
        # Precedence climbing: operators of one level associate to the left.
        tokens = self._tokens
        lhs = self._parse_unary()
        while True:
            tok = tokens[self._pos]
            level = _LEVEL.get(tok.text) if tok.kind == "op" else None
            if level is None or level < min_level:
                return lhs
            self._pos += 1
            rhs = self._parse_binary(level + 1)
            lhs = ast.Binary(tok.text, lhs, rhs, line=tok.line, col=tok.col)

    def _parse_unary(self) -> ast.Expr:
        tok = self._tokens[self._pos]
        if tok.kind == "op" and tok.text in ("-", "!", "~", "*", "&"):
            self._pos += 1
            operand = self._parse_unary()
            return ast.Unary(tok.text, operand, line=tok.line, col=tok.col)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._tokens[self._pos]
            if tok.kind == "op" and tok.text == "(":
                self._pos += 1
                args: list[ast.Expr] = []
                if not self._match("op", ")"):
                    while True:
                        args.append(self._parse_expression())
                        if self._match("op", ")"):
                            break
                        self._expect("op", ",")
                expr = ast.CallExpr(expr, args, line=tok.line, col=tok.col)
            elif tok.kind == "op" and tok.text == "[":
                self._pos += 1
                index = self._parse_expression()
                self._expect("op", "]")
                expr = ast.Index(expr, index, line=tok.line, col=tok.col)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        tok = self._tokens[self._pos]
        if tok.kind in ("int", "char"):
            self._pos += 1
            return ast.IntLit(tok.value, line=tok.line, col=tok.col)
        if tok.kind == "string":
            self._pos += 1
            return ast.StrLit(tok.text, line=tok.line, col=tok.col)
        if tok.kind == "ident":
            self._pos += 1
            return ast.Ident(tok.text, line=tok.line, col=tok.col)
        if tok.kind == "op" and tok.text == "(":
            self._pos += 1
            expr = self._parse_expression()
            self._expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)
