"""Generated oracles for the MiniC front end, at fixed seeds.

* Random expressions over every binary and unary operator, identifiers,
  literals and calls parse to the tree they were printed from, whether
  printed bare (parentheses only where precedence needs them) or fully
  parenthesized, and both forms compile to the same IR.
* A ``$`` inserted anywhere outside strings, char literals and comments of
  a registered MiniC workload is reported at exactly its ``line:col``.
* Every registered MiniC workload, the prelude and both wide-static BPF
  programs lex to a pinned digest of ``(kind, text, line, col, value)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.bpf import BPFParams, generate
from repro.ir.printer import format_module
from repro.lang import ast, compile_source
from repro.lang.lexer import LexError, tokenize
from repro.lang.parser import _PRECEDENCE, parse
from repro.lang.prelude import PRELUDE_FUNCTIONS
from repro.workloads import ALL, get

# -- (a) precedence: bare vs fully parenthesized ----------------------------

LEVEL = {op: level for level, ops in enumerate(_PRECEDENCE) for op in ops}
UNARY = ["-", "!", "~", "*", "&"]
NAMES = ["a", "b", "c"]
LITERALS = [0, 1, 2, 7, 42, 255, 2147483647]


def _leaf(rng: random.Random) -> ast.Expr:
    if rng.random() < 0.5:
        return ast.Ident(rng.choice(NAMES))
    return ast.IntLit(rng.choice(LITERALS))


def _expr(rng: random.Random, depth: int) -> ast.Expr:
    if depth == 0 or rng.random() < 0.15:
        return _leaf(rng)
    roll = rng.random()
    if roll < 0.65:
        return ast.Binary(rng.choice(list(LEVEL)), _expr(rng, depth - 1),
                          _expr(rng, depth - 1))
    if roll < 0.85:
        op = rng.choice(UNARY)
        # Only a variable's address can be taken.
        operand = (ast.Ident(rng.choice(NAMES)) if op == "&"
                   else _expr(rng, depth - 1))
        return ast.Unary(op, operand)
    return ast.CallExpr(ast.Ident("f"),
                        [_expr(rng, depth - 1), _expr(rng, depth - 1)])


def _render(expr: ast.Expr, full: bool) -> str:
    if isinstance(expr, ast.Ident):
        return expr.name
    if isinstance(expr, ast.IntLit):
        return str(expr.value)
    if isinstance(expr, ast.CallExpr):
        args = ", ".join(_render(arg, full) for arg in expr.args)
        return f"{_render(expr.callee, full)}({args})"
    if isinstance(expr, ast.Unary):
        inner = _render(expr.operand, full)
        if not full and isinstance(expr.operand, ast.Binary):
            inner = f"({inner})"
        return f"{expr.op} {inner}"
    assert isinstance(expr, ast.Binary)
    lhs, rhs = _render(expr.lhs, full), _render(expr.rhs, full)
    if full:
        return f"({lhs} {expr.op} {rhs})"
    level = LEVEL[expr.op]
    if isinstance(expr.lhs, ast.Binary) and LEVEL[expr.lhs.op] < level:
        lhs = f"({lhs})"
    if isinstance(expr.rhs, ast.Binary) and LEVEL[expr.rhs.op] <= level:
        rhs = f"({rhs})"
    return f"{lhs} {expr.op} {rhs}"


def _shape(node):
    """A node's fields without source positions, recursively."""
    if isinstance(node, list):
        return [_shape(item) for item in node]
    if not isinstance(node, ast.Node):
        return node
    return (type(node).__name__,) + tuple(
        _shape(getattr(node, f.name)) for f in dataclasses.fields(node)
        if f.name not in ("line", "col"))


def _program(text: str) -> str:
    return ("int f(int x, int y) { return x - y; }\n"
            "int main() {\n    int a = 3;\n    int b = 5;\n    int c = 7;\n"
            f"    int r = {text};\n    return r;\n}}\n")


def _generated(count: int, seed: int) -> list[ast.Expr]:
    rng = random.Random(seed)
    return [_expr(rng, 4) for _ in range(count)]


def test_generator_covers_every_operator():
    binary, unary = set(), set()

    def walk(expr):
        if isinstance(expr, ast.Binary):
            binary.add(expr.op)
            walk(expr.lhs)
            walk(expr.rhs)
        elif isinstance(expr, ast.Unary):
            unary.add(expr.op)
            walk(expr.operand)
        elif isinstance(expr, ast.CallExpr):
            for arg in expr.args:
                walk(arg)

    for expr in _generated(300, seed=0):
        walk(expr)
    assert binary == set(LEVEL) and len(binary) == 18
    assert unary == set(UNARY)


@pytest.mark.parametrize("seed", [0, 1])
def test_bare_and_parenthesized_forms_agree(seed):
    for expr in _generated(150, seed):
        bare, full = _render(expr, False), _render(expr, True)
        trees = [parse(_program(text)).functions[1].body[3].init
                 for text in (bare, full)]
        assert _shape(trees[0]) == _shape(expr), bare
        assert _shape(trees[1]) == _shape(expr), full
        assert (format_module(compile_source(_program(bare)))
                == format_module(compile_source(_program(full)))), bare


# -- (b) stray characters are reported where they are -----------------------

MINIC_WORKLOADS = sorted(name for name in ALL if get(name).lang == "esd")


def _code_positions(source: str) -> list[int]:
    """Indices outside strings, char literals and comments (plus the end)."""
    positions = []
    i, n = 0, len(source)
    while i < n:
        if source.startswith("//", i):
            positions.append(i)
            end = source.find("\n", i)
            i = n if end < 0 else end + 1  # a `$` before the newline is commented out
        elif source.startswith("/*", i):
            positions.append(i)
            i = source.index("*/", i + 2) + 2
        elif source[i] in "'\"":
            positions.append(i)
            j = i + 1
            while source[j] != source[i]:
                j += 2 if source[j] == "\\" else 1
            i = j + 1
        else:
            positions.append(i)
            i += 1
    return positions + [n]


@pytest.mark.parametrize("name", MINIC_WORKLOADS)
def test_stray_character_reported_at_its_position(name):
    source = get(name).source
    rng = random.Random(name)
    for pos in rng.sample(_code_positions(source), 25):
        line = source.count("\n", 0, pos) + 1
        col = pos - (source.rfind("\n", 0, pos) + 1) + 1
        with pytest.raises(LexError) as info:
            tokenize(source[:pos] + "$" + source[pos:])
        assert (info.value.line, info.value.col) == (line, col)
        assert str(info.value) == f"line {line}:{col}: unexpected character '$'"


# -- (c) token streams are pinned -------------------------------------------

# sha256 of json.dumps([[kind, text, line, col, value], ...]) per program.
TOKEN_DIGESTS = {
    "ghttpd": "a432bdbfd329f856e40451b3960c4e6508da4b2b89aaca76dcb9247f2601335a",
    "ghttpd-hard": "f7123cc0538fdacd2455ebd52bc86b92b49e8a1645f5216da7cc58d3433ebdf1",
    "hawknl": "e9b19d708c7d3c4bf4f3b76a7bb3abb699c347ebe48cecba7a3407201c54f81c",
    "listing1": "aa49183f3dd26aae1c7a4136ab24d36a9e7a68e772b86c6d3fd3fd1c26593deb",
    "ls1": "28b885e1f32ad3c7a44184fe7ae492dafbf3f70ef923c9eec026f9fae38810bd",
    "ls2": "7169e1cf7371c3c0cddb863e0578c3694ae5d2c88a33be8ffcb305eb5cd7b138",
    "ls3": "9c5042c65d663cae8ba03ae96199281193e771c4c796e66793cff5e8af121596",
    "ls4": "96dd90382165faba30b8891905f9be4836b347f17c28b6f52296db9a7465efbf",
    "minidb": "fe206556981450ad6bb072ae58f829f45579c0609ae1860be357e5eb5b8f952f",
    "mkdir": "94705470d759db45c3896ec8f00f2b0b0d2b81482524bdf01fbca0cc46e7138d",
    "mkfifo": "322a7af65c3f28f251c87c32eeaa53e71190357db4bf7015ff1e2adf2b876eaa",
    "mknod": "d821293987ac381c3abaec544663f58475094ebd6d954228fe79e5b9c1536124",
    "paste": "5bfe143241451d4b3ba3a8b1bd110552ca198ad0d1163c98d9bc11827b53d19e",
    "tac": "a724205aa5fa9a4b8eda702828f7bf8ff35e2c279359d3171d5f39c2a080cbe9",
    "bpf-2048-12": "d439c3fcce0907eb82f6c63a02938104cd389760beb2b50a038ac76df60b25d3",
    "bpf-2048-15": "91dc24fad0eecfc05873c6c4066a7b833acbe955e232241222be46fe1f061426",
    "prelude": "dfd87142045237084f0775597279c882157993d31c3a30806955d27afa2dce8b",
}


def _source(name: str) -> str:
    if name == "prelude":
        return "".join(PRELUDE_FUNCTIONS.values())
    if name.startswith("bpf-2048-"):
        # The two programs of the wide-static benchmark workload.
        params = BPFParams(num_inputs=128, num_branches=2048,
                           num_input_branches=2048, num_threads=2,
                           num_locks=2, seed=int(name.rsplit("-", 1)[1]))
        return generate(params).workload.source
    return get(name).source


def test_every_minic_workload_is_pinned():
    assert set(MINIC_WORKLOADS) <= set(TOKEN_DIGESTS)


@pytest.mark.parametrize("name", sorted(TOKEN_DIGESTS))
def test_token_stream_matches_pin(name):
    rows = [[t.kind, t.text, t.line, t.col, t.value]
            for t in tokenize(_source(name))]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == TOKEN_DIGESTS[name]
