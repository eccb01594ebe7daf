"""Importable shared test helpers.

Lives in its own module (rather than ``conftest.py``) because both
``tests/`` and ``benchmarks/`` ship a ``conftest.py``; when pytest adds
both directories to ``sys.path`` the module name ``conftest`` is
ambiguous and ``from conftest import ...`` resolves to whichever was
imported first.  A uniquely named module sidesteps the clash.
"""

from __future__ import annotations

import numpy as np

from repro.model import TMModel
from repro.rtl import Netlist, parse_verilog
from repro.rtl.parser import _LEXEME_RE, VerilogSyntaxError, _tokenize


def random_model(n_classes=3, n_clauses=8, n_features=24, density=0.12,
                 seed=0, name="rand"):
    """A random (untrained) include matrix — enough for structural tests."""
    rng = np.random.default_rng(seed)
    include = rng.random((n_classes, n_clauses, 2 * n_features)) < density
    # Avoid contradictory literals so clause outputs are non-trivial.
    pos = include[:, :, :n_features]
    neg = include[:, :, n_features:]
    both = pos & neg
    neg &= ~both
    include = np.concatenate([pos, neg], axis=2)
    return TMModel(include=include, n_features=n_features, name=name)


def scan_lexemes(src):
    """Reference tokenizer: one ``re.match`` per lexeme.

    The parser's one-pass scanner before it became a validating
    ``match`` plus a ``findall``; the tests check that both give the same
    tokens, and the same error offset on a source that does not scan.
    """
    tokens = []
    pos = 0
    while pos < len(src):
        m = _LEXEME_RE.match(src, pos)
        if not m:
            raise VerilogSyntaxError(
                f"cannot tokenize at offset {pos}: {src[pos:pos + 30]!r}"
            )
        pos = m.end()
        if m.group(1):
            tokens.append(m.group(1))
    return tokens


# The token-cursor parser that ``repro.rtl.parser`` replaced with
# statement-level matching, kept as the reference it must agree with:
# the same sources accepted and rejected, and the same netlist built.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# peek() looks at most this far past the current token.
_CURSOR_LOOKAHEAD = 3


class _TokenCursor:
    """Token cursor; ``None`` sentinels past the end stand for end of input."""

    def __init__(self, tokens):
        self.tokens = tokens + [None] * (_CURSOR_LOOKAHEAD + 1)
        self.i = 0

    def peek(self, ahead=0):
        return self.tokens[self.i + ahead]

    def next(self):
        tok = self.tokens[self.i]
        if tok is None:
            raise VerilogSyntaxError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, *expected):
        tok = self.next()
        if tok not in expected:
            raise VerilogSyntaxError(f"expected one of {expected}, got {tok!r}")
        return tok


# Expression AST: ("const", 0/1) | ("ref", name) | ("not", ast)
#               | ("and"/"or"/"xor", ast, ast) | ("mux", sel, a, b)


class _CursorParser:
    def __init__(self, src):
        self.cur = _TokenCursor(_tokenize(src))
        self.module_name = None
        self.input_bits = []      # flat bit names in port order
        self.output_bits = []
        self.wires = {}           # name -> expr AST
        self.regs = {}            # name -> dict(init[, d, en, rst])
        self.out_drivers = {}     # output bit name -> expr AST

    # -- lexical helpers ---------------------------------------------------
    def _signal_name(self):
        name = self.cur.next()
        if name[0] not in _IDENT_START:
            raise VerilogSyntaxError(f"expected identifier, got {name!r}")
        if self.cur.peek() == "[":
            self.cur.next()
            idx = self.cur.next()
            self.cur.expect("]")
            return f"{name}[{idx}]"
        return name

    def _int(self):
        tok = self.cur.next()
        if not tok.isdigit():
            raise VerilogSyntaxError(f"expected a number, got {tok!r}")
        return int(tok)

    def _atom(self):
        tok = self.cur.peek()
        if tok in ("1'b0", "1'b1"):
            self.cur.next()
            return ("const", 1 if tok == "1'b1" else 0)
        return ("ref", self._signal_name())

    def _expr(self):
        if self.cur.peek() == "~":
            self.cur.next()
            return ("not", self._atom())
        a = self._atom()
        tok = self.cur.peek()
        if tok in ("&", "|", "^"):
            self.cur.next()
            op = {"&": "and", "|": "or", "^": "xor"}[tok]
            return (op, a, self._atom())
        if tok == "?":
            self.cur.next()
            t = self._atom()
            self.cur.expect(":")
            f = self._atom()
            return ("mux", a, t, f)
        return a

    # -- pass 1: collect ----------------------------------------------------
    def collect(self):
        self.cur.expect("module")
        self.module_name = self.cur.next()
        self.cur.expect("(")
        while True:
            direction = self.cur.expect("input", "output")
            self.cur.expect("wire")
            width = None
            if self.cur.peek() == "[":
                self.cur.next()
                hi = self._int()
                self.cur.expect(":")
                lo = self._int()
                self.cur.expect("]")
                if lo != 0:
                    raise VerilogSyntaxError("bus ranges must end at 0")
                width = hi + 1
            base = self.cur.next()
            bits = [base] if width is None else [f"{base}[{i}]" for i in range(width)]
            if direction == "input":
                self.input_bits.extend(bits)
            else:
                self.output_bits.extend(bits)
            if self.cur.peek() == ",":
                self.cur.next()
                continue
            self.cur.expect(")")
            break
        self.cur.expect(";")
        self.inputs = set(self.input_bits)
        self.outputs = set(self.output_bits)
        while self.cur.peek() != "endmodule":
            self._item()
        self.cur.expect("endmodule")
        return self

    def _item(self):
        tok = self.cur.peek()
        if tok == "wire":
            self.cur.next()
            self._signal_name()
            self.cur.expect(";")
        elif tok == "reg":
            self.cur.next()
            name = self._signal_name()
            self.cur.expect("=")
            init = self.cur.expect("1'b0", "1'b1")
            self.cur.expect(";")
            self.regs[name] = {"init": 1 if init == "1'b1" else 0}
        elif tok == "assign":
            self.cur.next()
            target = self._signal_name()
            self.cur.expect("=")
            expr = self._expr()
            self.cur.expect(";")
            if target in self.inputs:
                raise VerilogSyntaxError(f"input {target!r} cannot be assigned")
            drivers = self.out_drivers if target in self.outputs else self.wires
            if target in drivers:
                raise VerilogSyntaxError(f"signal {target!r} assigned twice")
            drivers[target] = expr
        elif tok == "always":
            self._always()
        elif tok is None:
            raise VerilogSyntaxError("unexpected end of input")
        else:
            raise VerilogSyntaxError(f"unexpected token {tok!r}")

    def _always(self):
        self.cur.expect("always")
        self.cur.expect("@")
        self.cur.expect("(")
        self.cur.expect("posedge")
        self.cur.expect("clk")
        self.cur.expect(")")
        self.cur.expect("begin")

        rst = ("const", 0)
        en = ("const", 1)

        if self.cur.peek() == "if":
            self.cur.next()
            self.cur.expect("(")
            cond = self._atom()
            self.cur.expect(")")
            self.cur.expect("begin")
            name = self._signal_name()
            self.cur.expect("<=")
            rhs = self.cur.peek()
            # `if (x) begin r <= CONST; end` is ambiguous between a reset
            # arm (followed by `else`) and an enable-only register whose
            # data input folded to a constant.  Disambiguate by lookahead:
            # tokens after `CONST ; end` are `else` only for the reset form.
            is_reset_form = rhs in ("1'b0", "1'b1") and self.cur.peek(3) == "else"
            if is_reset_form:
                # reset arm, then else (optionally with enable-if)
                self.cur.next()
                rst = cond
                self.cur.expect(";")
                self.cur.expect("end")
                self.cur.expect("else")
                self.cur.expect("begin")
                if self.cur.peek() == "if":
                    self.cur.next()
                    self.cur.expect("(")
                    en = self._atom()
                    self.cur.expect(")")
                    self.cur.expect("begin")
                    name2 = self._signal_name()
                    self.cur.expect("<=")
                    d = self._atom()
                    self.cur.expect(";")
                    self.cur.expect("end")
                else:
                    name2 = self._signal_name()
                    self.cur.expect("<=")
                    d = self._atom()
                    self.cur.expect(";")
                if name2 != name:
                    raise VerilogSyntaxError("register name mismatch across arms")
                self.cur.expect("end")
            else:
                # enable-only: if (en) begin r <= d; end  (d may be a const)
                en = cond
                d = self._atom()
                self.cur.expect(";")
                self.cur.expect("end")
        else:
            name = self._signal_name()
            self.cur.expect("<=")
            d = self._atom()
            self.cur.expect(";")
        self.cur.expect("end")

        if name not in self.regs:
            raise VerilogSyntaxError(f"always block drives undeclared reg {name!r}")
        if "d" in self.regs[name]:
            raise VerilogSyntaxError(f"register {name!r} assigned twice")
        self.regs[name].update(d=d, en=en, rst=rst)

    # -- pass 2: lower onto a netlist ----------------------------------------
    def lower(self):
        nl = Netlist(name=self.module_name)
        env = {}
        for bit in self.input_bits:
            if bit == "clk":
                continue  # the clock is implicit in the IR
            env[bit] = nl.add_input(bit)
        # Registers first, with placeholder fanins patched afterwards.
        for name, info in self.regs.items():
            env[name] = nl.dff(nl.const(0), init=info["init"], name=name)

        resolving = set()

        def resolve(ast):
            kind = ast[0]
            if kind == "const":
                return nl.const(ast[1])
            if kind == "ref":
                return resolve_name(ast[1])
            if kind == "not":
                return nl.g_not(resolve(ast[1]))
            if kind == "mux":
                return nl.g_mux(resolve(ast[1]), resolve(ast[2]), resolve(ast[3]))
            a, b = resolve(ast[1]), resolve(ast[2])
            return {"and": nl.g_and, "or": nl.g_or, "xor": nl.g_xor}[kind](a, b)

        def resolve_name(name):
            if name in env:
                return env[name]
            if name not in self.wires:
                raise VerilogSyntaxError(f"use of undefined signal {name!r}")
            if name in resolving:
                raise VerilogSyntaxError(f"combinational cycle through {name!r}")
            resolving.add(name)
            net = resolve(self.wires[name])
            resolving.discard(name)
            env[name] = net
            return net

        for name, info in self.regs.items():
            if "d" not in info:
                raise VerilogSyntaxError(f"register {name!r} never driven")
            if name in self.wires:
                raise VerilogSyntaxError(f"register {name!r} assigned twice")
            nid = env[name]
            node = nl.nodes[nid]
            node.fanins = (
                resolve(info["d"]),
                resolve(info["en"]),
                resolve(info["rst"]),
            )
        for bit in self.output_bits:
            if bit not in self.out_drivers:
                raise VerilogSyntaxError(f"output {bit!r} never driven")
            nl.set_output(bit, resolve(self.out_drivers[bit]))
        return nl


def cursor_parse_verilog(src):
    """Reference parse: tokenize the whole source, then walk the tokens."""
    return _CursorParser(src).collect().lower()


def _parse_outcome(parse, src):
    """What a parser makes of ``src``: the netlist it builds, node for
    node, or the kind of error it raises.  Grammar errors may word their
    message differently; a source that does not scan names its offset,
    so that message is compared whole."""
    try:
        nl = parse(src)
    except VerilogSyntaxError as exc:
        msg = str(exc)
        return ("rejected", msg if msg.startswith("cannot tokenize") else None)
    except ValueError as exc:
        return ("error", str(exc))
    nodes = [(n.kind, n.fanins, n.name, n.init) for n in nl.nodes]
    return ("accepted", nl.name, nodes, nl.inputs, nl.outputs)


def assert_parsers_agree(src):
    """Assert that ``parse_verilog`` and the cursor parser make the same
    of ``src``; return ``"accepted"``, ``"rejected"`` or ``"error"``."""
    got = _parse_outcome(parse_verilog, src)
    assert got == _parse_outcome(cursor_parse_verilog, src)
    return got[0]


# Text the grammar lets stand between any two tokens.
SEPARATORS = (" ", "\n", "\t  ", " // note ; end\n", '(* DONT_TOUCH = "yes" *)',
              "\n  (* a *) // (* b\n", " (*x*)(* y *) ")


def respace(src, rnd):
    """``src`` with a separator drawn by ``rnd`` between every two tokens."""
    tokens = _tokenize(src)
    return tokens[0] + "".join(rnd.choice(SEPARATORS) + tok for tok in tokens[1:])
