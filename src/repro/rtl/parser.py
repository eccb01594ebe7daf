"""Parser for the Verilog subset emitted by :mod:`repro.rtl.verilog`.

Part of the automated design-verification flow (the dark-pink path of
Fig. 6b): after generating Verilog we parse it back into a fresh
:class:`~repro.rtl.netlist.Netlist` and prove it equivalent to the design
we emitted, so a codegen bug cannot silently ship.

Grammar (everything the emitter produces):

.. code-block:: text

   module NAME ( port {, port} ) ;
   port      := ("input"|"output") "wire" [range] IDENT
   range     := "[" INT ":" "0" "]"
   item      := wire_decl | reg_decl | assign | always
   wire_decl := [attr] "wire" IDENT ";"
   reg_decl  := [attr] "reg" IDENT "=" BIT ";"
   assign    := "assign" lvalue "=" expr ";"
   expr      := atom (("&"|"|"|"^") atom)? | "~" atom | atom "?" atom ":" atom
   always    := "always" "@(posedge clk)" "begin" stmt* "end"

Attributes (``(* DONT_TOUCH = "yes" *)``) and comments are skipped.

Parsing is two-pass: statements are first collected as small expression
ASTs (wires may reference registers defined later and vice versa), then
lowered onto a netlist with registers created up front and their fanins
patched once every expression has resolved.
"""

from __future__ import annotations

import re

from .netlist import Netlist

__all__ = ["parse_verilog", "VerilogSyntaxError"]


class VerilogSyntaxError(ValueError):
    """Raised when the source deviates from the emitted subset."""


_COMMENT = r"//[^\n]*|\(\*.*?\*\)"
_TOKEN = r"1'b[01]|[A-Za-z_][A-Za-z_0-9$]*|\d+|<=|[()\[\]{},;:=&|^~?@.]"
# One lexeme (whitespace, comment or token), with only a token captured:
# whitespace and comments match with group 1 empty.
_LEXEME_RE = re.compile(rf"\s+|{_COMMENT}|({_TOKEN})", re.DOTALL)
# The source language: a run of lexemes, each one exactly what
# ``_LEXEME_RE.match`` takes at its offset (the atomic group forbids
# backtracking into it, so a comment cannot stretch past its first
# ``*)`` to hide text the scanner would reject).
_SOURCE_RE = re.compile(rf"(?:(?>\s+|{_COMMENT}|{_TOKEN}))*+", re.DOTALL)
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# peek() looks at most this far past the current token.
_LOOKAHEAD = 3


def _tokenize(src):
    """The source's tokens, in two C-level passes: validate, then find.

    ``_SOURCE_RE`` stops exactly where a lexeme-by-lexeme scan would
    first fail, so a source it does not cover raises with that offset.
    ``findall`` skips what it cannot match, so it runs only once the
    whole source has been validated.
    """
    end = _SOURCE_RE.match(src).end()
    if end != len(src):
        raise VerilogSyntaxError(
            f"cannot tokenize at offset {end}: {src[end:end + 30]!r}"
        )
    return list(filter(None, _LEXEME_RE.findall(src)))


class _Cursor:
    """Token cursor; ``None`` sentinels past the end stand for end of input."""

    def __init__(self, tokens):
        self.tokens = tokens + [None] * (_LOOKAHEAD + 1)
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


class _Parser:
    def __init__(self, src):
        self.cur = _Cursor(_tokenize(src))
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


def parse_verilog(src):
    """Parse emitted Verilog back into a :class:`Netlist`.

    Raises :class:`VerilogSyntaxError` on any source outside the emitted
    subset.  A round trip keeps the netlist's behaviour:

    >>> from repro.flow.verify import netlists_equivalent
    >>> from repro.rtl import Netlist, emit_verilog
    >>> nl = Netlist("demo")
    >>> a, b = nl.add_input("a"), nl.add_input("b")
    >>> nl.set_output("y", nl.g_not(nl.g_and(a, b)))
    >>> netlists_equivalent(nl, parse_verilog(emit_verilog(nl)))
    True
    """
    return _Parser(src).collect().lower()
