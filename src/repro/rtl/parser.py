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

Attributes (``(* DONT_TOUCH = "yes" *)``) and comments are skipped
wherever whitespace may stand.

The port header is read token by token.  The module body is read one
statement at a time, from a copy of the source with every comment
blanked to spaces (so offsets do not move): ``_statement_re()`` matches
one whole ``wire``, ``reg``, ``assign`` or ``always`` item with its
operands in named groups, and the items must follow each other back to
back up to ``endmodule``.  Keywords and identifiers end where a token
would, so the regex accepts exactly the token sequences of the grammar.
A source that does not scan as tokens is reported by its first bad
offset, found only once parsing has failed.

Lowering onto the netlist creates the registers up front (wires may
read registers defined later and vice versa), then lowers the wires
each register and output reads in dependency order: an explicit stack
of wires being lowered, with any wire met again while on it reported
as a combinational cycle.  Nodes are created in the same order a
depth-first walk of the operands would create them.
"""

from __future__ import annotations

import functools
import re

from .netlist import Netlist

__all__ = ["parse_verilog", "VerilogSyntaxError"]


class VerilogSyntaxError(ValueError):
    """Raised when the source deviates from the emitted subset."""


_COMMENT = r"//[^\n]*|\(\*.*?\*\)"
_IDENT = r"[A-Za-z_][A-Za-z_0-9$]*"
_TOKEN = rf"1'b[01]|{_IDENT}|\d+|<=|[()\[\]{{}},;:=&|^~?@.]"
# One lexeme (whitespace, comment or token), with only a token captured:
# whitespace and comments match with group 1 empty.
_LEXEME_RE = re.compile(rf"\s+|{_COMMENT}|({_TOKEN})", re.DOTALL)
# The source language: a run of lexemes, each one exactly what
# ``_LEXEME_RE.match`` takes at its offset (the atomic group forbids
# backtracking into it, so a comment cannot stretch past its first
# ``*)`` to hide text the scanner would reject).
_SOURCE_RE = re.compile(rf"(?:(?>\s+|{_COMMENT}|{_TOKEN}))*+", re.DOTALL)
_COMMENT_RE = re.compile(_COMMENT, re.DOTALL)


@functools.cache
def _statement_re():
    """The regex for one module-body item and the whitespace before it.

    It reads the source with every comment blanked (``_blank_comments``),
    so whitespace is all that may stand between two tokens.  Compiled on
    first use, so importing the package does not pay for it.
    """
    s = r"\s*+"

    def kw(word):
        # A keyword is a whole token: `wirex` is an identifier.
        return rf"{word}(?![A-Za-z_0-9$])"

    name = rf"{_IDENT}(?:{s}\[{s}(?:{_TOKEN}){s}\])?"
    atom = rf"1'b[01]|{name}"
    not_if = rf"(?!{kw('if')})"

    def head(cond):
        return rf"{kw('if')}{s}\({s}(?P<{cond}>{atom}){s}\){s}{kw('begin')}{s}"

    def store(reg, d):
        return rf"(?P<{reg}>{name}){s}<={s}(?P<{d}>{atom}){s};"

    always = (
        rf"{kw('always')}{s}@{s}\({s}{kw('posedge')}{s}{kw('clk')}{s}\)"
        rf"{s}{kw('begin')}{s}(?:"
        # if (rst) begin r <= BIT; end else begin [if (en) begin] r <= d; ...
        + head("rst") + rf"(?P<rreg>{name}){s}<={s}1'b[01]{s};{s}{kw('end')}"
        rf"{s}{kw('else')}{s}{kw('begin')}{s}(?:"
        + head("ren") + store("rereg", "red") + rf"{s}{kw('end')}"
        rf"|{not_if}" + store("rfreg", "rfd") + rf"){s}{kw('end')}"
        # if (en) begin r <= d; end
        rf"|" + head("en") + store("ereg", "ed") + rf"{s}{kw('end')}"
        # r <= d;
        rf"|{not_if}" + store("preg", "pd") + rf"){s}{kw('end')}"
    )
    expr = (
        rf"~{s}(?P<inv>{atom})"
        rf"|(?P<x>{atom})(?:{s}(?:(?P<op>[&|^])|\?{s}(?P<then>{atom}){s}:)"
        rf"{s}(?P<y>{atom}))?"
    )
    return re.compile(
        rf"{s}(?:"
        rf"{kw('assign')}{s}(?P<target>{name}){s}={s}(?:{expr}){s};"
        rf"|{kw('wire')}{s}{name}{s};"
        rf"|{kw('reg')}{s}(?P<decl>{name}){s}={s}(?P<init>1'b[01]){s};"
        rf"|{always})"
    )


_ENDMODULE_RE = re.compile(r"\s*+endmodule(?![A-Za-z_0-9$])")
_STATEMENT_KEYWORDS = ("wire", "reg", "assign", "always")
_OPS = {"&": "and", "|": "or", "^": "xor"}


def _blank_comments(src):
    """``src`` with each comment and attribute turned into as many spaces.

    Comments are found as the scanner finds them (the leftmost first,
    each ``(* ... *)`` up to its first ``*)``), so the text has the same
    tokens at the same offsets, separated by whitespace alone.
    """
    return _COMMENT_RE.sub(lambda m: " " * (m.end() - m.start()), src)


def _check_scans(src, pos=0):
    """Raise unless ``src[pos:]`` is a run of lexemes.

    ``_SOURCE_RE`` stops exactly where a lexeme-by-lexeme scan would
    first fail, so the error names that offset.
    """
    end = _SOURCE_RE.match(src, pos).end()
    if end != len(src):
        raise VerilogSyntaxError(
            f"cannot tokenize at offset {end}: {src[end:end + 30]!r}"
        )


def _tokenize(src):
    """The source's tokens: the lexical layer ``_statement_re()`` keeps to.

    Two C-level passes, validate then find: ``findall`` skips what it
    cannot match, so it runs only once the whole source has been
    validated.
    """
    _check_scans(src)
    return list(filter(None, _LEXEME_RE.findall(src)))


class _Names(dict):
    """Atom text -> constant (0/1) or canonical signal name.

    A bus bit may be written with whitespace (or blanked comments)
    around its index (``d [ 3 ]``); its name is the text without it.
    """

    def __init__(self):
        super().__init__({"1'b0": 0, "1'b1": 1})

    def __missing__(self, text):
        name = "".join(text.split()) if "[" in text else text
        self[text] = name
        return name


class _Cursor:
    """Token cursor over the port header, scanning one lexeme at a time.

    Text that does not scan reads as end of input; ``parse_verilog``
    then reports the bad offset instead.
    """

    def __init__(self, src):
        self.src = src
        self.pos = 0          # just past the last token taken
        self._peeked = None   # (token, end) of the next token, once scanned

    def peek(self):
        if self._peeked is None:
            pos, tok = self.pos, None
            while (m := _LEXEME_RE.match(self.src, pos)) is not None:
                pos = m.end()
                if m.group(1):
                    tok = m.group(1)
                    break
            self._peeked = (tok, pos)
        return self._peeked[0]

    def next(self):
        tok = self.peek()
        if tok is None:
            raise VerilogSyntaxError("unexpected end of input")
        self.pos = self._peeked[1]
        self._peeked = None
        return tok

    def expect(self, *expected):
        tok = self.next()
        if tok not in expected:
            raise VerilogSyntaxError(f"expected one of {expected}, got {tok!r}")
        return tok


# Wire expressions: (op, operand, ...) with op one of "buf" (a plain
# alias), "not", "and", "or", "xor" or "mux" (sel, a, b), and each
# operand a signal name (str) or a constant (int 0/1).


class _Parser:
    def __init__(self, src):
        self.src = src
        self.text = _blank_comments(src)  # same offsets, no comments
        self.module_name = None
        self.input_bits = []      # flat bit names in port order
        self.output_bits = []
        self.wires = {}           # name -> expression
        self.regs = {}            # name -> [init, d, en, rst]; d None until driven
        self.out_drivers = {}     # output bit name -> expression

    # -- pass 1: collect ----------------------------------------------------
    def collect(self):
        pos = self._header()
        inputs, outputs = set(self.input_bits), set(self.output_bits)
        wires, regs, out_drivers = self.wires, self.regs, self.out_drivers
        names = _Names()
        for m in _statement_re().finditer(self.text, pos):
            if m.start() != pos:
                break
            pos = m.end()
            target = m["target"]
            if target is not None:
                target = names[target]
                if (inv := m["inv"]) is not None:
                    expr = ("not", names[inv])
                elif (op := m["op"]) is not None:
                    expr = (_OPS[op], names[m["x"]], names[m["y"]])
                elif (then := m["then"]) is not None:
                    expr = ("mux", names[m["x"]], names[then], names[m["y"]])
                else:
                    expr = ("buf", names[m["x"]])
                if target in inputs:
                    raise VerilogSyntaxError(f"input {target!r} cannot be assigned")
                drivers = out_drivers if target in outputs else wires
                if target in drivers:
                    raise VerilogSyntaxError(f"signal {target!r} assigned twice")
                drivers[target] = expr
            elif (decl := m["decl"]) is not None:
                regs[names[decl]] = [names[m["init"]], None, 1, 0]
            elif m["rreg"] is not None:
                name = names[m["rreg"]]
                if m["rereg"] is not None:
                    name2, d, en = m["rereg"], m["red"], names[m["ren"]]
                else:
                    name2, d, en = m["rfreg"], m["rfd"], 1
                if names[name2] != name:
                    raise VerilogSyntaxError("register name mismatch across arms")
                self._drive(name, names[d], en, names[m["rst"]])
            elif m["ereg"] is not None:
                self._drive(names[m["ereg"]], names[m["ed"]], names[m["en"]], 0)
            elif m["preg"] is not None:
                self._drive(names[m["preg"]], names[m["pd"]], 1, 0)
        end = _ENDMODULE_RE.match(self.text, pos)
        if end is None:
            self._fail(pos)
        _check_scans(self.src, end.end())
        return self

    def _header(self):
        """Read ``module NAME ( ports ) ;``; return the body's offset."""
        cur = _Cursor(self.text)
        cur.expect("module")
        self.module_name = cur.next()
        cur.expect("(")
        while True:
            direction = cur.expect("input", "output")
            cur.expect("wire")
            width = None
            if cur.peek() == "[":
                cur.next()
                hi = _int(cur.next())
                cur.expect(":")
                lo = _int(cur.next())
                cur.expect("]")
                if lo != 0:
                    raise VerilogSyntaxError("bus ranges must end at 0")
                width = hi + 1
            base = cur.next()
            bits = [base] if width is None else [f"{base}[{i}]" for i in range(width)]
            if direction == "input":
                self.input_bits.extend(bits)
            else:
                self.output_bits.extend(bits)
            if cur.peek() == ",":
                cur.next()
                continue
            cur.expect(")")
            break
        cur.expect(";")
        return cur.pos

    def _drive(self, name, d, en, rst):
        reg = self.regs.get(name)
        if reg is None:
            raise VerilogSyntaxError(f"always block drives undeclared reg {name!r}")
        if reg[1] is not None:
            raise VerilogSyntaxError(f"register {name!r} assigned twice")
        reg[1:] = d, en, rst

    def _fail(self, pos):
        """Report the body text at ``pos``, which is not a whole item."""
        cur = _Cursor(self.text)
        cur.pos = pos
        head = cur.next()
        if head not in _STATEMENT_KEYWORDS:
            raise VerilogSyntaxError(f"unexpected token {head!r}")
        start = cur.pos - len(head)
        raise VerilogSyntaxError(
            f"malformed {head} item at offset {start}: "
            f"{self.src[start:start + 40]!r}"
        )

    # -- pass 2: lower onto a netlist ----------------------------------------
    def lower(self):
        nl = Netlist(name=self.module_name)
        env = {0: nl.const(0), 1: nl.const(1)}  # name or constant -> net
        for bit in self.input_bits:
            if bit == "clk":
                continue  # the clock is implicit in the IR
            env[bit] = nl.add_input(bit)
        # Registers first, with placeholder fanins patched afterwards.
        for name, reg in self.regs.items():
            env[name] = nl.dff(nl.const(0), init=reg[0], name=name)

        wires = self.wires
        gates = {"not": nl.g_not, "and": nl.g_and, "or": nl.g_or,
                 "xor": nl.g_xor, "mux": nl.g_mux}

        def gate(expr):
            """Net of ``expr``, whose operands are all lowered."""
            args = [env[a] for a in expr[1:]]
            op = expr[0]
            return args[0] if op == "buf" else gates[op](*args)

        def net(ref):
            """Net of a name or constant, lowering first the wires it reads."""
            stack = [] if ref in env else [ref]  # each wire reads the next
            on_stack = set()
            while stack:
                name = stack[-1]
                expr = wires.get(name)
                if expr is None:
                    raise VerilogSyntaxError(f"use of undefined signal {name!r}")
                on_stack.add(name)
                for arg in expr[1:]:
                    if arg not in env:
                        if arg in on_stack:
                            raise VerilogSyntaxError(
                                f"combinational cycle through {arg!r}")
                        stack.append(arg)
                        break
                else:
                    env[name] = gate(expr)
                    on_stack.discard(name)
                    stack.pop()
            return env[ref]

        for name, (_, d, en, rst) in self.regs.items():
            if d is None:
                raise VerilogSyntaxError(f"register {name!r} never driven")
            if name in wires:
                raise VerilogSyntaxError(f"register {name!r} assigned twice")
            nl.nodes[env[name]].fanins = (net(d), net(en), net(rst))
        for bit in self.output_bits:
            driver = self.out_drivers.get(bit)
            if driver is None:
                raise VerilogSyntaxError(f"output {bit!r} never driven")
            for arg in driver[1:]:
                net(arg)
            nl.set_output(bit, gate(driver))
        return nl


def _int(tok):
    if not tok.isdigit():
        raise VerilogSyntaxError(f"expected a number, got {tok!r}")
    return int(tok)


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
    parser = _Parser(src)
    try:
        parser.collect()
    except VerilogSyntaxError:
        # A source that does not scan is reported where the scan stops,
        # before any grammar error.
        _check_scans(src)
        raise
    return parser.lower()
