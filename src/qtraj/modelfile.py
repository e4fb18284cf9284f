"""Declarative model files: parse, validate, lower, and echo back.

A model file is UTF-8 text with sections introduced by `name:` lines:

    freedoms:     ordered declarations, one per line
    params:       named scalar constants, `name = expr`
    hamiltonian:  one operator expression (may span lines)
    lindblads:    one operator expression per line
    initial:      one state constructor per freedom
    output:       `filename expression` per line
    run:          `key = value` stepping parameters

Expressions use complex literals with an `i` suffix (2i, 1.5e-3i; bare `i`
is the imaginary unit), parameter references, unary minus, binary + - *,
integer ^, a postfix .hc() adjoint, scalar functions sqrt/sin/cos/exp, the
time variable `t` in scalar positions, and primaries bound to declared
freedoms: a(f), adag(f), n(f), x(f), p(f) on fields, sp(f), sm(f), sz(f) on
spins, tr(f,i,j) on atoms.  Precedence: ^ above unary minus above * above
+ -; binary operators associate left.

Primary names are the values of operators.Kind plus adag; freedom types
and unravelings are the values of PhysicalType and Unraveling, and the
integrator kinds are steppers.INTEGRATOR_KINDS.  The run normalizer
checks the ranges of dt, numdts, numsteps, trajectories, seed, moving and
pad; the checks of eps, cutoff_epsilon and shift_accuracy, the pipe range
and which freedoms may move are IntegratorConfig's, MovingBasisParams',
OutputSpec's and _validate_moving's, re-raised as model errors.

Each expression is parsed in one recursive-descent pass that builds its
value -- a constant, a time program or the operator tree a run applies --
together with its canonical text: parenthesized only where precedence
requires, numbers written by repr.  Each scalar operation is one function
of complex numbers, which _lift applies to constants and otherwise appends
to a flat postfix program over t; an adjoint flips conjugation flags.  The
parsed model keeps the text, which print_model echoes and equality
compares, and the operators, which build_model uses.  Parse and type
errors, an out-of-range tr() level among them, raise ModelParseError with a
line:column location, counted from the start of the line; a syntax error
anywhere in an expression is reported before any lowering error in it.
Only the text's nesting is bounded, by _MAX_DEPTH (parentheses, arguments
and unary minus, in the input and in its canonical text, which
parenthesizes each base of a power chain), as the parser recurses through
it; an operator tree may nest to any depth (operators._fold_tree).
Semantic rejections after a clean parse (a non-Hermitian Hamiltonian, an
out-of-range initial level, a moving count that reaches past the leading
field freedoms) raise ModelValidationError.
The Hamiltonian check is exact on the declared truncation: the compiled
offset diagonals must satisfy <i|H|j> = conj(<j|H|i>) wherever neither i
nor j is the top level of a field freedom, since a ladder truncation only
respects hermiticity on the lower block.
"""

from __future__ import annotations

import cmath
import math
import operator
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .hilbert import (
    ATOM,
    FIELD,
    SPIN,
    FreedomSpec,
    PhysicalType,
    StateVector,
    StepError,
    basis_state,
    coherent_state,
    product_state,
)
from .moving_basis import MovingBasisParams
from .operators import (
    Kind,
    Power,
    Primary,
    ScalarMul,
    TimeFnMul,
    compile_operator,
)
from .steppers import INTEGRATOR_KINDS, IntegratorConfig, ModelOperators, Unraveling
from .trajectory import OutputSpec, RunConfig, _fmt, _validate_moving

__all__ = [
    "ModelError",
    "ModelParseError",
    "ModelValidationError",
    "ModelFile",
    "parse_model",
    "override_run",
    "build_model",
    "print_model",
    "load_model",
]


class ModelError(Exception):
    pass


class ModelParseError(ModelError):
    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class ModelValidationError(ModelError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer


_OPCHARS = set("+-*^(),=.")


class _Tok(NamedTuple):
    kind: str
    text: str
    value: float
    line: int
    col: int

    @property
    def pos(self):
        return (self.line, self.col)


def _tokenize(text, first_line=1, first_col=1):
    """Tokens of text, located from its start at (first_line, first_col)."""
    toks = []
    line = first_line
    col = first_col
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                val = float(lit)
            except ValueError:
                raise ModelParseError(f"bad number literal '{lit}'", line, start_col)
            if not math.isfinite(val):
                raise ModelParseError(f"number literal '{lit}' overflows", line, start_col)
            kind = "NUM"
            if j < n and text[j] == "i" and (j + 1 >= n or not (text[j + 1].isalnum() or text[j + 1] == "_")):
                kind = "IMAG"
                j += 1
            toks.append(_Tok(kind, text[i:j], val, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("IDENT", text[i:j], None, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _OPCHARS:
            toks.append(_Tok(ch, ch, None, line, start_col))
            i += 1
            col += 1
            continue
        raise ModelParseError(f"unexpected character {ch!r}", line, start_col)
    toks.append(_Tok("EOF", "", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# One-pass expression parser: every parse method lowers and prints its part


# a primary's name is its Kind's value; adag names the conjugated ladder
_PRIMARIES = {kind.value: (kind, False) for kind in Kind} | {"adag": (Kind.DESTROY, True)}
_SCALAR_FUNCS = {"sqrt": cmath.sqrt, "sin": cmath.sin, "cos": cmath.cos,
                 "exp": cmath.exp}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_RESERVED = set(_PRIMARIES) | set(_SCALAR_FUNCS) | {"hc", "i", "t"}

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_POSTFIX, _PREC_ATOM = 1, 2, 3, 4, 5, 6
_MAX_DEPTH = 120


class _Val(NamedTuple):
    """One parsed subexpression.

    kind is "c" (val a complex constant), "f" (val a _TimeProgram), "o"
    (val an OperatorExpr), "name" (a bare identifier, resolved only when
    an operator needs its value, so that a primary can take it as its
    freedom argument) or "error" (val the ModelParseError its lowering
    raised).  text is the canonical text, prec the precedence of its
    outermost operator, pos the (line, col) its errors point at,
    and literal the token kind ("NUM" or "IMAG") of a bare number literal.
    """

    kind: str
    val: object
    text: str
    prec: int
    pos: tuple
    literal: str = None


def _err(msg, at):
    raise ModelParseError(msg, at.pos[0], at.pos[1])


def _wrap(v, minprec):
    return f"({v.text})" if v.prec < minprec else v.text


class _TimeProgram(tuple):
    """A scalar in t as a flat postfix program of steps, run by one loop; nothing nests.

    A step (x, n) pops n values and pushes x of them (x(t) for n = 0), or
    pushes the constant x (n None): the functions _lift applies to constants,
    so the value at t has the bits of the expression with t written in.
    Equal means identical, as for closures: -1-0j == -1+0j, yet sqrt differs.
    """

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __call__(self, t):
        stack = []
        for x, n in self:
            if n:
                stack[-n:] = [x(*stack[-n:])]
            else:
                stack.append(x if n is None else x(t))
        return stack[0]


def _lift(fn, *operands):
    """fn of the operands' values: a constant if each is one, else a time program."""
    if all(v.kind == "c" for v in operands):
        return "c", fn(*[v.val for v in operands])
    steps = [s for v in operands for s in (v.val if v.kind == "f" else [(v.val, None)])]
    return "f", _TimeProgram((*steps, (fn, len(operands))))


def _negate(v):
    return ("o", ScalarMul(-1.0, v.val)) if v.kind == "o" else _lift(operator.neg, v)


def _adjoint(v):
    return ("o", v.val.hc()) if v.kind == "o" else _lift(complex.conjugate, v)


def _power(v, k, at):
    if v.kind != "o":
        return _lift(operator.pow, v, v._replace(kind="c", val=k))
    try:
        return "o", Power(v.val, k)
    except ValueError as e:
        _err(str(e), at)


def _combine(op, left, right, at):
    fn = _BINARY[op]
    if left.kind == "o" and right.kind == "o":
        return "o", fn(left.val, right.val)
    if "o" not in (left.kind, right.kind):
        return _lift(fn, left, right)
    if op != "*":
        _err("cannot add a scalar and an operator", at)
    s, o = (right, left) if left.kind == "o" else (left, right)
    return "o", ScalarMul(s.val, o.val) if s.kind == "c" else TimeFnMul(s.val, o.val)


class _ExprParser:
    """Recursive descent over one expression, lowering and printing as it goes.

    freedoms maps names to (index, ptype, dim) and params names to their
    complex values; allow_time says whether `t` may appear.  A lowering
    error travels up as an "error" value and is raised only once the whole
    expression has parsed, so a syntax error anywhere in it wins, and of
    several lowering errors the first one a walk of the finished parse tree
    would meet wins.
    """

    def __init__(self, toks, freedoms, params, allow_time):
        self.toks = toks
        self.i = 0
        self.depth = 0
        self.freedoms = freedoms
        self.params = params
        self.allow_time = allow_time

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ModelParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return self.advance()

    def parse_full(self):
        v = self.parse_expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ModelParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        return self.value(v)

    def value(self, v):
        """v with a bare name resolved to its parameter; raises a carried error."""
        if v.kind == "error":
            raise v.val
        if v.kind != "name":
            return v
        if v.text in self.params:
            return v._replace(kind="c", val=self.params[v.text])
        if v.text in self.freedoms:
            _err(f"freedom '{v.text}' used without an operator "
                 "(write a(...), sp(...), ...)", v)
        _err(f"unknown identifier '{v.text}'", v)

    def lowered(self, fn, operands, text, prec, pos):
        """fn applied to the operands' values, or the first error on the way."""
        try:
            kind, val = fn(*[self.value(v) for v in operands])
            if kind == "c" and not cmath.isfinite(val):  # 1e308*10 overflows silently
                raise OverflowError
        except ModelParseError as err:
            return _Val("error", err, text, prec, pos)
        except OverflowError:
            return _Val("error", ModelParseError("value overflows", *pos), text, prec, pos)
        return _Val(kind, val, text, prec, pos)

    def parse_expr(self):
        v = self.parse_term()
        while self.peek().kind in ("+", "-"):
            v = self.binary(self.advance(), v, self.parse_term())
        return v

    def parse_term(self):
        v = self.parse_unary()
        while self.peek().kind == "*":
            v = self.binary(self.advance(), v, self.parse_unary())
        return v

    def binary(self, optok, left, right):
        op = optok.kind
        prec = _PREC_MUL if op == "*" else _PREC_ADD
        sep = op if op == "*" else f" {op} "
        return self.lowered(lambda l, r: _combine(op, l, r, optok), (left, right),
                            _wrap(left, prec) + sep + _wrap(right, prec + 1), prec, optok.pos)

    def parse_unary(self):
        # each enclosing parenthesis, argument or unary minus is one call deeper
        self.depth += 1
        tok = self.peek()
        if self.depth > _MAX_DEPTH:
            raise ModelParseError("expression nested too deeply", tok.line, tok.col)
        try:
            if tok.kind != "-":
                return self.parse_power()
            self.advance()
            v = self.parse_unary()
            return self.lowered(_negate, (v,), "-" + _wrap(v, _PREC_NEG), _PREC_NEG, tok.pos)
        finally:
            self.depth -= 1

    def parse_power(self):
        v = self.parse_postfix()
        while self.peek().kind == "^":
            optok = self.advance()
            etok = self.expect("NUM")
            if etok.value != int(etok.value) or "." in etok.text or "e" in etok.text.lower():
                raise ModelParseError("exponent must be an integer literal",
                                      etok.line, etok.col)
            k = int(etok.value)
            v = self.lowered(lambda b: _power(b, k, optok), (v,),
                             f"{_wrap(v, _PREC_POSTFIX)}^{k}", _PREC_POW, optok.pos)
        return v

    def parse_postfix(self):
        v = self.parse_atom()
        while self.peek().kind == ".":
            dot = self.advance()
            name = self.expect("IDENT")
            if name.text != "hc":
                raise ModelParseError(f"unknown postfix '.{name.text}'",
                                      name.line, name.col)
            self.expect("(")
            self.expect(")")
            # a trailing .hc() after a bare number would lex as part of the
            # literal, so literals get parenthesized too
            child = f"({v.text})" if v.literal else _wrap(v, _PREC_POSTFIX)
            v = self.lowered(_adjoint, (v,), child + ".hc()", _PREC_POSTFIX, dot.pos)
        return v

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            return _Val("c", complex(tok.value), _fmt(tok.value), _PREC_ATOM, tok.pos, "NUM")
        if tok.kind == "IMAG":
            self.advance()
            return _Val("c", complex(0.0, tok.value), _fmt(tok.value) + "i", _PREC_ATOM,
                        tok.pos, "IMAG")
        if tok.kind == "(":
            self.advance()
            v = self.parse_expr()
            self.expect(")")
            return v
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "i":
                return _Val("c", 1j, _fmt(1.0) + "i", _PREC_ATOM, tok.pos, "IMAG")
            if tok.text == "t":
                return self.lowered(lambda: self.time(tok), (), "t", _PREC_ATOM, tok.pos)
            if self.peek().kind == "(":
                self.advance()
                args = [self.parse_expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                return self.lowered(lambda: self.call(tok, args), (),
                                    f"{tok.text}({', '.join(a.text for a in args)})",
                                    _PREC_ATOM, tok.pos)
            return _Val("name", None, tok.text, _PREC_ATOM, tok.pos)
        raise ModelParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.line, tok.col)

    def time(self, tok):
        if not self.allow_time:
            _err("'t' is not allowed in this context", tok)
        return "f", _TimeProgram(((complex, 0),))

    def call(self, tok, args):
        name = tok.text
        if name in _SCALAR_FUNCS:
            if len(args) != 1:
                _err(f"{name}() takes one argument", tok)
            v = self.value(args[0])
            if v.kind == "o":
                _err(f"{name}() applies to scalars, not operators", tok)
            return _lift(_SCALAR_FUNCS[name], v)
        if name in _PRIMARIES:
            return "o", self.primary(tok, args)
        _err(f"unknown function '{name}'", tok)

    def primary(self, call, args):
        name = call.text
        kind, conj = _PRIMARIES[name]
        if kind is Kind.TRANSITION:
            if len(args) != 3:
                _err("tr() takes (freedom, i, j)", call)
            idx, dim = self.freedom_arg(args[0], kind.ptype, "tr")
            i = _int_arg(args[1], "tr")
            j = _int_arg(args[2], "tr")
            for level in (i, j):
                if level >= dim:
                    _err(f"tr() level {level} outside freedom '{args[0].text}' "
                         f"dimension {dim}", call)
            try:
                return Primary(kind, idx, (i, j))
            except ValueError as e:
                _err(str(e), call)
        if len(args) != 1:
            _err(f"{name}() takes one freedom argument", call)
        idx, _ = self.freedom_arg(args[0], kind.ptype, name)
        return Primary(kind, idx, conj=conj)

    def freedom_arg(self, arg, want_ptype, opname):
        if arg.kind != "name":
            _err(f"{opname}() expects a freedom name", arg)
        if arg.text not in self.freedoms:
            _err(f"unknown freedom '{arg.text}'", arg)
        idx, ptype, dim = self.freedoms[arg.text]
        if ptype is not want_ptype:
            _err(f"{opname}() needs a {want_ptype.name.lower()} freedom, "
                 f"'{arg.text}' is {ptype.name.lower()}", arg)
        return idx, dim


def _int_arg(arg, opname):
    if arg.literal != "NUM" or arg.val.real != int(arg.val.real):
        _err(f"{opname}() level arguments must be integer literals", arg)
    return int(arg.val.real)


def _parse_expression(text, first_line, freedoms, params, allow_time=True, first_col=1):
    """One expression parsed and lowered: a _Val holding its value and text.

    text starts at column first_col of line first_line.  The canonical text
    is parsed once more, so that every accepted expression echoes back: it
    parenthesizes each base of a power chain, (x^2)^3, which can nest it
    deeper than the input was.
    """
    toks = _tokenize(text, first_line, first_col)
    v = _ExprParser(toks, freedoms, params, allow_time).parse_full()
    try:
        _ExprParser(_tokenize(v.text), freedoms, params, allow_time).parse_full()
    except ModelParseError:
        raise ModelParseError("expression nested too deeply", *v.pos) from None
    return v


def _scalar(v):
    if v.kind != "c":
        _err("expected a constant scalar here", v)
    return v.val


def _operator(v):
    if v.kind != "o":
        _err("expected an operator expression here", v)
    return v.val


# ---------------------------------------------------------------------------
# Section-level parsing


_SECTION_NAMES = ("freedoms", "params", "hamiltonian", "lindblads",
                  "initial", "output", "run")
RUN_KEYS = ("dt", "numdts", "numsteps", "trajectories", "seed", "unraveling",
            "integrator", "eps", "moving", "cutoff_epsilon", "pad",
            "shift_accuracy", "pipe")


@dataclass(frozen=True)
class FreedomDecl:
    name: str
    ptype: PhysicalType
    dim: int


# initial-state constructor -> (the freedom type it applies to or None for
# any, its arguments: None, one "int", one "scalar" or a list of "scalars")
_INITIAL_CTORS = {
    "fock": (FIELD, "int"),
    "coherent": (FIELD, "scalar"),
    "down": (SPIN, None),
    "up": (SPIN, None),
    "level": (ATOM, "int"),
    "amps": (None, "scalars"),
}


@dataclass(frozen=True)
class InitialDecl:
    freedom: str
    ctor: str          # a key of _INITIAL_CTORS
    args: tuple = ()


@dataclass(frozen=True)
class ModelFile:
    """A parsed model; every expression is kept as its canonical text.

    Canonical text parenthesizes exactly where precedence requires and
    writes numbers by repr, so equal text means equal parse trees.
    """

    freedoms: tuple
    params: tuple          # ((name, text), ...)
    hamiltonian: str       # None without a hamiltonian section
    lindblads: tuple       # (text, ...)
    initial: tuple
    outputs: tuple         # ((filename, text), ...)
    run: tuple             # ((key, normalized value), ...) sorted by RUN_KEYS
    # the lowered operators: (hamiltonian or None, lindblads, outputs)
    lowered: tuple = field(compare=False, repr=False)

    def run_dict(self):
        return dict(self.run)


def _strip_comment(line):
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _split_sections(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.endswith(":") and stripped[:-1].strip().isidentifier() \
                and not line[:1].isspace():
            name = stripped[:-1].strip()
            if name not in _SECTION_NAMES:
                raise ModelParseError(f"unknown section '{name}'", lineno, 1)
            if name in sections:
                raise ModelParseError(f"duplicate section '{name}'", lineno, 1)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ModelParseError("content before any section header", lineno, 1)
        sections[current].append((lineno, line))
    return sections


def _parse_freedoms(body):
    decls = []
    seen = set()
    for lineno, line in body:
        w = line.split()
        if len(w) < 2:
            raise ModelParseError("freedom declaration needs 'name type [dim]'",
                                  lineno, 1)
        name, tname = w[0], w[1]
        if not name.isidentifier():
            raise ModelParseError(f"bad freedom name '{name}'", lineno, 1)
        if name in _RESERVED:
            raise ModelParseError(f"'{name}' shadows a builtin", lineno, 1)
        if name in seen:
            raise ModelParseError(f"duplicate freedom '{name}'", lineno, 1)
        if tname not in {p.value for p in PhysicalType}:
            raise ModelParseError(f"unknown freedom type '{tname}' "
                                  "(expected field, spin or atom)", lineno, 1)
        if tname == "spin":
            if len(w) > 3 or (len(w) == 3 and w[2] != "2"):
                raise ModelParseError("spin freedoms have dimension 2", lineno, 1)
            dim = 2
        else:
            if len(w) != 3:
                raise ModelParseError(f"{tname} freedom needs a dimension", lineno, 1)
            try:
                dim = int(w[2])
            except ValueError:
                raise ModelParseError(f"bad dimension '{w[2]}'", lineno, 1)
            least = 2 if tname == "atom" else 1
            if dim < least:
                raise ModelParseError(f"{tname} dimension must be >= {least}",
                                      lineno, 1)
        seen.add(name)
        decls.append(FreedomDecl(name, PhysicalType(tname), dim))
    if not decls:
        raise ModelParseError("at least one freedom is required")
    return tuple(decls)


def _parse_params(body, env):
    # freedoms stay visible so `k = a(m)` gets a type error, not a name error
    params = []
    values = {}
    for lineno, line in body:
        if "=" not in line:
            raise ModelParseError("params lines look like 'name = expression'",
                                  lineno, 1)
        head, _, rhs = line.partition("=")
        name = head.strip()
        if not name.isidentifier():
            raise ModelParseError(f"bad parameter name '{name}'", lineno, 1)
        if name in _RESERVED:
            raise ModelParseError(f"'{name}' shadows a builtin", lineno, 1)
        if name in env or name in values:
            raise ModelParseError(f"'{name}' is already defined", lineno, 1)
        v = _parse_expression(rhs, lineno, env, values, allow_time=False,
                              first_col=len(head) + 2)
        values[name] = _scalar(v)
        params.append((name, v.text))
    return tuple(params), values


def _parse_initial(body, freedoms):
    byname = {d.name: d for d in freedoms}
    decls = {}
    for lineno, line in body:
        w = line.split()
        if len(w) < 2:
            raise ModelParseError("initial lines look like 'freedom ctor [args]'",
                                  lineno, 1)
        fname, ctor = w[0], w[1]
        if fname not in byname:
            raise ModelParseError(f"unknown freedom '{fname}'", lineno, 1)
        if fname in decls:
            raise ModelParseError(f"duplicate initial state for '{fname}'", lineno, 1)
        rest = line.split(None, 2)[2] if len(w) > 2 else ""
        col = len(line) - len(rest) + 1  # where rest starts
        ptype = byname[fname].ptype
        if ctor not in _INITIAL_CTORS or _INITIAL_CTORS[ctor][0] not in (None, ptype):
            hint = ", ".join(f"{p.value}: " + "/".join(
                c for c, (q, _) in _INITIAL_CTORS.items() if q in (None, p))
                for p in PhysicalType)
            raise ModelParseError(
                f"constructor '{ctor}' does not apply to a {ptype.value} freedom ({hint})",
                lineno, 1)
        argkind = _INITIAL_CTORS[ctor][1]
        if argkind is None:
            if rest.strip():
                raise ModelParseError(f"'{ctor}' takes no arguments", lineno, 1)
            args = ()
        elif argkind == "int":
            args = (_parse_int(rest, lineno),)
        elif argkind == "scalar":
            args = (_parse_scalar_literal(rest, lineno, col),)
        else:
            args = []
            for part in rest.split(","):
                if part.strip():
                    args.append(_parse_scalar_literal(part, lineno, col))
                col += len(part) + 1
            if not args:
                raise ModelParseError(f"{ctor} needs a comma-separated list", lineno, 1)
            args = tuple(args)
        decls[fname] = InitialDecl(fname, ctor, args)
    missing = [d.name for d in freedoms if d.name not in decls]
    if missing:
        raise ModelParseError(f"missing initial state for: {', '.join(missing)}")
    return tuple(decls[d.name] for d in freedoms)


def _parse_int(text, lineno):
    try:
        return int(text.strip())
    except ValueError:
        raise ModelParseError(f"expected an integer, found '{text.strip()}'", lineno, 1)


def _parse_scalar_literal(text, lineno, col=1):
    return _scalar(_parse_expression(text, lineno, {}, {}, allow_time=False, first_col=col))


def _parse_run(body):
    raw = {}
    for lineno, line in body:
        if "=" not in line:
            raise ModelParseError("run lines look like 'key = value'", lineno, 1)
        head, _, rhs = line.partition("=")
        key = head.strip()
        if key not in RUN_KEYS:
            raise ModelParseError(f"unknown run key '{key}'", lineno, 1)
        if key in raw:
            raise ModelParseError(f"duplicate run key '{key}'", lineno, 1)
        col = len(head) + 2 + len(rhs) - len(rhs.lstrip())  # where the value starts
        raw[key] = (rhs.strip(), lineno, col)
    return raw


def _normalize_run(raw):
    """Fill defaults, coerce types; returns ((key, value), ...) in RUN_KEYS order.

    raw maps each run key to (value text, line, column of the value); a
    line of None (a command-line flag) gives errors no location.
    """
    def number(key, default=None, required=False):
        if key not in raw:
            if required:
                raise ModelParseError(f"run section must set '{key}'")
            return default
        text, lineno, col = raw[key]
        val = _parse_scalar_literal(text, lineno, col)
        if abs(val.imag) > 0:
            raise ModelParseError(f"run key '{key}' must be real", lineno, 1)
        return val.real

    def integer(key, default=None, required=False, minimum=None):
        v = number(key, default, required)
        if v is None:
            return None
        if v != int(v):
            lineno = raw[key][1] if key in raw else 1
            raise ModelParseError(f"run key '{key}' must be an integer", lineno, 1)
        v = int(v)
        if minimum is not None and v < minimum:
            lineno = raw[key][1] if key in raw else 1
            raise ModelParseError(f"run key '{key}' must be >= {minimum}", lineno, 1)
        return v

    def word(key, default, choices):
        if key not in raw:
            return default
        text, lineno, _ = raw[key]
        if text not in choices:
            raise ModelParseError(
                f"run key '{key}' must be one of {', '.join(sorted(choices))}",
                lineno, 1)
        return text

    def check(key, config, **values):
        # the config dataclass's own range check, reported at the key's line
        try:
            config(**values)
        except ValueError as err:
            raise ModelParseError(str(err), raw[key][1], 1) from None

    out = {}
    out["dt"] = number("dt", required=True)
    if out["dt"] <= 0:
        raise ModelParseError("dt must be positive", raw["dt"][1], 1)
    out["numdts"] = integer("numdts", required=True, minimum=1)
    out["numsteps"] = integer("numsteps", required=True, minimum=0)
    out["trajectories"] = integer("trajectories", default=RunConfig.n_trajectories,
                                  minimum=1)
    out["seed"] = integer("seed", default=RunConfig.seed, minimum=0)
    out["unraveling"] = word("unraveling", RunConfig.unraveling.value,
                             [u.value for u in Unraveling])
    out["integrator"] = word("integrator", IntegratorConfig.kind, INTEGRATOR_KINDS)
    out["eps"] = number("eps", default=IntegratorConfig.eps)
    check("eps", IntegratorConfig, kind=out["integrator"], eps=out["eps"])
    moving = integer("moving", default=None, minimum=0)
    if moving is None and any(k in raw for k in ("cutoff_epsilon", "pad", "shift_accuracy")):
        raise ModelParseError("moving-basis keys need 'moving = <count>'")
    if moving is not None:
        out["moving"] = moving
        out["cutoff_epsilon"] = number("cutoff_epsilon",
                                       default=MovingBasisParams.cutoff_epsilon)
        out["pad"] = integer("pad", default=MovingBasisParams.pad_size, minimum=1)
        out["shift_accuracy"] = number("shift_accuracy",
                                       default=MovingBasisParams.shift_accuracy)
        for key in ("cutoff_epsilon", "shift_accuracy"):
            check(key, MovingBasisParams, n_moving=moving, **{key: out[key]})
    if "pipe" in raw:
        text, lineno, _ = raw["pipe"]
        parts = text.split()
        if len(parts) != 4:
            raise ModelParseError("pipe needs exactly 4 column indices", lineno, 1)
        try:
            out["pipe"] = tuple(int(p) for p in parts)
        except ValueError:
            raise ModelParseError("pipe indices must be integers", lineno, 1)
    else:
        out["pipe"] = OutputSpec.pipe
    return tuple((k, out[k]) for k in RUN_KEYS if k in out)


def _check_pipe(run, operators):
    """OutputSpec's pipe-range rule for the output operators, as a parse error."""
    try:
        OutputSpec(operators, pipe=dict(run)["pipe"])
    except ValueError as err:
        raise ModelParseError(str(err)) from None


def _run_text(key, val):
    """A normalized run value as the right-hand side of its run line."""
    if key == "pipe":
        return " ".join(str(p) for p in val)
    if isinstance(val, (int, str)):
        return str(val)
    return _fmt(val)


def override_run(mf: ModelFile, overrides: dict) -> ModelFile:
    """`mf` with the given run keys replaced, validated as the run section is.

    overrides maps run keys to the text of their run line's right-hand side;
    keys mapped to None keep the model file's value.
    """
    raw = {key: (_run_text(key, val), None, 1) for key, val in mf.run}
    raw.update((key, (text.strip(), None, 1)) for key, text in overrides.items()
               if text is not None)
    run = _normalize_run(raw)
    _check_pipe(run, mf.lowered[2])
    return replace(mf, run=run)


# ---------------------------------------------------------------------------
# Whole-file parse


def parse_model(text: str) -> ModelFile:
    """Parse and type-check a model file; raises ModelParseError on bad input."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            raise ModelParseError(f"model file is not valid UTF-8: {e}")
    sections = _split_sections(text)
    for required in ("freedoms", "initial", "run"):
        if required not in sections:
            raise ModelParseError(f"missing required section '{required}'")
    freedoms = _parse_freedoms(sections["freedoms"])
    env = {d.name: (k, d.ptype, d.dim) for k, d in enumerate(freedoms)}
    params, param_values = _parse_params(sections.get("params", ()), env)
    initial = _parse_initial(sections["initial"], freedoms)
    run = _normalize_run(_parse_run(sections["run"]))

    def parse_op(text, first_line, first_col=1):
        v = _parse_expression(text, first_line, env, param_values, first_col=first_col)
        return _operator(v), v.text

    ham_text = hamiltonian = None
    if "hamiltonian" in sections and sections["hamiltonian"]:
        body = sections["hamiltonian"]
        chunks = []
        prev = body[0][0]
        for lineno, line in body:
            chunks.append("\n" * (lineno - prev))
            chunks.append(line)
            prev = lineno
        hamiltonian, ham_text = parse_op("".join(chunks), body[0][0])

    lindblads = [parse_op(line, lineno) for lineno, line in sections.get("lindblads", ())]

    outputs = []
    output_ops = []
    seen_files = set()
    for lineno, line in sections.get("output", ()):
        w = line.split(None, 1)
        if len(w) != 2:
            raise ModelParseError("output lines look like 'filename expression'",
                                  lineno, 1)
        fname, expr_text = w
        if fname in seen_files:
            raise ModelParseError(f"duplicate output file '{fname}'", lineno, 1)
        seen_files.add(fname)
        op, text = parse_op(expr_text, lineno, len(line) - len(expr_text) + 1)
        output_ops.append(op)
        outputs.append((fname, text))
    if not outputs:
        raise ModelParseError("the output section must list at least one "
                              "'filename expression' line")

    _check_pipe(run, output_ops)
    return ModelFile(freedoms, params, ham_text, tuple(text for _, text in lindblads),
                     initial, tuple(outputs), run,
                     (hamiltonian, tuple(op for op, _ in lindblads), tuple(output_ops)))


# ---------------------------------------------------------------------------
# Build runtime artifacts


def _initial_state(decl: InitialDecl, fdecl: FreedomDecl) -> StateVector:
    if decl.ctor == "fock" or decl.ctor == "level":
        n = decl.args[0]
        if not 0 <= n < fdecl.dim:
            raise ModelValidationError(
                f"initial level {n} outside freedom '{fdecl.name}' "
                f"dimension {fdecl.dim}")
        return basis_state(fdecl.dim, n, fdecl.ptype)
    if decl.ctor == "coherent":
        return coherent_state(fdecl.dim, decl.args[0])
    if decl.ctor in ("down", "up"):
        return basis_state(2, ("down", "up").index(decl.ctor), SPIN)
    if len(decl.args) > fdecl.dim:
        raise ModelValidationError(
            f"{len(decl.args)} amplitudes exceed freedom '{fdecl.name}' "
            f"dimension {fdecl.dim}")
    amps = np.zeros(fdecl.dim, dtype=complex)
    amps[:len(decl.args)] = decl.args
    nrm = float(np.linalg.norm(amps))
    if nrm <= 0:
        raise ModelValidationError(
            f"initial amplitudes for '{fdecl.name}' are all zero")
    return StateVector([FreedomSpec(fdecl.ptype, fdecl.dim)], amps / nrm)


# Times at which a time-dependent operator is checked.  The last two are
# irrational, so a factor such as sin(2*pi*t/T) with a rational period T
# cannot vanish at all of them.
_CHECK_TIMES = (0.0, 0.5, 1.0, 1 / math.sqrt(2), math.pi / 4)


def _finite_diagonals(name, expr, freedoms):
    """Yield (t, size, diagonals, scale) of expr compiled for freedoms.

    An operator with time functions is read at each of _CHECK_TIMES; scale
    is at least 1 and at least every element's modulus.  An element that is
    infinite or NaN, or a time function that overflows, is a
    ModelValidationError that names the operator.
    """
    op = compile_operator(expr, freedoms)
    for t in _CHECK_TIMES if op.timed else (0.0,):
        try:
            diags = op.diagonals(t)
        except StepError as err:
            raise ModelValidationError(f"{name}: {err}") from None
        # np.max keeps a NaN where the builtin max would drop it
        scale = np.max([1.0] + [np.abs(d).max() for d in diags.values()])
        if not scale < math.inf:
            raise ModelValidationError(
                f"{name} has a matrix element that is not finite at t={t}")
        yield t, op.size, diags, scale


@np.errstate(over="ignore", invalid="ignore")  # non-finite elements are reported, not warned
def _check_hermitian(h_expr, freedoms):
    """Exact adjointness of the compiled diagonals, top field levels masked.

    Entry i of offset o is <i|H|i+o>; it must equal conj(<i+o|H|i>), entry
    i+o of offset -o, wherever rows i and i+o both lie below the top level
    of every field freedom.  The diagonals must be finite
    (_finite_diagonals).
    """
    lower = np.ones(tuple(f.dim_used for f in freedoms), dtype=bool)
    for k, fr in enumerate(freedoms):
        if fr.ptype is FIELD and fr.dim_used > 1:
            lower[(slice(None),) * k + (fr.dim_used - 1,)] = False
    lower = lower.reshape(-1)
    for t, size, diags, scale in _finite_diagonals("hamiltonian", h_expr, freedoms):
        defect = 0.0
        for o, d in diags.items():
            lo, hi = max(0, -o), min(size, size - o)
            mirror = diags[-o][lo + o:hi + o].conj() if -o in diags else 0.0
            both = lower[lo:hi] & lower[lo + o:hi + o]
            defect = max(defect, float(np.abs(d[lo:hi] - mirror)[both].max(initial=0.0)))
        defect /= scale
        if defect > 1e-8:
            raise ModelValidationError(
                "hamiltonian is not Hermitian on the truncated space "
                f"(adjointness defect {defect:.3g} at t={t})")


@np.errstate(over="ignore", invalid="ignore")  # non-finite elements are reported, not warned
def _check_lindblads(texts, lindblads, freedoms):
    """Every L_j, and the L_j+ L_j that h_eff adds, has finite diagonals.

    A failure names L_j by number and text.  L_j+ L_j is compiled on its
    own, not h_eff, which would be a larger compile than H's at build.
    """
    for j, (text, l_expr) in enumerate(zip(texts, lindblads), start=1):
        name = f"lindblad {j} ({text})"
        for label, expr in ((name, l_expr), (f"L+L of {name}", l_expr.hc() * l_expr)):
            for _ in _finite_diagonals(label, expr, freedoms):
                pass  # the generator raises at the first time that fails


def build_model(mf: ModelFile, out_dir: str = None):
    """Build a parsed model's (ModelOperators, psi0, RunConfig, OutputSpec)."""
    hamiltonian, lindblads, output_ops = mf.lowered
    model = ModelOperators(hamiltonian, lindblads)

    parts = [_initial_state(decl, fdecl)
             for decl, fdecl in zip(mf.initial, mf.freedoms)]
    # the checks read only the basis, so they run before the product state exists
    freedoms = [fr for part in parts for fr in part.freedoms]
    if hamiltonian is not None:
        _check_hermitian(hamiltonian, freedoms)
    _check_lindblads(mf.lindblads, lindblads, freedoms)
    psi0 = product_state(parts)

    run = mf.run_dict()
    moving = None
    if "moving" in run:
        moving = MovingBasisParams(
            n_moving=run["moving"],
            cutoff_epsilon=run["cutoff_epsilon"],
            pad_size=run["pad"],
            shift_accuracy=run["shift_accuracy"])
        try:
            _validate_moving(moving, psi0.freedoms)
        except ValueError as err:
            raise ModelValidationError(str(err)) from None
    cfg = RunConfig(
        dt=run["dt"], numdts=run["numdts"], numsteps=run["numsteps"],
        n_trajectories=run["trajectories"], seed=run["seed"],
        unraveling=Unraveling(run["unraveling"]),
        integrator=IntegratorConfig(run["integrator"], run["eps"]),
        moving=moving)

    names = tuple(os.path.join(out_dir, fname) if out_dir else fname
                  for fname, _ in mf.outputs)
    outspec = OutputSpec(output_ops, names, run["pipe"])
    return model, psi0, cfg, outspec


def load_model(path: str, out_dir: str = None):
    """Read, parse and build a model file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    mf = parse_model(text)
    return (mf,) + build_model(mf, out_dir=out_dir)


# ---------------------------------------------------------------------------
# Canonical echo


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return _fmt(z.real)
    if z.real == 0:
        return _fmt(z.imag) + "i"
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)} {sign} {_fmt(abs(z.imag))}i"


def print_model(mf: ModelFile) -> str:
    """Stable normalized text form; parsing it again reproduces the model."""
    out = ["freedoms:"]
    for d in mf.freedoms:
        dim = "" if d.ptype is SPIN else f" {d.dim}"
        out.append(f"  {d.name} {d.ptype.value}{dim}")
    if mf.params:
        out.append("")
        out.append("params:")
        for name, text in mf.params:
            out.append(f"  {name} = {text}")
    if mf.hamiltonian is not None:
        out.append("")
        out.append("hamiltonian:")
        out.append(f"  {mf.hamiltonian}")
    if mf.lindblads:
        out.append("")
        out.append("lindblads:")
        for text in mf.lindblads:
            out.append(f"  {text}")
    out.append("")
    out.append("initial:")
    for decl in mf.initial:
        fmt = str if _INITIAL_CTORS[decl.ctor][1] == "int" else _fmt_complex
        args = ", ".join(map(fmt, decl.args))
        out.append(f"  {decl.freedom} {decl.ctor} {args}".rstrip())
    out.append("")
    out.append("output:")
    for fname, text in mf.outputs:
        out.append(f"  {fname} {text}")
    out.append("")
    out.append("run:")
    for key, val in mf.run:
        out.append(f"  {key} = {_run_text(key, val)}")
    return "\n".join(out) + "\n"
