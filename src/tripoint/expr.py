"""Expression language for user-supplied nonlinearities.

Grammar (EBNF)::

    expr   = term , { ("+" | "-") , term } ;
    term   = unary , { ("*" | "/") , unary } ;
    unary  = "-" , unary | power ;
    power  = atom , [ "^" , unary ] ;
    atom   = NUMBER | VARIABLE | FUNCTION , "(" , expr , { "," , expr } , ")"
           | "(" , expr , ")" ;

A NUMBER is a run of decimal digits and "." with an optional exponent
(``e`` or ``E``, an optional sign, digits); a name is a run of word
characters that does not start with a digit; any whitespace separates
tokens.  "+", "-", "*", "/" are left associative, "^" is right associative
and binds tighter than unary minus (so ``-y^2`` means ``-(y^2)``).  There is
no implicit multiplication.  Variables are exactly ``t``, ``y`` and ``yp``
(the solver binds the state value to ``y`` and the state derivative to
``yp``).  The supported functions are ``exp``, ``sqrt``, ``abs``, ``atan``,
``sin``, ``cos``, ``log`` (one argument) and ``min``, ``max`` (two
arguments).

Operands nest (in parentheses, function arguments, unary minus and the
right of "^") at most ``MAX_DEPTH`` = 100 levels deep, and trees are at most
that deep.  Parsing is total: any input yields either an :class:`Expr` or a
:class:`ParseError` carrying the character offset of the problem.
Evaluation is pure; domain violations (square root or logarithm of a
negative number, division by zero) and non-finite results raise
:class:`EvalError`.

The tree's nodes are frozen slotted dataclasses, equal and hashable by their
fields; every parse shares one :class:`Var` leaf per variable name, and
within a parse one :class:`Num` leaf serves each spelling of a number.

An expression is compiled once, at its first evaluation, into a tape: a
flat array of small integers, each instruction a numpy ufunc's code and its
operands' slots, over a stack of registers.  The tape computes every node
with the same operation as a walk of the tree, so results are the same bit
for bit; its constants are Python floats.  Evaluation runs in a
:class:`Workspace`: a block of registers for fixed points ``t``, laid out
once for the expressions it serves, which also keeps each expression's
subtrees that read only ``t``.  Given one, repeated evaluations at those
points allocate no point-sized array, and a result stays valid until the
workspace's next evaluation; without one, :meth:`Expr.eval_array` builds a
workspace for the call.
"""
from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

__all__ = [
    "Expr",
    "ParseError",
    "EvalError",
    "parse",
    "evaluate",
    "to_source",
    "NonnegativityReport",
    "check_nonnegative_sampled",
]

VARIABLES = ("t", "y", "yp")

#: function name -> (arity, numpy ufunc)
FUNCTIONS = {
    "exp": (1, np.exp),
    "sqrt": (1, np.sqrt),
    "abs": (1, np.abs),
    "atan": (1, np.arctan),
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "log": (1, np.log),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


class ParseError(ValueError):
    """Syntax or name error, positioned at a character offset of the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ArithmeticError):
    """Domain violation or non-finite result during evaluation."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

# Slotted nodes carry no instance dict: a sweep may hold a thousand parsed
# sources of ~50 nodes each for its whole run.

@dataclass(frozen=True, slots=True)
class Num:
    """Number literal; the parser's are nonnegative."""

    value: float


@dataclass(frozen=True, slots=True)
class Var:
    """Variable leaf; the parser shares one per name, from ``_VARS``."""

    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    """Unary minus."""

    operand: "Node"


@dataclass(frozen=True, slots=True)
class Bin:
    """Binary operator ``op``, one of ``+ - * / ^``."""

    op: str
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True, slots=True)
class Call:
    """Call of a function in :data:`FUNCTIONS`."""

    func: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, Bin, Call]

_VARS = {name: Var(name) for name in VARIABLES}  # the leaves every parse shares


@dataclass(frozen=True)
class Expr:
    """Parsed expression; immutable, evaluation has no side effects."""

    root: Node

    @cached_property
    def _tape(self) -> _Tape:
        return _Tape(self.root)

    def eval_array(self, t, y, yp, work: Optional[Workspace] = None) -> np.ndarray:
        """Vectorized evaluation over broadcastable numpy arrays.

        Without ``work`` the arguments are broadcast and evaluated in a
        workspace of their own, so the result is a fresh array.  ``work``
        must be built for this expression, ``t`` must be its points and
        ``y``, ``yp`` arrays of their shape; the result is one of its
        registers, valid until its next evaluation, and the caller may
        overwrite it.
        """
        tape = self._tape
        if work is None:
            t, y, yp = np.broadcast_arrays(
                np.asarray(t, float), np.asarray(y, float), np.asarray(yp, float)
            )
            work = Workspace(t, (self,))
        y, yp = np.asarray(y, float), np.asarray(yp, float)
        slots = work.slots.get(tape)
        if slots is None or t is not work.t or y.shape != t.shape or yp.shape != t.shape:
            raise ValueError("work was not built for this expression at these points and shapes")
        slots[1], slots[2] = y, yp
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                if tape.const_error is not None:
                    raise FloatingPointError(tape.const_error)
                if tape not in work.ready:
                    _run(tape.t_ops, slots)
                    work.ready.add(tape)
                _run(tape.ops, slots)
            except FloatingPointError as err:
                raise EvalError(f"domain error while evaluating expression: {err}") from err
        out = slots[-1]  # register 0
        if not np.isfinite(out).all():
            raise EvalError("expression produced a non-finite value")
        return out

    def __str__(self) -> str:
        return to_source(self)


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}

# the ufuncs a tape calls, by code, and the code of each operator, function, "neg" and "pos"
_UFUNCS = (*_BINARY.values(), *(fn for _, fn in FUNCTIONS.values()), np.negative, np.positive)
_CODES = {key: code for code, key in enumerate((*_BINARY, *FUNCTIONS, "neg", "pos"))}


def _op(node: Node) -> tuple:
    """The ufunc code of an operator node and its operand nodes."""
    if isinstance(node, Neg):
        return _CODES["neg"], (node.operand,)
    if isinstance(node, Bin):
        return _CODES[node.op], (node.lhs, node.rhs)
    return _CODES[node.func], node.args


_T_ONLY = 1  # bit of t in the masks of _uses; y and yp follow


def _uses(node: Node, memo: dict) -> int:
    """Bit mask of the variables a subtree reads, memoised by node identity."""
    key = id(node)
    mask = memo.get(key)
    if mask is None:
        mask = 1 << VARIABLES.index(node.name) if isinstance(node, Var) else 0
        if isinstance(node, (Neg, Bin, Call)):
            for c in _op(node)[1]:
                mask |= _uses(c, memo)
        memo[key] = mask
    return mask


class _Tape:
    """A flat post-order program for one expression tree.

    Each operator node becomes one instruction ``code, a, b, out``, where
    ``code`` picks the ufunc from ``_UFUNCS`` and the slots index the list
    ``[t, y, yp, fixed..., registers last to first]``; ``b`` is the list's
    size for one-argument functions.  Each phase's instructions are one
    ``array`` of the smallest unsigned typecode that holds that size.  Every
    node runs the ufunc the tree names on the operands the tree gives it, so
    results equal a recursive evaluation bit for bit.  Constant-only subtrees
    are folded here on 0-d arrays and kept as Python floats (a literal as its
    own value); a fold that faults is kept in ``const_error`` and raised at
    every evaluation.  The largest subtrees that read ``t`` and no state
    variable run first, as ``t_ops``, into hoisted rows that fixed points can
    keep; ``ops`` computes the rest.  The tuple ``fixed`` holds the constants
    and a None per hoisted row, in emission order.  The registers are a
    stack: a node writes register ``depth``, the number of operands to its
    left still in registers, and the result is register 0.  A hoisted subtree
    starts its own stack at 0, as ``t_ops`` all run before ``ops``.
    """

    # a sweep may hold a thousand compiled sources for its whole run
    __slots__ = ("fixed", "const_error", "t_ops", "ops", "n_hoisted", "n_regs", "_uses")

    def __init__(self, root: Node):
        self.fixed: list = []
        self.const_error: Optional[str] = None
        self.t_ops, self.ops = [], []
        self.n_hoisted = self.n_regs = 0
        self._uses: dict = {}
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            ref = self._emit(root, 0, True)
        del self._uses
        if ref >= 0:
            # the result must be a register the caller owns; positive copies it
            self.ops += (_CODES["pos"], ref, None, -1)
            self.n_regs = max(self.n_regs, 1)
        # register k, emitted as -1 - k, gets its index >= 0, which lists read faster,
        # and a missing second operand the slot count
        size = 3 + len(self.fixed) + self.n_regs
        typecode = "B" if size < 255 else "H" if size < 65535 else "I"
        self.t_ops, self.ops = (array(typecode, [size if x is None else size + x if x < 0 else x
                                                 for x in ops]) for ops in (self.t_ops, self.ops))
        self.fixed = tuple(self.fixed)

    def _emit(self, node: Node, depth: int, hoist: bool) -> int:
        """Emit the instructions of ``node`` at stack ``depth``; return the slot of its value."""
        if isinstance(node, Var):
            return VARIABLES.index(node.name)
        uses = _uses(node, self._uses)
        if not uses:
            # a Python float is the same operand to a ufunc as a float64 scalar, in
            # less memory; a literal's is its own value object
            try:
                value = node.value if isinstance(node, Num) else float(_fold(node))
            except FloatingPointError as err:
                self.const_error = self.const_error or str(err)
                value = 0.0
            self.fixed.append(value)
            return 2 + len(self.fixed)
        t_only = uses == _T_ONLY
        hoisted = t_only and hoist
        code, children = _op(node)
        refs, d = [], 0 if hoisted else depth
        for c in children:
            # children of a node that reads the state hoist their t-only parts
            refs.append(self._emit(c, d, not t_only))
            d += refs[-1] < 0
        if hoisted:
            self.fixed.append(None)
            self.n_hoisted += 1
            out = 2 + len(self.fixed)
        else:
            out = -1 - depth
            self.n_regs = max(self.n_regs, depth + 1)
        a, b = refs if len(refs) == 2 else (refs[0], None)
        (self.t_ops if t_only else self.ops).extend((code, a, b, out))
        return out


# Folding keeps a constant operand a scalar, as in a tree walk: numpy's power
# takes its fast paths (sqrt for 0.5, square for 2, reciprocal for -1) only for
# a scalar exponent, so t^(1/2) with an array exponent differs in the last bit.
def _fold(node: Node):
    """Value of a constant-only subtree, computed on 0-d arrays."""
    if isinstance(node, Num):
        return np.asarray(node.value)
    code, children = _op(node)
    return _UFUNCS[code](*(_fold(c) for c in children))


def _run(code: array, slots: list) -> None:
    ufuncs, unary = _UFUNCS, len(slots)
    it = iter(code)
    for f, a, b, o in zip(it, it, it, it):
        if b == unary:
            ufuncs[f](slots[a], out=slots[o])
        else:
            ufuncs[f](slots[a], slots[b], out=slots[o])


class Workspace:
    """Registers for repeated evaluation of ``sources`` at fixed points ``t``.

    An owner such as the moment operator of a solve builds one and passes it
    as ``work`` to :meth:`Expr.eval_array`.  Its rows, each of t's size, are
    laid out once, in the owner's ``rows`` block sized by :meth:`rows_for`
    or in arrays of its own: first the registers the sources share, as many
    as the largest needs, then each source's hoisted rows, which keep its
    t-only values from its first successful evaluation on.  Other
    expressions raise :class:`ValueError`.  A result is one of the
    registers, overwritten by the next evaluation.
    """

    def __init__(self, t: np.ndarray, sources, rows: Optional[np.ndarray] = None):
        self.t = t
        self.ready: set = set()
        shape = (self.rows_for(sources), t.size)
        if rows is None:
            # one array per row: a freed block this size can be trimmed off the heap top
            rows = [np.empty(t.shape) for _ in range(shape[0])]
        elif rows.shape != shape:
            raise ValueError(f"the sources need rows of shape {shape}, got {rows.shape}")
        else:
            rows = list(rows.reshape(shape[:1] + t.shape))
        self.slots: dict = {}  # tape -> its slot list over these rows
        at = max((e._tape.n_regs for e in sources), default=0)
        for tape in dict.fromkeys(e._tape for e in sources):
            hoisted = iter(rows[at : at + tape.n_hoisted])
            fixed = (next(hoisted) if c is None else c for c in tape.fixed)
            self.slots[tape] = [t, None, None, *fixed, *reversed(rows[: tape.n_regs])]
            at += tape.n_hoisted

    @staticmethod
    def rows_for(sources) -> int:
        """Number of rows a workspace for ``sources`` holds."""
        tapes = {e._tape for e in sources}
        return max((tp.n_regs for tp in tapes), default=0) + sum(tp.n_hoisted for tp in tapes)


def evaluate(e: Expr, t: float, y: float, yp: float) -> float:
    """Evaluate at a single point; raises :class:`EvalError` on domain faults."""
    return float(e.eval_array(t, y, yp))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# \d, \w and \s match str.isdecimal, str.isalnum (or "_") and str.isspace; a
# number takes an exponent only when digits follow it
_TOKEN = re.compile(r"([\d.]+(?:[eE][+-]?\d+)?)|([^\W\d]\w*)|([-+*/^(),])|(\S)")

MAX_DEPTH = 100  # bound on the parser's nesting and on the tree's depth

# precedence, read by the parser's loop over + - * / and by the printer
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


class _Parser:
    """Recursive descent over ``(number, name, operator, other)`` token tuples.

    Each token fills one field, and an empty token ends the list.  Every step
    returns ``(node, depth)``.  A token's character offset is looked up only
    for an error.
    """

    def __init__(self, src: str):
        self.src = src
        self.tokens = _TOKEN.findall(src) + [("", "", "", "")]
        self.pos = 0
        self.nesting = 0
        self.nums: dict = {}  # spelling -> the one Num leaf of this parse

    def error(self, message: str, at: int) -> ParseError:
        """``message`` positioned at the offset of token ``at``."""
        offsets = [m.start() for m in _TOKEN.finditer(self.src)] + [len(self.src)]
        return ParseError(message, offsets[at])

    def operator(self, node: Node, below: int, at: int) -> tuple[Node, int]:
        """An operator node over operands at most ``below`` deep, and its depth."""
        if below >= MAX_DEPTH:
            raise self.error(f"expression deeper than {MAX_DEPTH} operations", at)
        return node, below + 1

    def expect(self, op: str) -> None:
        if self.tokens[self.pos][2] != op:
            raise self.error(f"expected {op!r}", self.pos)
        self.pos += 1

    def binary(self, lowest: int = 1) -> tuple[Node, int]:
        """Operands joined by the left-associative ``+ - * /`` of precedence ``lowest`` or more."""
        node, depth = self.unary()
        while (op := self.tokens[self.pos][2]) and op in "+-*/" and _PREC[op] >= lowest:
            at = self.pos
            self.pos += 1
            rhs, below = self.binary(_PREC[op] + 1)
            node, depth = self.operator(Bin(op, node, rhs), max(depth, below), at)
        return node, depth

    def unary(self) -> tuple[Node, int]:
        """``-`` and its operand, or an atom and an optional right-associative ``^`` operand."""
        at = self.pos
        if self.nesting > MAX_DEPTH:  # every nested operand passes here
            raise self.error(f"expression nested deeper than {MAX_DEPTH} levels", at)
        self.nesting += 1
        if self.tokens[at][2] == "-":
            self.pos += 1
            node, depth = self.unary()
            node, depth = self.operator(Neg(node), depth, at)
        else:
            node, depth = self.atom()
            at = self.pos
            if self.tokens[at][2] == "^":
                self.pos += 1
                rhs, below = self.unary()
                node, depth = self.operator(Bin("^", node, rhs), max(depth, below), at)
        self.nesting -= 1
        return node, depth

    def atom(self) -> tuple[Node, int]:
        at = self.pos
        num, name, op, _ = self.tokens[at]
        self.pos += 1
        if num:
            if num not in self.nums:
                self.nums[num] = Num(float(num))
            return self.nums[num], 0
        if name in _VARS:
            return _VARS[name], 0
        if name in FUNCTIONS:
            arity = FUNCTIONS[name][0]
            self.expect("(")
            args = [self.binary()]
            while self.tokens[self.pos][2] == ",":
                self.pos += 1
                args.append(self.binary())
            self.expect(")")
            if len(args) != arity:
                raise self.error(f"{name} expects {arity} argument(s), got {len(args)}", at)
            # the table's own string for the name, not a copy from the source
            node = Call(sys.intern(name), tuple(a for a, _ in args))
            return self.operator(node, max(d for _, d in args), at)
        if name:
            raise self.error(f"unknown identifier {name!r}", at)
        if op == "(":
            node = self.binary()
            self.expect(")")
            return node
        raise self.error(f"expected a value, found {op or 'end of input'!r}", at)


def parse(src: str) -> Expr:
    """Parse source text into an :class:`Expr`; errors carry the offset."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(src)
    try:
        root, _ = parser.binary()
        if parser.pos < len(parser.tokens) - 1:
            num, name, op, _ = parser.tokens[parser.pos]
            raise parser.error(f"unexpected trailing input {num or name or op!r}", parser.pos)
    except ValueError:
        # no step accepts a bad character or number, so an input holding one fails here;
        # as if the tokens were checked before parsing, the first one is the error
        for m in _TOKEN.finditer(src):
            if m[4]:
                raise ParseError(f"unexpected character {m[4]!r}", m.start()) from None
            if m[1]:
                try:
                    float(m[1])
                except ValueError:
                    raise ParseError(f"malformed number {m[1]!r}", m.start()) from None
        raise
    return Expr(root)


# ---------------------------------------------------------------------------
# Printer (inverse of parse up to tree identity)
# ---------------------------------------------------------------------------

def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def _print(node: Node) -> str:
    if isinstance(node, Num):
        # repr gives "inf", which is no number; 1e999 overflows to it when read back
        return "1e999" if node.value == np.inf else repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = _print(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(_print(a) for a in node.args)})"
    my = _PREC[node.op]
    left, right = _print(node.lhs), _print(node.rhs)
    if _prec(node.lhs) < my or (node.op == "^" and _prec(node.lhs) <= my):
        left = f"({left})"
    # left-associative ops need parens around an equal-precedence right child
    if _prec(node.rhs) < my or (node.op != "^" and _prec(node.rhs) == my):
        right = f"({right})"
    return f"{left}{node.op}{right}"


def to_source(e: Expr) -> str:
    """Render the expression; ``parse(to_source(e))`` rebuilds an identical tree.

    Assumes number literals are nonnegative (the parser never produces
    negative ones; negation is an explicit node).
    """
    return _print(e.root)


# ---------------------------------------------------------------------------
# Sampled nonnegativity check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonnegativityReport:
    min_value: float
    argmin: tuple[float, float, float]
    violation: bool
    samples: int


def check_nonnegative_sampled(e: Expr) -> NonnegativityReport:
    """Scan the 10 x 10 x 10 lattice on [0,1] x [0,10]^2 of (t, y, yp) for the
    minimum value and its location.

    A negative minimum flags a violation.  Evaluation faults are re-raised as
    :class:`EvalError` annotated with the offending sample coordinates.
    """
    tg, yg = np.linspace(0.0, 1.0, 10), np.linspace(0.0, 10.0, 10)
    T, Y, P = (a.ravel() for a in np.meshgrid(tg, yg, yg, indexing="ij"))
    try:
        vals = e.eval_array(T, Y, P)
    except EvalError as err:
        t0, y0, p0 = _first_faulting_sample(e, T, Y, P)
        raise EvalError(f"{err} at sample (t={t0:g}, y={y0:g}, yp={p0:g})") from err
    i = int(np.argmin(vals))
    mn = float(vals[i])
    return NonnegativityReport(
        min_value=mn,
        argmin=(float(T[i]), float(Y[i]), float(P[i])),
        violation=mn < 0.0,
        samples=T.size,
    )


def _first_faulting_sample(e: Expr, T, Y, P) -> tuple[float, float, float]:
    for t0, y0, p0 in zip(T, Y, P):
        try:
            evaluate(e, t0, y0, p0)
        except EvalError:
            return float(t0), float(y0), float(p0)
    return float(T[0]), float(Y[0]), float(P[0])
