"""Expression language for user-supplied nonlinearities.

Grammar (EBNF)::

    expr   = term , { ("+" | "-") , term } ;
    term   = unary , { ("*" | "/") , unary } ;
    unary  = "-" , unary | power ;
    power  = atom , [ "^" , unary ] ;
    atom   = NUMBER | VARIABLE | FUNCTION , "(" , expr , { "," , expr } , ")"
           | "(" , expr , ")" ;

"+", "-", "*", "/" are left associative, "^" is right associative and binds
tighter than unary minus (so ``-y^2`` means ``-(y^2)``).  There is no implicit
multiplication.  Variables are exactly ``t``, ``y`` and ``yp`` (the solver
binds the state value to ``y`` and the state derivative to ``yp``).  The
supported functions are ``exp``, ``sqrt``, ``abs``, ``atan``, ``sin``,
``cos``, ``log`` (one argument) and ``min``, ``max`` (two arguments).

Operands nest (in parentheses, function arguments, unary minus and the
right of "^") at most ``MAX_DEPTH`` = 100 levels deep, and trees are at most
that deep.  Parsing is total: any input yields either an :class:`Expr` or a
:class:`ParseError` carrying the character offset of the problem.
Evaluation is pure; domain violations (square root or logarithm of a
negative number, division by zero) and non-finite results raise
:class:`EvalError`.

An expression is compiled once, at its first evaluation, into a flat tape
of numpy ufunc calls over a stack of registers.  The tape computes every
node with the same operation as a walk of the tree, so results are the same
bit for bit.  Evaluation runs in a :class:`Workspace`: a block of registers
for fixed points ``t``, laid out once for the expressions it serves, which
also keeps each expression's subtrees that read only ``t``.  Given one,
repeated evaluations at those points allocate no point-sized array, and a
result stays valid until the workspace's next evaluation; without one,
:meth:`Expr.eval_array` builds a workspace for the call.
"""
from __future__ import annotations

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
    "SamplingPlan",
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

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Bin:
    op: str
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Node", ...]


Node = Union[Num, Var, Neg, Bin, Call]


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


def _op(node: Node) -> tuple:
    """The ufunc of an operator node and its operand nodes."""
    if isinstance(node, Neg):
        return np.negative, (node.operand,)
    if isinstance(node, Bin):
        return _BINARY[node.op], (node.lhs, node.rhs)
    return FUNCTIONS[node.func][1], node.args


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

    Each operator node becomes one instruction ``ufunc, a, b, out`` over a
    slot list ``[t, y, yp, fixed..., registers last to first]``; ``b`` is
    None for one-argument functions.  Every node runs the ufunc the tree
    names on the operands the tree gives it, so results equal a recursive
    evaluation bit for bit.  Constant-only subtrees are folded here on 0-d
    arrays; a fold that faults is kept in ``const_error`` and raised at every
    evaluation.  The largest subtrees that read ``t`` and no state variable
    run first, as ``t_ops``, into hoisted rows that fixed points can keep;
    ``ops`` computes the rest.  ``fixed`` holds the constants and a None per
    hoisted row, in emission order.  The registers are a stack: a node
    writes register ``depth``, the number of operands to its left still in
    registers, and the result is register 0.  A hoisted subtree starts its
    own stack at 0, as ``t_ops`` all run before ``ops``.
    """

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
            self.ops += (np.positive, ref, None, -1)
            self.n_regs = max(self.n_regs, 1)
        # one flat tuple per phase keeps the tapes of a large problem set small;
        # register k, emitted as -1 - k, gets its index >= 0, which lists read faster
        size = 3 + len(self.fixed) + self.n_regs
        self.t_ops, self.ops = (tuple(size + x if type(x) is int and x < 0 else x for x in code)
                                for code in (self.t_ops, self.ops))

    def _emit(self, node: Node, depth: int, hoist: bool) -> int:
        """Emit the instructions of ``node`` at stack ``depth``; return the slot of its value."""
        if isinstance(node, Var):
            return VARIABLES.index(node.name)
        uses = _uses(node, self._uses)
        if not uses:
            try:
                value = _fold(node)
            except FloatingPointError as err:
                self.const_error = self.const_error or str(err)
                value = np.asarray(0.0)
            self.fixed.append(value[()])  # a numpy scalar: the same operand, less memory
            return 2 + len(self.fixed)
        t_only = uses == _T_ONLY
        hoisted = t_only and hoist
        fn, children = _op(node)
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
        (self.t_ops if t_only else self.ops).extend((fn, a, b, out))
        return out


# Folding keeps a constant operand a scalar, as in a tree walk: numpy's power
# takes its fast paths (sqrt for 0.5, square for 2, reciprocal for -1) only for
# a scalar exponent, so t^(1/2) with an array exponent differs in the last bit.
def _fold(node: Node):
    """Value of a constant-only subtree, computed on 0-d arrays."""
    if isinstance(node, Num):
        return np.asarray(node.value)
    fn, children = _op(node)
    return fn(*(_fold(c) for c in children))


def _run(code: tuple, slots: list) -> None:
    it = iter(code)
    for fn, a, b, o in zip(it, it, it, it):
        if b is None:
            fn(slots[a], out=slots[o])
        else:
            fn(slots[a], slots[b], out=slots[o])


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

_OPS = set("+-*/^(),")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples; kinds: num, ident, op, end."""
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            tokens.append(("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


MAX_DEPTH = 100  # bound on the parser's nesting and on the tree's depth


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.nesting = 0
        # subtree depth by node identity; no tree of MAX_DEPTH tokens or fewer is deeper
        self.depth = {} if len(self.tokens) > MAX_DEPTH else None

    def node(self, node: Node, offset: int) -> Node:
        """Record the depth of a new operator node; refuse one deeper than MAX_DEPTH."""
        if self.depth is not None:
            depth = self.depth[id(node)] = 1 + max(self.depth.get(id(c), 0) for c in _op(node)[1])
            if depth > MAX_DEPTH:
                raise ParseError(f"expression deeper than {MAX_DEPTH} operations", offset)
        return node

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        self.next()

    def parse(self) -> Node:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = self.node(Bin(text, node, self.term()), offset)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = self.node(Bin(text, node, self.unary()), offset)
            else:
                return node

    def unary(self) -> Node:
        kind, text, offset = self.peek()
        if self.nesting > MAX_DEPTH:  # every nested operand passes here
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", offset)
        self.nesting += 1
        if kind == "op" and text == "-":
            self.next()
            node = self.node(Neg(self.unary()), offset)
        else:
            node = self.power()
        self.nesting -= 1
        return node

    def power(self) -> Node:
        base = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return self.node(Bin("^", base, self.unary()), offset)  # right associative
        return base

    def atom(self) -> Node:
        kind, text, offset = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in VARIABLES:
                return Var(text)
            if text in FUNCTIONS:
                arity = FUNCTIONS[text][0]
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k, t2, _ = self.peek()
                    if k == "op" and t2 == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != arity:
                    raise ParseError(
                        f"{text} expects {arity} argument(s), got {len(args)}", offset
                    )
                return self.node(Call(text, tuple(args)), offset)
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = text if text else "end of input"
        raise ParseError(f"expected a value, found {shown!r}", offset)


def parse(src: str) -> Expr:
    """Parse source text into an :class:`Expr`; errors carry the offset."""
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    return Expr(_Parser(src).parse())


# ---------------------------------------------------------------------------
# Printer (inverse of parse up to tree identity)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, Bin):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def _print(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
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
class SamplingPlan:
    """Lattice over [0,1] x [0,bound]^2 used to probe an expression's sign."""

    bound: float = 10.0
    n_t: int = 10
    n_y: int = 10
    n_yp: int = 10

    def __post_init__(self) -> None:
        if self.bound <= 0 or min(self.n_t, self.n_y, self.n_yp) < 2:
            raise ValueError("bound must be positive and each axis needs >= 2 samples")


@dataclass(frozen=True)
class NonnegativityReport:
    min_value: float
    argmin: tuple[float, float, float]
    violation: bool
    samples: int


def check_nonnegative_sampled(e: Expr, plan: SamplingPlan = SamplingPlan()) -> NonnegativityReport:
    """Scan the sampling lattice; reports the minimum value and its location.

    A negative minimum flags a violation.  Evaluation faults are re-raised as
    :class:`EvalError` annotated with the offending sample coordinates.
    """
    tg = np.linspace(0.0, 1.0, plan.n_t)
    yg = np.linspace(0.0, plan.bound, plan.n_y)
    pg = np.linspace(0.0, plan.bound, plan.n_yp)
    T, Y, P = (a.ravel() for a in np.meshgrid(tg, yg, pg, indexing="ij"))
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
