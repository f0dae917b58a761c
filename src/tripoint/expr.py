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

Parsing is total: any input yields either an :class:`Expr` or a
:class:`ParseError` carrying the character offset of the problem.  Evaluation
is pure; domain violations (square root or logarithm of a negative number,
division by zero) and non-finite results raise :class:`EvalError`.

An expression is compiled once, at its first evaluation, into a flat tape
of numpy ufunc calls that write into reusable registers.  The tape computes
every node with the same operation as a walk of the tree, so results are
the same bit for bit.  :meth:`Expr.eval_array` returns a fresh array unless
it is given a :class:`Workspace`.  A workspace is bound to one fixed point
set ``t`` and holds the registers, and the values of the subtrees that read
only ``t``, so repeated evaluations at those points allocate no
point-sized array.  A result returned through a workspace stays valid until
the workspace's next evaluation.
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
    "VARIABLES",
    "FUNCTIONS",
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

    def __call__(self, t: float, y: float, yp: float) -> float:
        return evaluate(self, t, y, yp)

    @cached_property
    def _tape(self) -> _Tape:
        return _Tape(self.root)

    def eval_array(self, t, y, yp, work: Optional[Workspace] = None) -> np.ndarray:
        """Vectorized evaluation over broadcastable numpy arrays.

        Without ``work`` the result is a fresh array of the broadcast shape.
        With ``work``, ``t`` must be the workspace's own points and ``y``,
        ``yp`` arrays of their shape; the result is one of the workspace's
        registers, valid until its next evaluation, and the caller may
        overwrite it.
        """
        tape = self._tape
        if work is None:
            t, y, yp = np.broadcast_arrays(
                np.asarray(t, float), np.asarray(y, float), np.asarray(yp, float)
            )
            fresh = (np.empty(t.shape) for _ in range(tape.n_hoisted + tape.n_regs))
            slots = [t, y, yp, *tape.consts, *fresh]
            hoisted_ready = False
        else:
            y, yp = np.asarray(y, float), np.asarray(yp, float)
            if t is not work.t or y.shape != t.shape or yp.shape != t.shape:
                raise ValueError("work is bound to other points, or y, yp do not match them")
            slots = work.slots(tape, y, yp)
            hoisted_ready = tape in work.ready
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                if tape.const_error is not None:
                    raise FloatingPointError(tape.const_error)
                if not hoisted_ready:
                    _run(tape.t_ops, slots)
                    if work is not None:
                        work.ready.add(tape)
                _run(tape.ops, slots)
            except FloatingPointError as err:
                raise EvalError(f"domain error while evaluating expression: {err}") from err
        out = slots[tape.result]
        if not np.all(np.isfinite(out)):
            raise EvalError("expression produced a non-finite value")
        return out

    def __str__(self) -> str:
        return to_source(self)


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _copy(a, out):
    np.copyto(out, a)


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
        if isinstance(node, Var):
            mask = 1 << VARIABLES.index(node.name)
        elif isinstance(node, Num):
            mask = 0
        else:
            mask = 0
            for c in _op(node)[1]:
                mask |= _uses(c, memo)
        memo[key] = mask
    return mask


class _Tape:
    """A flat post-order program for one expression tree.

    Each operator node becomes one instruction ``ufunc, a, b, out`` over a
    slot list ``[t, y, yp, constants..., hoisted..., registers...]``; ``b``
    is None for one-argument functions.  Every node runs the ufunc the tree
    names on the operands the tree gives it, so results equal a recursive
    evaluation bit for bit.  Constant-only subtrees are folded here on 0-d
    arrays; a fold that faults is kept in ``const_error`` and raised at every
    evaluation.  The largest subtrees that read ``t`` and no state variable
    run first, as ``t_ops``, into "hoisted" slots, so that evaluation at
    fixed points can keep their values; ``ops`` computes the rest.  An
    instruction's output register is one an operand has just released where
    possible, so registers are reused by liveness; inputs, constants and
    hoisted slots are never written by ``ops``.
    """

    def __init__(self, root: Node):
        self.consts: list = []
        self.const_error: Optional[str] = None
        self.t_ops = []
        self.ops = []
        self.n_hoisted = 0
        self.n_regs = 0
        # free registers and register count, per phase (t_ops, ops)
        self._free: dict = {True: [], False: []}
        self._top = {True: 0, False: 0}
        self._uses: dict = {}
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            ref = self._emit(root, True)
        if ref[0] != "r":
            # the result must be a register the caller owns
            out = self._alloc(False)
            self.ops.append((_copy, ref, None, out))
            ref = out
        del self._free, self._top, self._uses
        # number the slots: inputs, constants, hoisted values, registers
        base = {"v": 0, "c": 3, "h": 3 + len(self.consts),
                "r": 3 + len(self.consts) + self.n_hoisted}

        def flat(code):
            # one flat tuple per phase keeps the tapes of a large problem set small
            return tuple(x for ins in code for x in (ins[0], *map(index, ins[1:])))

        def index(r):
            return None if r is None else base[r[0]] + r[1]

        self.t_ops, self.ops, self.result = flat(self.t_ops), flat(self.ops), index(ref)

    def _alloc(self, t_phase: bool) -> tuple:
        free = self._free[t_phase]
        if free:
            return free.pop()
        ref = ("r", self._top[t_phase])
        self._top[t_phase] += 1
        self.n_regs = max(self.n_regs, self._top[t_phase])
        return ref

    def _release(self, ref: tuple, t_phase: bool) -> None:
        if ref[0] == "r":
            self._free[t_phase].append(ref)

    def _emit(self, node: Node, hoist: bool) -> tuple:
        """Emit the instructions of ``node``; return the slot reference of its value."""
        if isinstance(node, Var):
            return ("v", VARIABLES.index(node.name))
        uses = _uses(node, self._uses)
        if not uses:
            try:
                value = _fold(node)
            except FloatingPointError as err:
                self.const_error = self.const_error or str(err)
                value = np.asarray(0.0)
            self.consts.append(value[()])  # a numpy scalar: the same operand, less memory
            return ("c", len(self.consts) - 1)
        t_only = uses == _T_ONLY
        fn, children = _op(node)
        # children of a node that reads the state hoist their t-only parts
        refs = [self._emit(c, not t_only) for c in children]
        for r in refs:
            self._release(r, t_only)
        if t_only and hoist:
            out = ("h", self.n_hoisted)
            self.n_hoisted += 1
        else:
            out = self._alloc(t_only)
        a, b = refs if len(refs) == 2 else (refs[0], None)
        (self.t_ops if t_only else self.ops).append((fn, a, b, out))
        return out


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
    """Registers for repeated evaluation at one fixed set of points ``t``.

    An owner such as the moment operator of a solve builds one and passes it
    as ``work`` to :meth:`Expr.eval_array`.  The registers shared by its
    expressions, and the values of each expression's t-only subtrees, are
    rows of t's size in one float block: ``rows`` from the owner, sized by
    :meth:`rows_for` for the ``sources`` it will evaluate, or a block of
    the workspace's own.  An expression it was not sized for moves the
    rows to a larger block of its own at that expression's first
    evaluation.  The t-only values are computed at an expression's first
    successful evaluation and reused afterwards.  A result returned through
    the workspace is one of its registers and is overwritten by the next
    evaluation.
    """

    def __init__(self, t: np.ndarray, sources=(), rows: Optional[np.ndarray] = None):
        self.t = t
        self.ready: set = set()
        self._slots: dict = {}
        self._hoisted_row: dict = {}
        self._n_hoisted = 0
        self._n_regs = 0
        for e in sources:
            self._place(e._tape)
        shape = (self._n_regs + self._n_hoisted, t.size)
        if rows is None:
            rows = np.empty(shape)
        elif rows.shape != shape:
            raise ValueError(f"the sources need rows of shape {shape}, got {rows.shape}")
        self._block = rows

    @staticmethod
    def rows_for(sources) -> int:
        """Number of rows a workspace for ``sources`` holds."""
        return len(Workspace(np.empty(0), sources)._block)

    def _place(self, tape: _Tape) -> None:
        if tape not in self._hoisted_row:
            self._hoisted_row[tape] = self._n_hoisted
            self._n_hoisted += tape.n_hoisted
        self._n_regs = max(self._n_regs, tape.n_regs)

    def slots(self, tape: _Tape, y, yp) -> list:
        """The slot list of ``tape`` over these rows, with y and yp bound."""
        slots = self._slots.get(tape)
        if slots is None:
            n_regs, n_hoisted = self._n_regs, self._n_hoisted
            self._place(tape)
            if (self._n_regs, self._n_hoisted) != (n_regs, n_hoisted):
                old = self._block
                self._block = np.empty((self._n_regs + self._n_hoisted, self.t.size))
                self._block[self._n_regs : self._n_regs + n_hoisted] = old[n_regs:]
                self._slots.clear()
            rows = list(self._block.reshape((-1,) + self.t.shape))
            first = self._n_regs + self._hoisted_row[tape]
            slots = [self.t, None, None, *tape.consts,
                     *rows[first : first + tape.n_hoisted], *rows[: tape.n_regs]]
            self._slots[tape] = slots
        slots[1], slots[2] = y, yp
        return slots


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


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

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
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = Bin(text, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = Bin(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return Bin("^", base, self.unary())  # right associative
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
                return Call(text, tuple(args))
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
