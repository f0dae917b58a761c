from __future__ import annotations

import copy
import dataclasses
import gc
import math
import pickle
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripoint import (
    EvalError,
    ParseError,
    check_nonnegative_sampled,
    evaluate,
    parse,
    to_source,
)
from tripoint.expr import FUNCTIONS, Bin, Call, Expr, Neg, Num, Var, Workspace, _Tape

from conftest import EXAMPLE_F, EXAMPLE_H
from oracles import eval_tree, parse_reference
from test_solver import _seeded_problem

# (source, (t, y, yp), expected) -- expected values computed by hand or with
# the math module, independently of the evaluator under test
GOLDEN = [
    ("5", (0, 0, 0), 5.0),
    ("0", (0.3, 2, 1), 0.0),
    ("1+2*3", (0, 0, 0), 7.0),
    ("(1+2)*3", (0, 0, 0), 9.0),
    ("2^3^2", (0, 0, 0), 512.0),
    ("(2^3)^2", (0, 0, 0), 64.0),
    ("-2^2", (0, 0, 0), -4.0),
    ("2^-3", (0, 0, 0), 0.125),
    ("2*-3", (0, 0, 0), -6.0),
    ("1-2-3", (0, 0, 0), -4.0),
    ("12/4/3", (0, 0, 0), 1.0),
    ("t+2*y+4*yp", (0.5, 1.5, 0.25), 4.5),
    ("min(3, max(1, 2))", (0, 0, 0), 2.0),
    ("min(t, y)", (0.7, 0.3, 0), 0.3),
    ("abs(0-3.5)", (0, 0, 0), 3.5),
    ("sqrt(2)", (0, 0, 0), math.sqrt(2.0)),
    ("exp(1)", (0, 0, 0), math.e),
    ("log(exp(2))", (0, 0, 0), 2.0),
    ("sin(1)^2+cos(1)^2", (0, 0, 0), 1.0),
    ("atan(1)", (0, 0, 0), math.pi / 4),
    ("1e2+2.5e-1", (0, 0, 0), 100.25),
    (EXAMPLE_F, (0, 0, 0), 1.0),
    (EXAMPLE_F, (1, 0, 4), 2.0 * 3.0),
    (EXAMPLE_F, (0.5, 1, 0.25), 1.25 * (math.exp(-1) + 0.5)),
    (EXAMPLE_H, (0, 0, 0), math.pi / 4),
    (EXAMPLE_H, (0.3, 1, 0), 4.0 * math.atan(1.0)),
    (EXAMPLE_H, (0, 2, 3), 9.0 * math.atan(4.0)),
]


@pytest.mark.parametrize("src,args,expected", GOLDEN)
def test_golden_eval(src, args, expected):
    got = evaluate(parse(src), *args)
    assert got == pytest.approx(expected, rel=1e-14, abs=1e-300)


def test_golden_table_is_large_enough():
    assert len(GOLDEN) >= 20


def test_example_source_parses_to_nontrivial_tree():
    e = parse(EXAMPLE_F)
    assert isinstance(e.root, Bin) and e.root.op == "*"


def test_eval_array_matches_scalar(f_example):
    t = np.linspace(0, 1, 7)
    y = np.linspace(0, 2, 7)
    yp = np.linspace(0, 3, 7)
    arr = f_example.eval_array(t, y, yp)
    for i in range(7):
        assert arr[i] == pytest.approx(evaluate(f_example, t[i], y[i], yp[i]), rel=1e-15)


@pytest.mark.parametrize(
    "src,offset",
    [
        ("1+", 2),
        ("(1", 2),
        ("q+1", 0),
        ("foo(1)", 0),
        ("min(1)", 0),
        ("sin(1,2)", 0),
        ("1 $ 2", 2),
        ("", 0),
        ("1..2", 0),
        ("2 3", 2),
    ],
)
def test_parse_errors_carry_offsets(src, offset):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.offset == offset


@pytest.mark.parametrize(
    "src,args",
    [
        ("sqrt(y-1)", (0, 0, 0)),
        ("log(t)", (0, 0, 0)),
        ("1/t", (0, 0, 0)),
        ("log(0-1)", (0, 0, 0)),
        ("exp(y)", (0, 1e6, 0)),  # overflow -> non-finite
    ],
)
def test_eval_domain_errors(src, args):
    with pytest.raises(EvalError):
        evaluate(parse(src), *args)


# -- round trip ---------------------------------------------------------------

_numbers = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _ast_strategy(variables=("t", "y", "yp")):
    leaves = _numbers.map(Num)
    if variables:
        leaves = st.one_of(leaves, st.sampled_from(variables).map(Var))

    def extend(children):
        unary_calls = st.sampled_from(["exp", "sqrt", "abs", "atan", "sin", "cos", "log"])
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Bin, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
            st.builds(lambda f, a: Call(f, (a,)), unary_calls, children),
            st.builds(lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@settings(max_examples=200)
@given(_ast_strategy())
def test_print_parse_round_trip(root):
    from tripoint.expr import Expr

    e = Expr(root)
    assert parse(to_source(e)) == e


def test_overflowing_literals_print_as_numbers_that_read_back():
    # a literal past the float range is infinity, which repr spells "inf", a name
    e = parse("1e999*y + 2^1e400")
    assert to_source(e) == "1e999*y+2.0^1e999"
    assert parse(to_source(e)) == e


# -- compiled evaluation --------------------------------------------------------

def _state_arrays(seed, n=24):
    # nonnegative samples mixing exact zeros (domain faults), moderate and
    # large values (overflow in exp and ^)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n)
    t[rng.random(n) < 0.15] = 0.0

    def state():
        x = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 800.0, n))
        x[rng.random(n) < 0.15] = 0.0
        return x

    return t, state(), state()


def _outcome(fn):
    try:
        return fn().tobytes()
    except EvalError:
        return EvalError


def _assert_matches_tree_walk(e, t, y, yp, work=None):
    expected = _outcome(lambda: eval_tree(e, t, y, yp))
    assert _outcome(lambda: e.eval_array(t, y, yp, work=work)) == expected


@settings(max_examples=300, deadline=None)
@given(_ast_strategy(), st.integers(0, 2**32 - 1))
# constant exponents: numpy's power rounds a scalar 0.5 and an array of 0.5 differently
@example(parse("t^(1/2)").root, 0)
@example(parse("t^min(1, 0.5)").root, 0)
def test_tape_matches_tree_walk_bitwise(root, seed):
    _assert_matches_tree_walk(Expr(root), *_state_arrays(seed))


@settings(max_examples=300, deadline=None)
@given(_ast_strategy(), st.integers(0, 2**32 - 1))
def test_tape_through_a_reused_workspace_matches_tree_walk(f_example, root, seed):
    t, y, yp = _state_arrays(seed)
    e = Expr(root)
    work = Workspace(t, (f_example, e))
    f_example.eval_array(t, y, yp, work=work)  # another expression fills the registers first
    _assert_matches_tree_walk(e, t, y, yp, work)
    # a second call reuses the t-only values computed by the first
    _assert_matches_tree_walk(e, t, yp, y, work)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ast_strategy(("t",)), _ast_strategy(())), st.integers(0, 2**32 - 1))
def test_t_only_and_constant_trees_match_tree_walk(root, seed):
    t, y, yp = _state_arrays(seed)
    e = Expr(root)
    _assert_matches_tree_walk(e, t, y, yp)
    work = Workspace(t, (e,))
    for _ in range(2):
        _assert_matches_tree_walk(e, t, y, yp, work)
    # scalar and broadcast arguments take the same tape
    _assert_matches_tree_walk(e, t[0], y[0], yp[0])
    _assert_matches_tree_walk(e, t[:, None], y[None, :], 0.5)


def test_workspace_result_is_a_register_the_caller_may_overwrite(f_example):
    t, y, yp = _state_arrays(0)
    work = Workspace(t, (f_example,))
    expected = eval_tree(f_example, t, y, yp)
    out = f_example.eval_array(t, y, yp, work=work)
    out[:] = -1.0
    assert f_example.eval_array(t, y, yp, work=work).tobytes() == expected.tobytes()
    assert not np.shares_memory(out, y) and not np.shares_memory(out, t)
    with pytest.raises(ValueError):
        f_example.eval_array(t.copy(), y, yp, work=work)  # other points than the bound ones


def _balanced_sum(terms):
    # nested halves keep a long sum within the parser's depth limit
    if len(terms) == 1:
        return terms[0]
    half = len(terms) // 2
    return f"({_balanced_sum(terms[:half])})+({_balanced_sum(terms[half:])})"


def test_wide_slot_indices_match_tree_walk():
    # 300 distinct constants need more than 255 slots, so 16-bit slot indices;
    # no benchmark source needs more than ~40 slots
    e = parse(f"sqrt({_balanced_sum([f'{k}.5*y' for k in range(300)])})")
    assert e._tape.ops.typecode == "H" and parse(EXAMPLE_F)._tape.ops.typecode == "B"
    rng = np.random.default_rng(8)
    t, y, yp = rng.uniform(0.0, 1.0, (3, 40))
    _assert_matches_tree_walk(e, t, y, yp)
    _assert_matches_tree_walk(e, t, y, yp, Workspace(t, (parse(EXAMPLE_H), e)))


def test_compiling_leaves_no_reference_cycles():
    roots = [parse(src).root for src in (EXAMPLE_F, EXAMPLE_H, "t^2*(y+1) + sqrt(t)*yp")]
    gc.collect()
    gc.disable()
    try:
        for i in range(100):
            _Tape(roots[i % 3])
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- node layout ------------------------------------------------------------------

def _nodes(node):
    yield node
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, (Num, Var, Neg, Bin, Call)):
                yield from _nodes(child)


def test_nodes_are_slotted_and_frozen():
    nodes = list(_nodes(parse("-t^2 + max(y, 1.5)*yp").root))
    assert {type(n) for n in nodes} == {Num, Var, Neg, Bin, Call}
    for node in nodes:
        assert not hasattr(node, "__dict__")
        field = dataclasses.fields(node)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, getattr(node, field))


def test_parses_share_the_variable_leaves():
    assert parse("y+y").root.lhs is parse("yp*y").root.rhs
    leaves = {name: parse(name).root for name in ("t", "y", "yp")}
    e = parse("t*y + sin(yp) - t")
    assert [n for n in _nodes(e.root) if isinstance(n, Var)] == list(leaves.values()) + [leaves["t"]]
    assert all(n is leaves[n.name] for n in _nodes(e.root) if isinstance(n, Var))
    # equality and hashing are the fields', as before: fresh leaves build an equal tree
    fresh = Expr(Bin("-", Bin("+", Bin("*", Var("t"), Var("y")), Call("sin", (Var("yp"),))), Var("t")))
    assert e == fresh and hash(e) == hash(fresh)
    assert hash(Var("y")) == hash(("y",)) and hash(e.root) == hash(("-", e.root.lhs, e.root.rhs))


def test_a_parse_shares_one_number_leaf_per_spelling():
    e = parse("2*y + 2*t + 2.0 + exp(2)")
    nums = [n for n in _nodes(e.root) if isinstance(n, Num)]
    assert [n.value for n in nums] == [2.0] * 4
    assert nums[0] is nums[1] is nums[3] and nums[2] is not nums[0]  # "2.0" is another spelling
    assert parse("2*y").root.lhs is not nums[0]  # each parse has its own
    # a call names its function by the table's own string
    assert e.root.rhs.func is next(name for name in FUNCTIONS if name == "exp")


def test_tapes_are_slotted_small_integer_programs():
    tape = parse(EXAMPLE_F)._tape
    assert not hasattr(tape, "__dict__") and type(tape.fixed) is tuple
    assert all(type(code) is array and code.itemsize == 1 for code in (tape.t_ops, tape.ops))


def test_compiled_sweep_sources_stay_small():
    import tracemalloc

    _seeded_problem(0)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sources = [e for seed in range(128) for e in _seeded_problem(seed)[1:]]
        for e in sources:
            e.eval_array(0.5, 1.0, 1.0)  # compiles the tape
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a tree and its tape take ~3.3 KiB per source; ~4.9 KiB with a tape of
    # references and a number leaf per literal
    assert held <= 3.6 * 1024 * len(sources)


def test_tape_constants_are_python_floats():
    # a literal, a folded subtree, and a fold that faults
    e = parse("2.5*t + sqrt(2)*y + log(0)*yp")
    literal = e.root.lhs.lhs.lhs
    constants = [c for c in e._tape.fixed if c is not None]
    assert len(constants) == 3 and all(type(c) is float for c in constants)
    assert constants[0] is literal.value
    assert e._tape.const_error is not None


def _copies(e):
    return pickle.loads(pickle.dumps(e)), copy.deepcopy(e)


@pytest.mark.parametrize("compiled", [False, True])
def test_pickle_and_deepcopy_keep_sources_and_their_bits(compiled):
    t, y, yp = _state_arrays(3, n=129)
    for seed in range(32):
        for e in _seeded_problem(seed)[1:]:
            if compiled:
                e.eval_array(t, y, yp)
            for c in _copies(e):
                assert c == e and hash(c) == hash(e) and to_source(c) == to_source(e)
                assert ("_tape" in vars(c)) == compiled  # a compiled copy runs the copied tape
                assert c.eval_array(t, y, yp).tobytes() == e.eval_array(t, y, yp).tobytes()


@settings(max_examples=200)
@given(st.text(max_size=40))
@example("(" * 198 + "y" + ")" * 198)
@example("-" * 1000 + "y")
@example("0-" * 899 + "y")
def test_parsing_is_total(src):
    # every input either parses or raises a positioned ParseError, and what
    # parses evaluates or raises EvalError
    try:
        e = parse(src)
    except ParseError as err:
        assert isinstance(err.offset, int)
    else:
        try:
            evaluate(e, 0.5, 1.0, 1.0)
        except EvalError:
            pass


@pytest.mark.parametrize("build,offset", [
    (lambda n: "(" * n + "y" + ")" * n, 101),
    (lambda n: "sin(" * n + "y" + ")" * n, 404),
    (lambda n: "-" * n + "y", 101),
    (lambda n: "y" + "^y" * n, 202),
    (lambda n: "0" + "-0" * n, 201),
    (lambda n: "1" + "*y" * n, 201),
], ids=["parens", "calls", "minus", "power", "sum", "product"])
def test_nesting_and_depth_beyond_the_limit_are_parse_errors(build, offset):
    # 100 levels parse, evaluate and print back; at 101 the error points where it starts
    e = parse(build(100))
    assert parse(to_source(e)) == e
    evaluate(e, 0.5, 1.0, 1.0)
    with pytest.raises(ParseError, match="deeper than 100") as exc:
        parse(build(101))
    assert exc.value.offset == offset


# -- parser against its reference ----------------------------------------------

# ASCII tokens, fragments that merge with their neighbours into numbers and
# names, and non-ASCII whitespace, digits, letters and a stray character
_TOKEN_ALPHABET = [
    "t", "y", "yp", "p", "e", "E", "x", "_", "exp", "sqrt", "abs", "atan", "sin", "cos", "log",
    "min", "max", "+", "-", "*", "/", "^", "(", ")", ",", "0", "1", "2.5", ".", "1e3", "1E-2",
    "1..2", "1e", "1e+", ".5", " ", "\t", "\n", "\xa0", "\u2003", "\u0663", "\xe9", "$",
]


def _parse_outcome(parser, src):
    try:
        return parser(src)
    except ParseError as err:
        return str(err), err.offset


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(_TOKEN_ALPHABET), max_size=30).map("".join),
    _ast_strategy().map(lambda root: to_source(Expr(root))),  # sources that parse
))
@example("(" * 101 + "y" + ")" * 101)
@example("sin(" * 101 + "y" + ")" * 101)
@example("-" * 1000 + "y")
@example("y" + "^y" * 101)
@example("0" + "-0" * 899)
@example("1" + "*y" * 101)
@example("min(" * 60 + "y" + ",y)" * 60)
@example("-" * 100 + "y^" + "-" * 100 + "y")
def test_parse_matches_the_reference_parser(src):
    # the same tree, or the same message at the same offset
    assert _parse_outcome(parse, src) == _parse_outcome(parse_reference, src)


def test_non_ascii_digits_and_numerics():
    # a decimal digit of any script is a digit; other numerics are rejected
    assert parse("\u0663+y").root == Bin("+", Num(3.0), Var("y"))  # Arabic-Indic three
    for src in ("\xb2", "\xbd", "3\xb2", "1e\xb2"):
        with pytest.raises(ParseError):
            parse(src)


# -- sampled nonnegativity ----------------------------------------------------

def test_nonnegative_example_source(f_example):
    report = check_nonnegative_sampled(f_example)
    assert report.samples == 1000
    assert not report.violation
    assert report.min_value > 0.0


def test_negative_constant_flags_violation():
    report = check_nonnegative_sampled(parse("0-1"))
    assert report.violation
    assert report.min_value == -1.0


def test_zero_minimum_is_not_a_violation():
    report = check_nonnegative_sampled(parse("y"))
    assert not report.violation
    assert report.min_value == 0.0
    assert report.argmin[1] == 0.0


def test_sampling_errors_carry_coordinates():
    with pytest.raises(EvalError, match=r"t=.*y=.*yp="):
        check_nonnegative_sampled(parse("log(y-5)"))
