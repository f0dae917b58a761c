from __future__ import annotations

import weakref

import numpy as np
import pytest

from tripoint import (
    GridFunction,
    ProblemParams,
    interpolate,
    solver_nodes,
)
from tripoint.gridfn import _hermite_basis, chebyshev_nodes

from oracles import (c1_norm, hermite_basis_reference, interpolate_reference, lincomb,
                     solver_nodes_reference)


def _uniform(n):
    return np.linspace(0.0, 1.0, n)


def test_construction_validation():
    nodes = _uniform(5)
    with pytest.raises(ValueError):
        GridFunction(nodes[::-1], nodes, nodes)
    with pytest.raises(ValueError):
        GridFunction(nodes + 0.1, nodes, nodes)  # does not start at 0
    with pytest.raises(ValueError):
        GridFunction(nodes, nodes[:-1], nodes)  # shape mismatch
    with pytest.raises(ValueError):
        GridFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        GridFunction(nodes, np.array([0, np.nan, 0, 0, 0.0]), np.zeros(5))


_SHAPE_MSG = "need a one-dimensional node set with at least 2 nodes"
_MATCH_MSG = "values and derivs must match the node set in shape"
_FINITE_MSG = "nodes, values and derivs must be finite"
_ORDER_MSG = "nodes must increase strictly from 0.0 to 1.0"


def _non_finite(row, x):
    # x at a different index of each row: nodes[0], values[2], derivs[4]
    data = [_uniform(5), np.arange(5.0), -np.arange(5.0)]
    data[row][2 * row] = x
    return data, _FINITE_MSG


_REJECTED = [
    ((0.5, 0.5, 0.5), _SHAPE_MSG),  # 0-d
    ((np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3))), _SHAPE_MSG),  # 2-d
    (([0.0], [0.0], [0.0]), _SHAPE_MSG),  # one node
    ((_uniform(5), np.zeros(4), np.zeros(5)), _MATCH_MSG),
    ((_uniform(5), np.zeros(5), np.zeros(6)), _MATCH_MSG),
    ((_uniform(5), np.zeros((1, 5)), np.zeros(5)), _MATCH_MSG),
    ((_uniform(5), np.zeros((5, 2)), np.zeros(5)), _MATCH_MSG),
    ((_uniform(5), np.zeros(5), np.zeros((5, 2))), _MATCH_MSG),
    ((_uniform(5), 0.0, np.zeros(5)), _MATCH_MSG),
    *(_non_finite(row, x) for row in range(3) for x in (np.nan, np.inf, -np.inf)),
    ((np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4), np.zeros(4)), _ORDER_MSG),
    ((np.array([0.0, 0.6, 0.4, 1.0]), np.zeros(4), np.zeros(4)), _ORDER_MSG),
    ((_uniform(5) + 0.1, np.zeros(5), np.zeros(5)), _ORDER_MSG),  # starts above 0
    ((_uniform(5) * 0.9, np.zeros(5), np.zeros(5)), _ORDER_MSG),  # ends below 1
    ((_uniform(5)[::-1], np.zeros(5), np.zeros(5)), _ORDER_MSG),
]


def _as_input(kind, x):
    # ndarrays take the ndarray shape path; lists, tuples and scalars np.shape's
    x = np.asarray(x, dtype=float)
    if kind == "ndarray":
        return x
    if kind == "list" or x.ndim == 0:
        return x.tolist()
    return tuple(x.tolist()) if x.ndim == 1 else tuple(map(tuple, x.tolist()))


@pytest.mark.parametrize("kind", ["ndarray", "list", "tuple", "mixed"])
@pytest.mark.parametrize("args, message", _REJECTED)
def test_construction_rejects_with_the_same_message_on_both_shape_paths(kind, args, message):
    kinds = ("ndarray", "list", "tuple") if kind == "mixed" else (kind,) * 3
    with pytest.raises(ValueError) as err:
        GridFunction(*(_as_input(k, a) for k, a in zip(kinds, args)))
    assert str(err.value) == message


@pytest.mark.parametrize("kind", ["list", "tuple", "mixed"])
def test_construction_from_lists_and_tuples_matches_arrays(kind):
    args = (_uniform(5), np.arange(5.0), -np.arange(5.0))
    kinds = ("list", "tuple", "ndarray") if kind == "mixed" else (kind,) * 3
    g = GridFunction(*(_as_input(k, a) for k, a in zip(kinds, args)))
    for got, want in zip((g.nodes, g.values, g.derivs), args):
        assert got.tobytes() == want.tobytes() and not got.flags.writeable


def test_grid_function_is_immutable():
    g = GridFunction.zeros(_uniform(5))
    with pytest.raises(ValueError):
        g.values[0] = 1.0


def test_grid_function_does_not_alias_its_inputs():
    nodes, values, derivs = _uniform(5), np.arange(5.0), -np.arange(5.0)
    g = GridFunction(nodes, values, derivs)
    nodes[1], values[1], derivs[1] = 0.3, 7.0, 7.0
    assert np.array_equal(g.nodes, _uniform(5))
    assert np.array_equal(g.values, np.arange(5.0))
    assert np.array_equal(g.derivs, -np.arange(5.0))
    for a in (g.nodes, g.values, g.derivs):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_grid_functions_built_on_checked_nodes_share_them():
    g = GridFunction(_uniform(5), np.arange(5.0), -np.arange(5.0))
    h = GridFunction(g.nodes, np.ones(5), np.zeros(5))
    assert h.nodes is g.nodes and GridFunction.zeros(g.nodes).nodes is g.nodes
    assert h.values.tobytes() == np.ones(5).tobytes() and not h.values.flags.writeable
    # the shared nodes keep no other grid function's data alive
    block = weakref.ref(g.values.base)
    del g
    assert block() is None
    assert h.nodes.tobytes() == _uniform(5).tobytes()


def test_read_only_nodes_that_no_grid_function_made_are_copied_and_checked():
    cheb = chebyshev_nodes(17)
    g = GridFunction(cheb, np.zeros(17), np.zeros(17))
    assert g.nodes is not cheb and not np.shares_memory(g.nodes, cheb)
    assert g.nodes.tobytes() == cheb.tobytes()
    assert GridFunction(cheb, np.zeros(17), np.zeros(17)).nodes is not g.nodes
    decreasing = _uniform(5)[::-1].copy()
    decreasing.setflags(write=False)
    for nodes in (decreasing, g.nodes[:-1], g.nodes[::-1]):
        with pytest.raises(ValueError) as err:
            GridFunction(nodes, np.zeros(nodes.size), np.zeros(nodes.size))
        assert str(err.value) == _ORDER_MSG


@pytest.mark.parametrize("values, derivs, message", [
    (np.zeros(4), np.zeros(5), _MATCH_MSG),
    (np.zeros(5), np.zeros(6), _MATCH_MSG),
    (np.zeros((5, 2)), np.zeros(5), _MATCH_MSG),
    (0.0, np.zeros(5), _MATCH_MSG),
    ([0.0, 0.0, np.nan, 0.0, 0.0], np.zeros(5), _FINITE_MSG),
    (np.zeros(5), [0.0, 0.0, 0.0, 0.0, -np.inf], _FINITE_MSG),
])
def test_shared_nodes_still_check_values_and_derivs(values, derivs, message):
    g = GridFunction.zeros(_uniform(5))
    with pytest.raises(ValueError) as err:
        GridFunction(g.nodes, values, derivs)
    assert str(err.value) == message


def test_shared_nodes_refuse_writes():
    g = GridFunction.zeros(_uniform(5))
    h = GridFunction(g.nodes, np.ones(5), np.ones(5))
    for nodes in (g.nodes, h.nodes):
        with pytest.raises(ValueError):
            nodes[0] = 1.0
        with pytest.raises(ValueError):
            nodes.setflags(write=True)
    assert g.nodes.tobytes() == _uniform(5).tobytes()


def test_interpolation_exact_at_nodes():
    nodes = _uniform(9)
    rng = np.random.default_rng(3)
    g = GridFunction(nodes, rng.normal(size=9), rng.normal(size=9))
    v, d = interpolate(g, nodes)
    assert np.array_equal(v, g.values)
    assert np.array_equal(d, g.derivs)


def test_interpolation_reproduces_quadratics():
    nodes = _uniform(7)
    g = GridFunction(nodes, nodes**2, 2 * nodes)
    t = np.linspace(0, 1, 301)
    v, d = interpolate(g, t)
    assert np.max(np.abs(v - t**2)) <= 1e-14
    assert np.max(np.abs(d - 2 * t)) <= 1e-13


def test_interpolation_sin_cos_64_nodes():
    nodes = _uniform(64)
    g = GridFunction(nodes, np.sin(nodes), np.cos(nodes))
    v, d = interpolate(g, 0.3)
    assert v == pytest.approx(np.sin(0.3), abs=1e-8)
    assert d == pytest.approx(np.cos(0.3), abs=1e-8)


def test_interpolation_keeps_the_reference_bits(params):
    nodes = solver_nodes(33, params)
    rng = np.random.default_rng(4)
    g = GridFunction(nodes, rng.normal(size=nodes.size), rng.normal(size=nodes.size))
    for t in (0.0, 1.0, params.eta, 0.3, np.float64(0.7)):
        got, ref = interpolate(g, t), interpolate_reference(g, t)
        assert isinstance(got[0], float) and isinstance(got[1], float)
        assert [x.hex() for x in got] == [x.hex() for x in ref]
    for t in (nodes, np.array([0.0, 1.0]), rng.uniform(size=257), rng.uniform(size=(3, 5))):
        for got, ref in zip(interpolate(g, t), interpolate_reference(g, t)):
            assert got.shape == np.shape(t)
            assert got.tobytes() == ref.tobytes()


def test_hermite_basis_keeps_the_reference_bits():
    # the ends, where a rewritten weight would flip the sign of a zero, the
    # smallest subnormal and the float next below 1, then random points
    edges = np.array([0.0, 2.0**-1074, 0.5, 1.0 - 2.0**-53, 1.0])
    x = np.concatenate([edges, np.random.default_rng(8).uniform(size=257)])
    for got, ref in zip(_hermite_basis(x), hermite_basis_reference(x)):
        assert [w.tobytes() for w in got] == [w.tobytes() for w in ref]
    for x0 in edges:  # 0-d arrays, as the sampler builds for a scalar t
        for got, ref in zip(_hermite_basis(np.asarray(x0)), hermite_basis_reference(np.asarray(x0))):
            assert [np.asarray(w).tobytes() for w in got] == [np.asarray(w).tobytes() for w in ref]


def test_interpolation_domain_error():
    g = GridFunction.zeros(_uniform(5))
    with pytest.raises(ValueError):
        interpolate(g, -0.01)
    with pytest.raises(ValueError):
        interpolate(g, 1.01)


def test_c1_norm():
    nodes = _uniform(5)
    assert c1_norm(GridFunction.zeros(nodes)) == 0.0
    g = GridFunction(nodes, np.array([0.0, 2, -2, 1, 0]), np.array([3.0, -3, 0, 1, 2]))
    assert c1_norm(g) == 3.0


def test_c1_norm_of_cubic_profile():
    # (5/8) t^2 - t^3/6 has max value 11/24 at t=1 and max slope 3/4 at t=1
    nodes = _uniform(201)
    g = GridFunction(nodes, 5 / 8 * nodes**2 - nodes**3 / 6, 5 / 4 * nodes - nodes**2 / 2)
    assert c1_norm(g) == pytest.approx(0.75, abs=1e-15)
    assert np.max(np.abs(g.values)) == pytest.approx(11 / 24, abs=1e-15)


def test_lincomb():
    nodes = _uniform(5)
    g1 = GridFunction(nodes, nodes, np.ones_like(nodes))
    g2 = GridFunction(nodes, nodes**2, 2 * nodes)
    g = lincomb(2.0, g1, -1.0, g2)
    assert np.allclose(g.values, 2 * nodes - nodes**2)
    other = GridFunction.zeros(_uniform(7))
    with pytest.raises(ValueError):
        lincomb(1.0, g1, 1.0, other)


def test_chebyshev_nodes():
    x = chebyshev_nodes(65)
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)
    assert np.min(np.abs(x - 0.5)) < 1e-15  # odd count puts the midpoint on the grid


def test_chebyshev_nodes_are_cached_read_only_and_solver_nodes_copy_them():
    n = 33
    x = chebyshev_nodes(n)
    assert chebyshev_nodes(n) is x and not x.flags.writeable
    cached = x.tobytes()
    # (1.2, 0.7) inserts both window ends; `snapped` puts eta/alpha within
    # 1e-12 of x[i] and eta of x[j], so only the snap branch runs and nothing
    # is concatenated: the returned array is the copy itself
    i, j = 11, 16
    assert x[j] ** 2 < x[i] < x[j]  # 1 < alpha < 1/eta
    snapped = ProblemParams(x[j] / x[i] * (1 + 1e-13), x[j] + 1e-13)
    for p in (ProblemParams(1.5, 0.5), ProblemParams(1.2, 0.7), snapped):
        got = solver_nodes(n, p)
        assert got.flags.writeable and not np.shares_memory(got, x)
        want = got.tobytes()
        got[:] = 0.25
        assert solver_nodes(n, p).tobytes() == want
        assert chebyshev_nodes(n) is x and x.tobytes() == cached
    assert solver_nodes(n, snapped).size == n


def test_solver_nodes_snap_avoids_degenerate_gaps(params):
    x = solver_nodes(65, params)
    assert params.eta in x
    assert np.min(np.diff(x)) > 1e-6


def test_solver_nodes_contain_cone_window_ends(params):
    x = solver_nodes(65, params)
    assert np.min(np.abs(x - params.eta / params.alpha)) < 1e-15
    assert np.min(np.abs(x - params.eta)) < 1e-15
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0)


def test_solver_nodes_other_params():
    p = ProblemParams(1.2, 0.7)
    x = solver_nodes(33, p)
    assert np.min(np.abs(x - 0.7 / 1.2)) < 1e-15
    assert np.min(np.abs(x - 0.7)) < 1e-15


def _near_node_pairs(x, rng, count):
    # (alpha, eta) with eta or eta/alpha within 1e-12 of a node of x, or both
    pairs = []
    while len(pairs) < count:
        i, j = sorted(rng.integers(1, x.size - 1, 2))
        lo, hi = x[i] + rng.uniform(-1e-12, 1e-12), x[j] + rng.uniform(-1e-12, 1e-12)
        kind = len(pairs) % 3
        if kind == 1:
            lo = rng.uniform(hi * hi, hi)  # eta on a node only
        elif kind == 2:
            hi = rng.uniform(lo, np.sqrt(lo))  # eta/alpha on a node only
        try:
            pairs.append(ProblemParams(hi / lo, hi))
        except ValueError:
            continue
    return pairs


def test_solver_nodes_match_the_sorting_reference():
    rng = np.random.default_rng(5)
    pairs = []
    while len(pairs) < 200:
        eta, frac = rng.uniform(0.05, 0.95), rng.uniform(0.01, 0.99)
        pairs.append(ProblemParams(1.0 + frac * (1.0 / eta - 1.0), eta))
    for n in [*range(9, 301), 4097, 8193]:
        # every pair at the two large sizes, a fifth of them per small size
        for p in pairs if n > 300 else pairs[n % 40::40]:
            assert solver_nodes(n, p).tobytes() == solver_nodes_reference(n, p).tobytes(), (n, p)
        for p in _near_node_pairs(chebyshev_nodes(n), rng, 6):
            ref = solver_nodes_reference(n, p)
            assert ref.size < n + 2  # the snap branch was taken
            assert solver_nodes(n, p).tobytes() == ref.tobytes(), (n, p)
