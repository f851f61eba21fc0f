import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from typedfisher import MarketInstance, build_frontier
from typedfisher.demand import agent_products

from helpers import finite_floats

EX_PRICES = np.array([0.1, 0.4, 0.7, 1.2, 1.7, 2.4])
EX_UTILS = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def slopes(fr):
    return [pr.slope for pr in fr]


def cost_at(fr, utility):
    """Minimum spend to reach ``utility`` along a frontier, None if the
    target exceeds the frontier's top vertex."""
    if utility <= 0:
        return 0.0
    cost = 0.0
    remaining = utility
    for pr in fr:
        if remaining <= pr.delta_u:
            return cost + pr.slope * remaining
        cost += pr.delta_p
        remaining -= pr.delta_u
    return None if remaining > 1e-12 * max(1.0, utility) else cost


def test_worked_example_type_one():
    fr = build_frontier(EX_UTILS, EX_PRICES, (0, 2, 4))
    assert np.allclose(slopes(fr), [0.1, 0.3, 0.5], atol=1e-12)
    assert [pr.hi for pr in fr] == [0, 2, 4]
    assert fr[0].lo is None
    assert isinstance(fr, tuple)


def test_worked_example_type_two():
    fr = build_frontier(EX_UTILS, EX_PRICES, (1, 3, 5))
    assert np.allclose(slopes(fr), [0.2, 0.4, 0.6], atol=1e-12)


def test_single_free_good():
    fr = build_frontier([7.0], [0.0], (0,))
    assert len(fr) == 1
    assert fr[0].slope == 0.0
    assert fr[0].delta_p == 0.0


def test_dominated_good_dropped():
    # three-buyer market, buyer 1 at prices (11, 10, 9): good 2 gives 1 util
    # for 10 money while good 1 gives 100 for 11, so good 2 never sells
    fr = build_frontier([100.0, 1.0, 2.0], [11.0, 10.0, 9.0], (0, 1))
    assert [pr.hi for pr in fr] == [0]


def test_equal_price_keeps_higher_utility():
    fr = build_frontier([100.0, 1.0], [10.0, 10.0], (0, 1))
    assert [pr.hi for pr in fr] == [0]


def test_equal_utility_keeps_cheaper():
    fr = build_frontier([5.0, 5.0], [3.0, 2.0], (0, 1))
    assert [pr.hi for pr in fr] == [1]


def test_collinear_points_merge():
    # (1,1), (2,2), (3,3) lie on one ray from the origin
    fr = build_frontier([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], (0, 1, 2))
    assert len(fr) == 1
    assert fr[0].hi == 2


def test_all_zero_utility_gives_empty_frontier():
    fr = build_frontier([0.0, 0.0], [1.0, 2.0], (0, 1))
    assert fr == ()


def untyped_products(u, p):
    """The products of one agent whose goods, valued u at prices p, are all
    untyped."""
    inst = MarketInstance(utilities=[u], budgets=[1.0], capacities=np.ones(len(u)))
    return agent_products(inst, 0, np.asarray(p, dtype=float))


def test_untyped_rate_worked_example():
    (pr,) = untyped_products([5.0], [1.7])
    assert pr.type_id is None and pr.hi == 0
    assert pr.slope == pytest.approx(0.34, abs=1e-12)


def test_untyped_rate_direct_ratio():
    (pr,) = untyped_products([2.0], [9.0])
    assert pr.slope == pytest.approx(4.5, abs=1e-12)


def test_untyped_rate_zero_utility_excluded():
    assert [pr.hi for pr in untyped_products([0.0, 1.0], [3.0, 1.0])] == [1]


def test_untyped_rate_free_good_flagged():
    (pr,) = untyped_products([1.0], [0.0])
    assert pr.type_id is None and pr.slope == 0.0 and pr.delta_p == 0.0


# --- properties ---------------------------------------------------------------


def ints_or_floats(lo, hi):
    """Small integers or floats in [lo, hi]; the integers make ties in
    utility and in price common."""
    return st.one_of(st.integers(int(np.ceil(lo)), 3).map(float), finite_floats(lo, hi))


@st.composite
def type_points(draw):
    k = draw(st.integers(min_value=1, max_value=7))
    u = draw(st.lists(ints_or_floats(0.01, 50.0), min_size=k, max_size=k))
    p = draw(st.lists(ints_or_floats(0.0, 50.0), min_size=k, max_size=k))
    return np.array(u), np.array(p)


@settings(deadline=None, max_examples=200)
@given(type_points())
# 5e-324 / 2 underflows, so two hull segments both compute slope 0.0
@example(pts=(np.array([1.0, 1, 1, 1, 1, 1, 3]), np.array([0.0, 0, 0, 0, 0, 0, 5e-324])))
def test_slopes_strictly_increase(pts):
    u, p = pts
    fr = build_frontier(u, p, range(len(u)))
    sl = slopes(fr)
    assert all(b > a for a, b in zip(sl, sl[1:]))
    assert all(s >= 0 for s in sl)


@settings(deadline=None, max_examples=200)
@given(type_points())
def test_frontier_ends_at_max_utility_vertex(pts):
    u, p = pts
    fr = build_frontier(u, p, range(len(u)))
    umax = float(u.max())
    # cheapest price among the max-utility goods (dedup rule)
    pend = min(p[j] for j in range(len(u)) if u[j] == umax)
    assert sum(pr.delta_u for pr in fr) == pytest.approx(umax, rel=1e-12)
    assert sum(pr.delta_p for pr in fr) == pytest.approx(pend, rel=1e-12, abs=1e-12)


@settings(deadline=None, max_examples=200)
@given(type_points())
def test_vertices_are_input_points(pts):
    u, p = pts
    fr = build_frontier(u, p, range(len(u)))
    for pr in fr:
        assert 0 <= pr.hi < len(u)
        assert pr.delta_u > 0
        assert pr.delta_p >= 0


@settings(deadline=None, max_examples=150)
@given(type_points(), st.data())
def test_feasible_mixtures_lie_on_or_above_frontier(pts, data):
    """Any within-cap bundle costs at least the frontier at its utility."""
    u, p = pts
    k = len(u)
    fr = build_frontier(u, p, range(k))
    assume(fr)
    weights = np.array(
        data.draw(
            st.lists(finite_floats(0.0, 1.0), min_size=k, max_size=k),
            label="mixture",
        )
    )
    total = weights.sum()
    if total > 1.0:
        weights = weights / total
    util = float(u @ weights)
    cost = float(p @ weights)
    floor = cost_at(fr, util)
    assert floor is not None
    assert cost >= floor - 1e-9 * max(1.0, cost)
