import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typedfisher import (
    MarketInstance,
    UnboundedDemandError,
    builtin_instance,
    demand,
    demand_all,
    demand_prices,
)

from helpers import (
    brute_force_demand,
    finite_floats,
    price_vectors,
    random_feasible_market,
    small_markets,
)

EX_PRICES = np.array([0.1, 0.4, 0.7, 1.2, 1.7, 2.4])


def test_worked_example_one_allocation():
    inst = builtin_instance("iop_ex1")
    d = demand(inst, 0, EX_PRICES)
    assert np.allclose(d.x, [0.0, 0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-12)
    assert d.spend == pytest.approx(2.4, abs=1e-12)
    assert d.budget_exhausted
    assert d.alpha_star == pytest.approx(0.5, abs=1e-12)


def test_worked_example_one_ledger():
    inst = builtin_instance("iop_ex1")
    d = demand(inst, 0, EX_PRICES)
    got = [(pu.slope, pu.units, pu.cost) for pu in d.ledger]
    expect = [
        (0.1, 1.0, 0.1),
        (0.2, 1.0, 0.4),
        (0.3, 1.0, 0.6),
        (0.4, 1.0, 0.8),
        (0.5, 0.5, 0.5),
    ]
    assert len(got) == len(expect)
    for g, e in zip(got, expect):
        assert g == pytest.approx(e, abs=1e-9)


def test_worked_example_two():
    inst = builtin_instance("iop_ex2")
    d = demand(inst, 0, EX_PRICES)
    assert np.allclose(d.x, [0.0, 1.0, 1.0, 0.0, 2.0, 0.0], atol=1e-12)
    # the cap-free good absorbs the remaining budget at rate 1.7 / 5
    last = d.ledger[-1]
    assert last.type_id is None
    assert last.slope == pytest.approx(0.34, abs=1e-12)
    assert last.units == pytest.approx(2.0, abs=1e-12)
    assert last.cost == pytest.approx(3.4, abs=1e-12)


def test_zero_budget_buys_nothing_at_positive_prices():
    inst = MarketInstance(
        utilities=[[3.0, 1.0]], budgets=[0.0], capacities=[1.0, 1.0],
        types=((0, 1),),
    )
    d = demand(inst, 0, [2.0, 1.0])
    assert np.allclose(d.x, 0.0, atol=1e-12)


def test_zero_budget_still_takes_free_typed_goods():
    inst = MarketInstance(
        utilities=[[3.0, 1.0]], budgets=[0.0], capacities=[1.0, 1.0],
        types=((0, 1),),
    )
    d = demand(inst, 0, [0.0, 1.0])
    assert d.x[0] == pytest.approx(1.0)  # free slope-0 product bought to cap
    assert d.spend == pytest.approx(0.0)


def test_three_buyer_demands_clear_at_both_price_vectors():
    inst = builtin_instance("prop2")
    for p in ([11.0, 10.0, 9.0], [10.0, 10.0, 10.0]):
        X, excess = demand_all(inst, p)
        assert np.allclose(excess, 0.0, atol=1e-12), p
    d = demand(inst, 0, [11.0, 10.0, 9.0])
    assert np.allclose(d.x, [1.0, 0.0, 1.0], atol=1e-12)
    assert d.spend == pytest.approx(20.0, abs=1e-12)


def test_two_buyer_market_undersells_at_high_price():
    inst = builtin_instance("prop1")
    _, excess = demand_all(inst, [12.0, 1.0])
    assert excess[0] < 0


def test_unbounded_free_good_raises():
    inst = builtin_instance("prop2")  # good 3 has no type
    with pytest.raises(UnboundedDemandError) as err:
        demand(inst, 0, [11.0, 10.0, 0.0])
    assert err.value.good == 2


def test_nonparticipating_type_is_cap_free():
    inst = MarketInstance(
        utilities=[[2.0, 1.0]], budgets=[10.0], capacities=[0.5, 0.5],
        types=((0, 1),), participation=[[False]],
    )
    d = demand(inst, 0, [1.0, 1.0])
    assert d.x[0] == pytest.approx(10.0)  # whole budget into the better good


def test_invalid_agent_index():
    with pytest.raises(IndexError):
        demand(builtin_instance("prop2"), 3, [1.0, 1.0, 1.0])


def test_negative_price_rejected():
    with pytest.raises(ValueError):
        demand(builtin_instance("prop2"), 0, [-1.0, 1.0, 1.0])


# --- brute-force oracle agreement ---------------------------------------------


def test_oracle_on_restricted_example():
    # worked example restricted to two goods of one type
    inst = MarketInstance(
        utilities=[[1.0, 3.0]], budgets=[0.5], capacities=[0.5, 0.5],
        types=((0, 1),),
    )
    p = [0.1, 0.7]
    exact = brute_force_demand(inst, 0, p)
    greedy = demand(inst, 0, p)
    assert greedy.utility == pytest.approx(exact.utility, abs=1e-9)
    coarse = brute_force_demand(inst, 0, p, grid_step=0.01)
    assert coarse.utility == pytest.approx(greedy.utility, abs=0.05)


def test_oracle_prop1_buyer_two():
    inst = builtin_instance("prop1")
    p = [10.0, 1.0]
    assert demand(inst, 1, p).utility == pytest.approx(
        brute_force_demand(inst, 1, p).utility, abs=1e-9
    )


def test_oracle_unaffordable_prices_give_zero_utility():
    inst = MarketInstance(
        utilities=[[4.0, 2.0]], budgets=[1e-9], capacities=[1.0, 1.0],
        types=((0, 1),),
    )
    d = brute_force_demand(inst, 0, [50.0, 80.0])
    assert d.utility <= 1e-9
    assert demand(inst, 0, [50.0, 80.0]).utility <= 1e-9


def test_oracle_dimension_guard():
    inst = MarketInstance(
        utilities=[np.ones(8)], budgets=[1.0], capacities=np.ones(8) / 8,
        types=(tuple(range(8)),),
    )
    with pytest.raises(ValueError):
        brute_force_demand(inst, 0, np.ones(8))


@settings(deadline=None, max_examples=150)
@given(small_markets(), st.data())
def test_greedy_matches_vertex_enumeration(inst, data):
    p = data.draw(price_vectors(inst.n_goods), label="prices")
    greedy = demand(inst, 0, p)
    exact = brute_force_demand(inst, 0, p)
    assert greedy.utility == pytest.approx(exact.utility, rel=1e-9, abs=1e-9)


@settings(deadline=None, max_examples=100)
@given(small_markets(), st.data())
def test_utility_nondecreasing_in_budget(inst, data):
    p = data.draw(price_vectors(inst.n_goods), label="prices")
    bump = data.draw(finite_floats(0.01, 5.0), label="bump")
    richer = MarketInstance(
        utilities=inst.utilities,
        budgets=inst.budgets + bump,
        capacities=inst.capacities,
        types=inst.types,
        participation=inst.participation,
    )
    assert demand(richer, 0, p).utility >= demand(inst, 0, p).utility - 1e-9


@settings(deadline=None, max_examples=150)
@given(small_markets(), st.data())
def test_at_most_one_type_holds_two_goods(inst, data):
    """The constructed optimum splits across two goods in at most one type
    and buys at most one good in every other type."""
    p = data.draw(price_vectors(inst.n_goods), label="prices")
    d = demand(inst, 0, p)
    split = 0
    for t, goods in enumerate(inst.types):
        if not inst.participation[0, t]:
            continue
        positive = sum(1 for j in goods if d.x[j] > 1e-9)
        assert positive <= 2
        if positive == 2:
            split += 1
    assert split <= 1


@settings(deadline=None, max_examples=100)
@given(small_markets(), st.data())
def test_budget_accounting(inst, data):
    p = data.draw(price_vectors(inst.n_goods), label="prices")
    d = demand(inst, 0, p)
    assert d.spend == pytest.approx(float(p @ d.x), rel=1e-9, abs=1e-9)
    assert d.spend <= inst.budgets[0] + 1e-9
    if any(inst.utilities[0, j] > 0 for j in inst.unbounded_goods(0)):
        # a priced cap-free product absorbs whatever budget remains
        assert d.budget_exhausted
    else:
        best = sum(
            float(np.max(inst.utilities[0, list(g)], initial=0.0))
            for t, g in enumerate(inst.types)
            if inst.participation[0, t]
        )
        if d.utility < best - 1e-9:  # products remained unbought
            assert d.budget_exhausted


def test_demand_all_propagates_agent_index():
    inst = builtin_instance("prop2")
    with pytest.raises(UnboundedDemandError) as err:
        demand_all(inst, [1.0, 1.0, 0.0])
    assert err.value.agent == 0


# --- batched oracle agreement -------------------------------------------------


def assert_rows_match_scalar(inst, agent, P):
    """Each row of demand_prices equals the scalar oracle exactly."""
    X, spend, unbounded = demand_prices(inst, agent, P)
    assert X.shape == (len(P), inst.n_goods)
    for k, p in enumerate(P):
        try:
            d = demand(inst, agent, p)
        except UnboundedDemandError:
            assert unbounded[k], (agent, p)
            continue
        assert not unbounded[k], (agent, p)
        assert np.array_equal(X[k], d.x), (agent, p, X[k], d.x)
        assert spend[k] == d.spend, (agent, p)
    return X, spend, unbounded


def price_rows(rng, m, K=8):
    """Uniform, integer (ties, zeros), zero-heavy or rounded price rows."""
    kind = rng.integers(4)
    if kind == 0:
        return rng.uniform(0.0, 20.0, (K, m))
    if kind == 1:
        return rng.integers(0, 4, (K, m)).astype(float)
    if kind == 2:
        return np.where(rng.random((K, m)) < 0.5, 0.0, rng.uniform(0.0, 5.0, (K, m)))
    return np.round(rng.uniform(0.0, 3.0, (K, m)), 1)


@settings(deadline=None, max_examples=150)
@given(small_markets(max_n=2, max_m=5), st.data())
def test_batched_demand_matches_scalar(inst, data):
    part = data.draw(
        st.lists(st.booleans(), min_size=inst.n_agents * inst.n_types,
                 max_size=inst.n_agents * inst.n_types),
        label="participation",
    )
    inst = MarketInstance(
        utilities=inst.utilities, budgets=inst.budgets, capacities=inst.capacities,
        types=inst.types,
        participation=np.reshape(part, (inst.n_agents, inst.n_types)),
    )
    pool = data.draw(
        st.lists(st.one_of(st.just(0.0), st.integers(0, 5).map(float), finite_floats(0.0, 20.0)),
                 min_size=1, max_size=4),
        label="price pool",
    )
    rows = data.draw(
        st.lists(st.lists(st.sampled_from(pool), min_size=inst.n_goods, max_size=inst.n_goods),
                 min_size=1, max_size=8),
        label="prices",
    )
    for agent in range(inst.n_agents):
        assert_rows_match_scalar(inst, agent, np.array(rows))


def test_batched_demand_matches_scalar_on_seeded_markets():
    rng = np.random.default_rng(7)
    unbounded = 0
    for _ in range(300):
        inst = random_feasible_market(rng, m=int(rng.integers(1, 7)))
        u = inst.utilities.copy()
        if rng.random() < 0.3:  # zero and repeated utilities
            u[rng.random(u.shape) < 0.3] = 0.0
            u = np.where(rng.random(u.shape) < 0.5, np.round(u), u)
        part = rng.random((inst.n_agents, inst.n_types)) < 0.7
        inst = MarketInstance(u, inst.budgets, inst.capacities, inst.types, part)
        P = price_rows(rng, inst.n_goods)
        for agent in range(inst.n_agents):
            unbounded += int(assert_rows_match_scalar(inst, agent, P)[2].sum())
    assert unbounded > 0


def one_agent(u, types=((0, 1, 2),), budget=1.5, participation=None):
    m = len(u)
    return MarketInstance(
        utilities=[u], budgets=[budget], capacities=np.full(m, 0.5),
        types=types, participation=participation,
    )


@pytest.mark.parametrize(
    "inst, P, expect",
    [
        # equal utilities in one type: the cheaper good, the lower index on a tie
        (one_agent([2.0, 2.0, 1.0]), [[3.0, 1.0, 9.0], [1.0, 3.0, 9.0], [1.0, 1.0, 9.0]],
         [[0, 1, 0], [1, 0, 0], [1, 0, 0]]),
        # equal prices: only the higher utility survives
        (one_agent([1.0, 3.0, 2.0]), [[1.0, 1.0, 1.0], [0.0, 0.0, 9.0]],
         [[0, 1, 0], [0, 1, 0]]),
        # collinear hull points merge into one segment from the origin
        (one_agent([1.0, 2.0, 3.0]), [[1.0, 2.0, 3.0]], [[0, 0, 0.5]]),
        # agent ignores the type: every valued good is cap-free
        (one_agent([1.0, 3.0, 2.0], participation=[[False]]),
         [[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]], [[0, 1.5, 0], None]),
        # untyped good 2 absorbs the budget left after the type
        (one_agent([1.0, 2.0, 1.0], types=((0, 1),)), [[1.0, 1.0, 0.5], [1.0, 1.0, 0.0]],
         [[0, 1, 1], None]),
        # nothing is valued: nothing is bought, even at price zero
        (one_agent([0.0, 0.0, 0.0]), [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
         [[0, 0, 0], [0, 0, 0]]),
        # equal slopes in two types: the lower type rank buys first, whatever hi is
        (one_agent([1.0, 1.0], types=((1,), (0,))), [[1.0, 1.0]], [[0.5, 1]]),
    ],
    ids=["equal-utility", "equal-price", "collinear", "partial-participation",
         "untyped-good", "nothing-valued", "slope-tie-across-types"],
)
def test_batched_demand_edge_cases(inst, P, expect):
    X, spend, unbounded = assert_rows_match_scalar(inst, 0, np.array(P))
    for k, row in enumerate(expect):
        assert unbounded[k] == (row is None)
        if row is not None:
            assert np.array_equal(X[k], row), (P[k], X[k])


def test_batched_demand_keeps_scalar_order_on_rounded_slope_tie():
    # both hull segments of the type round to the same slope, so the frontier
    # keeps only the segment from the origin to good 0; buying the upper
    # segment first would leave x = [0.57, 0] at a cost of 5.2
    inst = one_agent([44.73684210526316, 1.736842105263158], types=((0, 1),), budget=5.0)
    P = np.array([[9.090909090909092, 0.35294117647058826]])
    X, spend, _ = assert_rows_match_scalar(inst, 0, P)
    assert P[0] @ X[0] <= 5.0
    assert spend[0] <= 5.0


def test_batched_demand_checks_prices_like_demand():
    inst = builtin_instance("prop2")
    for bad, msg in (([1.0, 1.0, 1.0], "length 3"), ([[1.0, 1.0]], "length 3"),
                     ([[-1.0, 1.0, 1.0]], "negative price"),
                     ([[np.inf, 1.0, 1.0]], "finite")):
        with pytest.raises(ValueError, match=msg):
            demand_prices(inst, 0, bad)
    with pytest.raises(IndexError):
        demand_prices(inst, 3, [[1.0, 1.0, 1.0]])
    X, spend, unbounded = demand_prices(inst, 0, np.zeros((0, 3)))
    assert X.shape == (0, 3) and spend.shape == unbounded.shape == (0,)
