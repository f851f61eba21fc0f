import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings

from typedfisher import (
    BUILTIN_NAMES,
    MarketInstance,
    builtin_instance,
    instance_from_dict,
    instance_to_dict,
    kkt_residuals,
    load_instance,
    random_instance,
    save_instance,
    solve_sop1,
    validate_instance,
)
from typedfisher.demand import _free_goods

from helpers import rebuilt, small_markets


# --- builtin tables, field by field ------------------------------------------


def test_prop1_matches_table():
    inst = builtin_instance("prop1")
    assert inst.n_agents == 2 and inst.n_goods == 2
    assert inst.utilities.tolist() == [[200.0, 0.1], [100.0, 1.1]]
    assert inst.budgets.tolist() == [15.0, 5.0]
    assert inst.capacities.tolist() == [1.5, 0.5]
    assert inst.types == ((0, 1),)
    assert inst.participation.all()


def test_prop2_matches_table():
    inst = builtin_instance("prop2")
    assert inst.n_agents == 3 and inst.n_goods == 3
    assert inst.utilities.tolist() == [
        [100.0, 1.0, 2.0],
        [1.0, 100.0, 1.0],
        [1.0, 100.0, 1.0],
    ]
    assert inst.budgets.tolist() == [20.0, 10.0, 10.0]
    assert inst.capacities.tolist() == [1.0, 2.0, 1.0]
    assert inst.types == ((0, 1),)
    assert inst.untyped_goods == (2,)


def test_worked_example_instances():
    ex1 = builtin_instance("iop_ex1")
    assert ex1.utilities.tolist() == [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]
    assert ex1.budgets.tolist() == [2.4]
    assert ex1.types == ((0, 2, 4), (1, 3, 5))
    ex2 = builtin_instance("iop_ex2")
    assert ex2.budgets.tolist() == [4.5]
    assert ex2.types == ((0, 2), (1, 3, 5))
    assert ex2.untyped_goods == (4,)


def test_experiment_shape():
    inst = builtin_instance("experiment")
    assert inst.n_agents == 200 and inst.n_goods == 6
    assert np.all(inst.capacities == 100.0)
    assert inst.types == ((0, 1), (2, 3), (4, 5))
    assert inst.participation.all()


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_instance("nope")


def test_builtins_all_validate():
    for name in ("prop1", "prop2", "iop_ex1", "iop_ex2", "experiment"):
        rep = validate_instance(builtin_instance(name))
        assert rep.errors == [], name


# --- validation ---------------------------------------------------------------


def test_prop2_has_untyped_good_warningless():
    rep = validate_instance(builtin_instance("prop2"))
    assert "no-untyped-good" not in rep.warnings


def test_prop1_warns_no_untyped_good():
    rep = validate_instance(builtin_instance("prop1"))
    assert "no-untyped-good" in rep.warnings


def test_each_validation_returns_a_new_report():
    # the checks run once per instance; no caller's report reaches the next
    inst = MarketInstance(
        utilities=[[1.0, 2.0]], budgets=[1.0], capacities=[0.5, 0.5], types=((0, 1), (1,))
    )
    first = validate_instance(inst)
    expected = (list(first.errors), list(first.warnings))
    assert first.errors
    first.errors.append("appended")
    first.warnings.clear()
    second = validate_instance(inst)
    assert second is not first
    assert (second.errors, second.warnings) == expected


def test_overlapping_types_is_error():
    inst = MarketInstance(
        utilities=[[1.0, 2.0]],
        budgets=[1.0],
        capacities=[0.5, 0.5],
        types=((0, 1), (1,)),
    )
    rep = validate_instance(inst)
    assert any("types overlap" in e for e in rep.errors)


def test_overcapacity_type_is_error():
    # two participants but 2.5 units of type capacity: cannot clear
    inst = MarketInstance(
        utilities=[[1.0, 2.0], [2.0, 1.0]],
        budgets=[1.0, 1.0],
        capacities=[1.5, 1.0],
        types=((0, 1),),
    )
    rep = validate_instance(inst)
    assert any("clearing infeasible" in e for e in rep.errors)


def test_exactly_tight_type_is_warning_not_error():
    rep = validate_instance(builtin_instance("prop1"))  # 1.5 + 0.5 == 2 agents
    assert rep.errors == []
    assert any(w.startswith("degenerate-tight") for w in rep.warnings)


def test_partly_joined_type_may_exceed_its_participants():
    # agents 3 and 4 ignore the type and hold its goods without a cap, so
    # capacity 3.5 clears with 2 participants
    inst = MarketInstance(
        utilities=np.random.default_rng(0).uniform(0.1, 1.0, (4, 3)),
        budgets=[1.0, 2.0, 3.0, 4.0],
        capacities=[2.0, 1.5, 1.0],
        types=((0, 1),),
        participation=[[True], [True], [False], [False]],
    )
    assert validate_instance(inst).errors == []
    x, duals, stats = solve_sop1(inst)
    assert stats.status == "converged"
    assert kkt_residuals(inst, np.zeros(4), x, duals).max_residual <= 1e-9


def type_capacity_market(n, type_capacity):
    """n agents, a type of two goods splitting ``type_capacity``, one free good."""
    half = type_capacity / 2
    return MarketInstance(
        utilities=np.random.default_rng(0).uniform(0.1, 1.0, (n, 3)),
        budgets=np.ones(n),
        capacities=[half, half, 50.0],
        types=((0, 1),),
    )


def test_type_within_tolerance_of_n_is_tight_not_infeasible():
    inst = type_capacity_market(1000, 1000.0000005)
    rep = validate_instance(inst)
    assert inst.tight_types == (0,)
    assert rep.errors == []
    assert any(w.startswith("degenerate-tight: type 1") for w in rep.warnings)


def test_type_just_above_n_is_infeasible():
    inst = type_capacity_market(1000, 1000.001)
    rep = validate_instance(inst)
    assert inst.tight_types == ()
    assert rep.errors == [
        "type 1 capacity 1000.001 exceeds its 1000 participating agents; "
        "clearing infeasible"
    ]


def test_agent_valuing_nothing_is_error():
    inst = MarketInstance(
        utilities=[[0.0, 0.0], [1.0, 1.0]],
        budgets=[1.0, 1.0],
        capacities=[1.0, 1.0],
    )
    rep = validate_instance(inst)
    assert any("agent 1" in e and "positively valued" in e for e in rep.errors)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(utilities=[[1.0, 2.0]], budgets=[1.0], capacities=[0.5, 0.5], types=((0, 2),)),
         "type 1 references good 3 outside 1..2"),
        (dict(utilities=[[1.0, -1.0]], budgets=[1.0], capacities=[1.0, 1.0]),
         "utility of agent 1 for good 2 is negative"),
        (dict(utilities=[[1.0, np.nan]], budgets=[1.0], capacities=[1.0, 1.0]),
         "non-finite entries"),
        (dict(utilities=[[1.0, 2.0]], budgets=[np.inf], capacities=[1.0, 1.0]),
         "non-finite entries"),
        # a good listed twice in one type used to be reported as an overlap
        (dict(utilities=[[1.0, 1.0, 1.0]], budgets=[1.0], capacities=[0.5, 0.5, 1.0],
              types=((0, 1, 0),)),
         "type 1 lists good 1 twice"),
    ],
)
def test_validation_error_messages(kwargs, message):
    assert validate_instance(MarketInstance(**kwargs)).errors == [message]


def test_messages_are_one_based():
    inst = MarketInstance(
        utilities=[[1.0, 0.0], [1.0, 0.0]],
        budgets=[1.0, 1.0],
        capacities=[1.0, 1.0],
    )
    rep = validate_instance(inst)
    assert any("good 2" in w for w in rep.warnings)  # second good valued by nobody


def test_nonparticipant_valuing_typed_goods_warns():
    inst = MarketInstance(
        utilities=[[1.0, 1.0], [1.0, 1.0]],
        budgets=[1.0, 1.0],
        capacities=[0.5, 0.5],
        types=((0,),),
        participation=[[True], [False]],
    )
    rep = validate_instance(inst)
    assert any("unbounded" in w for w in rep.warnings)


def test_validation_messages_keep_agent_then_good_order():
    inst = MarketInstance(
        utilities=[[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]],
        budgets=[-1.0, 1.0, 0.0, 1.0],
        capacities=[1.0, -2.0, 0.0],
        types=((0,), (1, 2)),
        participation=[[True, True], [False, False], [True, True], [True, False]],
    )
    rep = validate_instance(inst)
    assert rep.errors == [
        "budget of agent 1 is not positive",
        "agent 1 has no positively valued good",
        "budget of agent 3 is not positive",
        "agent 3 has no positively valued good",
        "capacity of good 2 is not positive",
        "capacity of good 3 is not positive",
    ]
    unbounded = "but values its goods; purchases are unbounded"
    assert rep.warnings == [
        "no-untyped-good",
        "good 2 valued by no agent",
        f"agent 2 ignores type 1 {unbounded}",
        f"agent 2 ignores type 2 {unbounded}",
        f"agent 4 ignores type 2 {unbounded}",
    ]


# --- type incidence and tight types ---------------------------------------------


def _tight_types(inst):
    """Loop reference for the degenerate-tight rule."""
    n = inst.n_agents
    return tuple(
        t for t, goods in enumerate(inst.types)
        if inst.participation[:, t].all()
        and abs(sum(inst.capacities[j] for j in goods) - n) <= 1e-9 * n
    )


def _unbounded_goods(inst, agent):
    """Loop reference: untyped goods and the goods of types agent ignores."""
    return tuple(
        j for j in range(inst.n_goods)
        if not any(j in goods and inst.participation[agent, t]
                   for t, goods in enumerate(inst.types))
    )


def test_layout_matches_pair_loops():
    rng = np.random.default_rng(3)
    mixed = MarketInstance(  # type 1 tight, types 2 and 3 slack and partial
        utilities=rng.uniform(0.1, 1.0, (5, 8)),
        budgets=rng.uniform(1.0, 5.0, 5),
        capacities=[2.0, 2.0, 1.0, 3.0, 0.5, 1.5, 1.0, 2.0],
        types=((0, 1, 2), (4,), (5, 6)),
        participation=np.column_stack([np.ones(5, bool), rng.random((5, 2)) < 0.6]),
    )
    untyped = random_instance(seed=2, n=4, m=3)
    zeros = MarketInstance(  # partial participation and zero utilities
        utilities=rng.integers(0, 3, (6, 8)).astype(float),
        budgets=np.ones(6),
        capacities=np.ones(8),
        types=((0, 1, 2), (4, 5)),
        participation=rng.random((6, 2)) < 0.5,
    )
    for inst in [builtin_instance(name) for name in BUILTIN_NAMES] + [mixed, untyped, zeros]:
        assert inst.tight_types == _tight_types(inst)
        for t, goods in enumerate(inst.types):
            assert np.flatnonzero(inst.incidence[t]).tolist() == list(goods)
        assert inst.incidence.sum() == sum(len(goods) for goods in inst.types)
        typed = {j for goods in inst.types for j in goods}
        assert inst.untyped_goods == tuple(j for j in range(inst.n_goods) if j not in typed)
        free = _free_goods(inst)
        for i in range(inst.n_agents):
            valued = [j for j in _unbounded_goods(inst, i) if inst.utilities[i, j] > 0.0]
            assert np.flatnonzero(free[i]).tolist() == valued
            # one agent's row, as the per-agent demand paths read it
            assert np.array_equal(_free_goods(inst, i), free[i])
    assert mixed.tight_types == (0,)


def test_layout_is_cached_and_read_only():
    inst = builtin_instance("experiment")
    assert inst.incidence is inst.incidence
    with pytest.raises(ValueError):
        inst.incidence[0, 0] = 0.0


def test_market_arrays_cannot_be_made_writeable(tmp_path):
    # a market's caches (incidence, tight types, validation, the solver's
    # program) are built once, so no array they derive from may change
    path = tmp_path / "inst.json"
    save_instance(random_instance(4, 6, 4, ((0, 1),)), path)
    markets = [
        builtin_instance("prop2"),
        random_instance(3, 5, 4, ((0, 1), (2, 3)), capacity_range=(1.0, 3.0)),
        load_instance(path),
    ]
    for inst in markets:
        solve_sop1(inst)
        arrays = [getattr(inst, f.name) for f in dataclasses.fields(inst)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert len(arrays) == 4
        for a in arrays + [inst.incidence]:
            with pytest.raises(ValueError):
                a.setflags(write=True)



@pytest.mark.parametrize("copy_of", [
    copy.copy, copy.deepcopy, lambda inst: pickle.loads(pickle.dumps(inst)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_rebuild_through_the_constructor(copy_of):
    inst = builtin_instance("prop2")
    validate_instance(inst)
    solve_sop1(inst)
    cached = ("incidence", "tight_types", "untyped_goods", "_validation")
    assert all(name in vars(inst) for name in cached)
    dup = copy_of(inst)
    assert dup is not inst and not any(name in vars(dup) for name in cached)
    for f in dataclasses.fields(inst):
        a, b = getattr(inst, f.name), getattr(dup, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b) and a.dtype == b.dtype
            assert not np.shares_memory(a, b)
            with pytest.raises(ValueError):
                b.setflags(write=True)
        else:
            assert a == b
    assert dup.tight_types == inst.tight_types
    assert np.array_equal(dup.incidence, inst.incidence)


def _saved_and_loaded(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(random_instance(4, 6, 4, ((0, 1),)), path)
    return load_instance(path)


@pytest.mark.parametrize("market", [
    lambda tmp_path: builtin_instance("prop2"),
    lambda tmp_path: random_instance(3, 20, 6, ((0, 1), (2, 3))),
    _saved_and_loaded,
], ids=["prop2", "random", "loaded"])
def test_markets_compare_and_hash_by_identity(market, tmp_path):
    a = market(tmp_path)
    others = [
        rebuilt(a), copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
    ]
    assert a == a and not a != a
    assert hash(a) == hash(a)
    for b in others:
        assert a != b and not a == b
    markets = [a, *others]
    assert len(set(markets)) == 5
    keyed = {inst: k for k, inst in enumerate(markets)}
    assert [keyed[inst] for inst in markets] == [0, 1, 2, 3, 4]


# --- random instances ----------------------------------------------------------


def test_random_instance_deterministic():
    kw = dict(
        n=20, m=6, type_spec=((0, 1), (2, 3)),
        budget_range=(1.0, 10.0), utility_range=(0.1, 1.0),
    )
    a = random_instance(seed=1, **kw)
    b = random_instance(seed=1, **kw)
    assert np.array_equal(a.utilities, b.utilities)
    assert np.array_equal(a.budgets, b.budgets)
    assert np.array_equal(a.capacities, b.capacities)
    c = random_instance(seed=2, **kw)
    assert not np.array_equal(a.utilities, c.utilities)


def test_random_instance_experiment_shape():
    inst = random_instance(
        seed=1, n=200, m=6, type_spec=((0, 1), (2, 3), (4, 5)),
        budget_range=(1.0, 10.0), utility_range=(0.1, 1.0),
    )
    assert inst.n_agents == 200 and inst.n_goods == 6
    assert np.all(inst.capacities == 100.0)  # n / type size
    assert np.all(inst.utilities >= 0.1) and np.all(inst.utilities <= 1.0)
    assert validate_instance(inst).errors == []


def test_random_instance_no_types_is_classical():
    inst = random_instance(seed=2, n=2, m=2)
    assert inst.types == ()
    assert inst.untyped_goods == (0, 1)


def test_random_instance_bad_ranges():
    with pytest.raises(ValueError):
        random_instance(seed=1, n=2, m=2, budget_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        random_instance(seed=1, n=2, m=2, type_spec=((0, 0),))
    for n, m in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="n and m must be positive"):
            random_instance(seed=1, n=n, m=m)
    for capacity_range in ((0.0, 1.0), (2.0, 1.0)):
        with pytest.raises(ValueError, match="capacity_range must satisfy"):
            random_instance(seed=1, n=2, m=2, capacity_range=capacity_range)


# --- JSON round trip -------------------------------------------------------------


def test_json_round_trip_exact(tmp_path):
    inst = random_instance(
        seed=7, n=5, m=4, type_spec=((0, 1),), budget_range=(0.3, 7.7),
        utility_range=(0.01, 3.3), capacity_range=(0.5, 2.0),
    )
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.utilities, inst.utilities)
    assert np.array_equal(back.budgets, inst.budgets)
    assert np.array_equal(back.capacities, inst.capacities)
    assert back.types == inst.types
    assert np.array_equal(back.participation, inst.participation)


def test_dict_schema_fields():
    d = instance_to_dict(builtin_instance("prop2"))
    assert set(d) == {"n", "m", "utilities", "budgets", "capacities", "types"}
    assert d["n"] == 3 and d["m"] == 3
    assert d["types"] == [[0, 1]]


def test_dict_declared_sizes_checked():
    d = instance_to_dict(builtin_instance("prop2"))
    d["n"] = 4
    with pytest.raises(ValueError):
        instance_from_dict(d)
    d["n"], d["m"] = 3, 4
    with pytest.raises(ValueError, match="declared m=4 but utilities have 3 columns"):
        instance_from_dict(d)


def test_participation_round_trip():
    inst = MarketInstance(
        utilities=[[1.0, 1.0], [1.0, 1.0]],
        budgets=[1.0, 1.0],
        capacities=[0.5, 0.5],
        types=((0,),),
        participation=[[True], [False]],
    )
    back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
    assert back.participation.tolist() == [[True], [False]]


@settings(deadline=None, max_examples=60)
@given(small_markets())
def test_generated_instances_validate(inst):
    rep = validate_instance(inst)
    assert rep.errors == []


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(utilities=[1.0, 2.0], budgets=[1.0], capacities=[1.0, 1.0]),
         "utilities must be a 2-D matrix"),
        (dict(utilities=[[1.0, 2.0]], budgets=[1.0, 1.0], capacities=[1.0, 1.0]),
         "budgets must have length 1"),
        (dict(utilities=[[1.0, 2.0]], budgets=[1.0], capacities=[1.0]),
         "capacities must have length 2"),
        (dict(utilities=[[1.0, 2.0]], budgets=[1.0], capacities=[1.0, 1.0], types=((0,),),
              participation=[[True, False]]),
         "participation must have shape (1, 1)"),
    ],
)
def test_instance_shape_errors(kwargs, message):
    with pytest.raises(ValueError) as err:
        MarketInstance(**kwargs)
    assert str(err.value) == message


def test_instance_is_immutable():
    inst = builtin_instance("prop2")
    with pytest.raises(ValueError):
        inst.utilities[0, 0] = 5.0
