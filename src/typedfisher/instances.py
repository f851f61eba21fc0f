"""Data model for Fisher markets with per-agent resource-type constraints.

A market has n agents spending artificial-currency budgets on m divisible,
capacity-constrained goods.  Goods may be grouped into pairwise-disjoint
resource *types*; an agent participating in a type may hold at most one
unit of that type's goods in total.  Goods outside every type (and typed
goods of types an agent does not participate in) are unconstrained for
that agent.

Indices are 0-based in code and in JSON files.  Human-facing messages
use 1-based numbering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

BUILTIN_NAMES = ("prop1", "prop2", "iop_ex1", "iop_ex2", "experiment")


@dataclass(frozen=True)
class MarketInstance:
    """Immutable description of one constrained Fisher market.

    Attributes:
        utilities: (n, m) array, utility of agent i per unit of good j, >= 0.
        budgets: (n,) array of positive budgets w_i.
        capacities: (m,) array of positive capacities, units of each good.
        types: tuple of sorted good-index tuples, pairwise disjoint.
        participation: (n, T) bool mask; participation[i, t] means agent i
            is bound by the type-t constraint.  Defaults to all True.
    """

    utilities: np.ndarray
    budgets: np.ndarray
    capacities: np.ndarray
    types: tuple[tuple[int, ...], ...] = ()
    participation: np.ndarray | None = None

    def __post_init__(self):
        u = np.array(self.utilities, dtype=float)
        w = np.array(self.budgets, dtype=float)
        s = np.array(self.capacities, dtype=float)
        if u.ndim != 2:
            raise ValueError("utilities must be a 2-D matrix")
        n, m = u.shape
        if w.shape != (n,):
            raise ValueError(f"budgets must have length {n}")
        if s.shape != (m,):
            raise ValueError(f"capacities must have length {m}")
        types = tuple(tuple(sorted(int(j) for j in t)) for t in self.types)
        part = self.participation
        if part is None:
            part = np.ones((n, len(types)), dtype=bool)
        else:
            part = np.array(part, dtype=bool)
            if part.shape != (n, len(types)):
                raise ValueError(f"participation must have shape ({n}, {len(types)})")
        # each array is a read-only view of a private read-only copy, which
        # numpy never makes writeable again, so no cache outlives its market
        arrays = {"utilities": u, "budgets": w, "capacities": s, "participation": part}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr.view())
        object.__setattr__(self, "types", types)

    @property
    def n_agents(self) -> int:
        return self.utilities.shape[0]

    @property
    def n_goods(self) -> int:
        return self.utilities.shape[1]

    @property
    def n_types(self) -> int:
        return len(self.types)

    @cached_property
    def incidence(self) -> np.ndarray:
        """(T, m) 0/1 type incidence, a read-only view like the market's arrays.

        ``x @ incidence.T`` gives each agent's type sums and
        ``R @ incidence`` spreads an (n, T) array of type duals over goods.
        Goods outside 0..m-1 are left out; validation reports them.
        """
        inc = np.zeros((self.n_types, self.n_goods))
        for t, goods in enumerate(self.types):
            inc[t, [j for j in goods if 0 <= j < self.n_goods]] = 1.0
        inc.setflags(write=False)
        return inc.view()

    @cached_property
    def tight_types(self) -> tuple[int, ...]:
        """The degenerate-tight types, ascending.

        A type is degenerate-tight when every agent participates in it and
        its capacity equals n (relative tolerance 1e-9): each of its
        constraints then holds with equality at every feasible point.
        """
        capacity, participants = _type_totals(self)
        n = self.n_agents
        tight = (participants == n) & (
            np.abs(capacity - participants) <= _TIGHT_RTOL * np.maximum(1, participants)
        )
        return tuple(int(t) for t in np.flatnonzero(tight))

    @cached_property
    def untyped_goods(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(~self.incidence.any(axis=0)).tolist())

    def unbounded_goods(self, agent: int) -> tuple[int, ...]:
        """Goods agent may purchase without a type cap.

        Untyped goods, plus goods of types the agent does not participate in.
        """
        capped = self.participation[agent] @ self.incidence
        return tuple(np.flatnonzero(capped == 0).tolist())

    def participating_types(self, agent: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.participation[agent]).tolist())

    @cached_property
    def _validation(self) -> ValidationReport:
        """The report of ``validate_instance``, built on its first call."""
        return _validate(self)


# relative tolerance of the degenerate-tight rule: |capacity - n| <= tol * max(1, n)
_TIGHT_RTOL = 1e-9


def _type_totals(inst: MarketInstance) -> tuple[np.ndarray, np.ndarray]:
    """(T,) total capacity of each type's goods and (T,) participant counts."""
    capacity = np.where(inst.incidence > 0, inst.capacities, 0.0).sum(axis=1)
    return capacity, inst.participation.sum(axis=0)


@dataclass
class ValidationReport:
    """Hard invariant failures plus advisory warnings for one instance."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def validate_instance(inst: MarketInstance) -> ValidationReport:
    """Check hard invariants and emit structural warnings.

    The checks run once per instance, which is immutable; every call
    returns a new report with its own lists.

    Errors make the instance unusable for solving (overlapping types,
    nonpositive budgets or capacities, an agent valuing nothing, or a type
    that every agent joins with aggregate capacity above n, which makes
    clearing impossible; an agent that ignores a type holds its goods
    without a cap).  The tolerance is ``tight_types``' one, so no type is
    both tight and infeasible.  Warnings flag legal but noteworthy
    structure: a missing untyped good (equilibrium existence is then not
    guaranteed), exactly tight type capacity, goods nobody values, and
    agents that value goods of types they ignore.
    """
    rep = inst._validation
    return ValidationReport(list(rep.errors), list(rep.warnings))


def _validate(inst: MarketInstance) -> ValidationReport:
    """``validate_instance``'s checks."""
    rep = ValidationReport()
    m = inst.n_goods

    seen: set[int] = set()
    out_of_range: set[int] = set()
    for t, goods in enumerate(inst.types):
        for j in goods:
            if not 0 <= j < m:
                out_of_range.add(t)
                rep.errors.append(
                    f"type {t + 1} references good {j + 1} outside 1..{m}"
                )
            elif j in seen:
                rep.errors.append(f"types overlap at good {j + 1}")
            else:
                seen.add(j)

    positive = inst.utilities > 0
    bad_budget = inst.budgets <= 0
    values_nothing = ~positive.any(axis=1)
    for i in np.flatnonzero(bad_budget | values_nothing):
        if bad_budget[i]:
            rep.errors.append(f"budget of agent {i + 1} is not positive")
        if values_nothing[i]:
            rep.errors.append(f"agent {i + 1} has no positively valued good")
    for j in np.flatnonzero(inst.capacities <= 0):
        rep.errors.append(f"capacity of good {j + 1} is not positive")
    if np.any(inst.utilities < 0):
        i, j = np.argwhere(inst.utilities < 0)[0]
        rep.errors.append(f"utility of agent {i + 1} for good {j + 1} is negative")
    if not (
        np.all(np.isfinite(inst.utilities))
        and np.all(np.isfinite(inst.budgets))
        and np.all(np.isfinite(inst.capacities))
    ):
        rep.errors.append("non-finite entries")

    # Per-type clearing feasibility: when every agent participates, the
    # total capacity of a type's goods must be coverable at one unit each.
    capacity, participants = _type_totals(inst)
    n = inst.n_agents
    for t in range(inst.n_types):
        if t in out_of_range:
            continue
        if participants[t] == n and capacity[t] - n > _TIGHT_RTOL * max(1, n):
            rep.errors.append(
                f"type {t + 1} capacity {capacity[t]:.12g} exceeds its "
                f"{n} participating agents; clearing infeasible"
            )
        elif t in inst.tight_types:
            rep.warnings.append(
                f"degenerate-tight: type {t + 1} capacity equals participant count"
            )

    if not inst.untyped_goods:
        rep.warnings.append("no-untyped-good")
    elif np.any(inst.utilities == 0):
        rep.warnings.append("existence-condition: zero utility entries")

    for j in np.flatnonzero(~positive.any(axis=0)):
        rep.warnings.append(f"good {j + 1} valued by no agent")

    values_type = positive @ inst.incidence.T > 0
    for i, t in np.argwhere(values_type & ~inst.participation):
        rep.warnings.append(
            f"agent {i + 1} ignores type {t + 1} but values its goods; "
            "purchases are unbounded"
        )

    return rep


def builtin_instance(name: str, seed: int = 1) -> MarketInstance:
    """Return one of the named reference markets.

    prop1 is the two-buyer market with no equilibrium, prop2 the
    three-buyer market with two distinct equilibrium price vectors,
    iop_ex1/iop_ex2 the six-good single-agent demand examples, and
    experiment the 200-agent, 6-good, 3-type market with capacities 100
    and seeded random utilities and budgets.  ``seed`` affects only the
    experiment instance.
    """
    if name == "prop1":
        return MarketInstance(
            utilities=[[200.0, 0.1], [100.0, 1.1]],
            budgets=[15.0, 5.0],
            capacities=[1.5, 0.5],
            types=((0, 1),),
        )
    if name == "prop2":
        return MarketInstance(
            utilities=[[100.0, 1.0, 2.0], [1.0, 100.0, 1.0], [1.0, 100.0, 1.0]],
            budgets=[20.0, 10.0, 10.0],
            capacities=[1.0, 2.0, 1.0],
            types=((0, 1),),
        )
    if name == "iop_ex1":
        # Capacities are not part of the worked example (prices are supplied
        # by the caller); chosen so each type's capacity sums to the single
        # agent's unit cap.
        return MarketInstance(
            utilities=[[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]],
            budgets=[2.4],
            capacities=[1 / 3] * 6,
            types=((0, 2, 4), (1, 3, 5)),
        )
    if name == "iop_ex2":
        return MarketInstance(
            utilities=[[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]],
            budgets=[4.5],
            capacities=[0.5, 1 / 3, 0.5, 1 / 3, 1.0, 1 / 3],
            types=((0, 2), (1, 3, 5)),
        )
    if name == "experiment":
        return _experiment_instance(seed)
    raise ValueError(f"unknown builtin instance {name!r}; expected one of {BUILTIN_NAMES}")


def _experiment_instance(seed: int) -> MarketInstance:
    """200 agents, 6 goods in 3 types of 2, every capacity 100.

    Utilities combine a fixed per-good quality level (the two goods of a
    type differ in quality), a per-agent taste intensity, and mild
    idiosyncratic noise; budgets are uniform.  A shared within-type
    quality order keeps a positive mass of agents mixing between the two
    goods of each type, which is what lets this fully tight market clear
    exactly; with quality orders scrambled per agent, agents whose
    favorite good is the cheap one in every type could never spend their
    whole budget and no exact equilibrium would exist.
    """
    n, m = 200, 6
    quality = np.array([1.0, 2.0, 1.2, 2.5, 0.8, 1.7])
    rng = np.random.default_rng(seed)
    intensity = rng.uniform(0.5, 1.5, size=n)
    noise = rng.uniform(0.95, 1.05, size=(n, m))
    utilities = intensity[:, None] * quality[None, :] * noise
    budgets = rng.uniform(6.5, 8.5, size=n)
    return MarketInstance(
        utilities=utilities,
        budgets=budgets,
        capacities=np.full(m, 100.0),
        types=((0, 1), (2, 3), (4, 5)),
    )


def random_instance(
    seed: int,
    n: int,
    m: int,
    type_spec: Sequence[Sequence[int]] = (),
    budget_range: tuple[float, float] = (1.0, 10.0),
    utility_range: tuple[float, float] = (0.1, 1.0),
    capacity_range: tuple[float, float] | None = None,
) -> MarketInstance:
    """Seeded uniform-random market; a pure function of its arguments.

    Utilities then budgets (then capacities, when ``capacity_range`` is
    given) are drawn in that fixed order from ``numpy.random.default_rng(seed)``.
    Without ``capacity_range``, each typed good gets capacity n/|type| (so
    a fully participating type is exactly tight) and each untyped good n/m.
    """
    if n <= 0 or m <= 0:
        raise ValueError("n and m must be positive")
    for lo, hi in (budget_range, utility_range):
        if not (0 < lo <= hi):
            raise ValueError("ranges must satisfy 0 < lo <= hi")
    types = tuple(tuple(sorted(int(j) for j in t)) for t in type_spec)
    flat = [j for t in types for j in t]
    if len(flat) != len(set(flat)) or any(not 0 <= j < m for j in flat):
        raise ValueError("type_spec must partition a subset of goods")

    rng = np.random.default_rng(seed)
    utilities = rng.uniform(utility_range[0], utility_range[1], size=(n, m))
    budgets = rng.uniform(budget_range[0], budget_range[1], size=n)
    if capacity_range is not None:
        lo, hi = capacity_range
        if not (0 < lo <= hi):
            raise ValueError("capacity_range must satisfy 0 < lo <= hi")
        capacities = rng.uniform(lo, hi, size=m)
    else:
        capacities = np.empty(m)
        for j in range(m):
            in_type = next((t for t in types if j in t), None)
            capacities[j] = n / len(in_type) if in_type else n / m
    return MarketInstance(
        utilities=utilities, budgets=budgets, capacities=capacities, types=types
    )


# --- JSON serialization -----------------------------------------------------
#
# Schema: {"n": int, "m": int, "utilities": [[num]], "budgets": [num],
#          "capacities": [num], "types": [[int]], "participation": [[bool]]}
# participation is optional and defaults to all true.  Indices are 0-based.


def instance_to_dict(inst: MarketInstance) -> dict:
    d = {
        "n": inst.n_agents,
        "m": inst.n_goods,
        "utilities": inst.utilities.tolist(),
        "budgets": inst.budgets.tolist(),
        "capacities": inst.capacities.tolist(),
        "types": [list(t) for t in inst.types],
    }
    if not inst.participation.all():
        d["participation"] = inst.participation.tolist()
    return d


def instance_from_dict(d: dict) -> MarketInstance:
    inst = MarketInstance(
        utilities=d["utilities"],
        budgets=d["budgets"],
        capacities=d["capacities"],
        types=tuple(tuple(t) for t in d.get("types", [])),
        participation=d.get("participation"),
    )
    if "n" in d and d["n"] != inst.n_agents:
        raise ValueError(f"declared n={d['n']} but utilities have {inst.n_agents} rows")
    if "m" in d and d["m"] != inst.n_goods:
        raise ValueError(f"declared m={d['m']} but utilities have {inst.n_goods} columns")
    return inst


def save_instance(inst: MarketInstance, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n")


def load_instance(path: str | Path) -> MarketInstance:
    return instance_from_dict(json.loads(Path(path).read_text()))
