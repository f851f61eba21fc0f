"""Tests of the benchmark itself: the independent checks reject corrupted
outputs, and the traced run leaves the program as it found it.

    python3 -m pytest bench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from checks import (
    Market,
    clearing_residuals,
    equilibrium_allocation,
    kkt_residuals,
    optimality_gaps,
    unbounded_grid_points,
)
from typedfisher import fixedpoint, instances, solver, verify

BENCH = Path(__file__).resolve().parent


def worst(residuals):
    return max(residuals.values())


@pytest.fixture(scope="module")
def slack():
    """A small slack market with an untyped good, solved by the program."""
    inst = workloads._slack_market(3, 30, 7, 2, 3, (0.05, 0.3))
    x, duals, stats = solver.solve_sop1(inst)
    assert stats.success
    return inst, x, duals


@pytest.fixture(scope="module")
def prop2_equilibrium():
    inst = instances.builtin_instance("prop2")
    res = fixedpoint.run(inst)
    assert res.trace.status == "converged"
    return inst, res.prices, res.allocation


def slack_kkt(slack, x=None, p=None, r=None):
    inst, x0, d = slack
    return kkt_residuals(
        Market.of(inst), np.zeros(inst.n_agents),
        x0 if x is None else x, d.p if p is None else p, d.r if r is None else r, d.s,
    )


def test_kkt_accepts_solver_output(slack):
    assert worst(slack_kkt(slack)) <= workloads.KKT_TOL


def test_kkt_rejects_shifted_price(slack):
    p = slack[2].p.copy()
    p[0] += 1e-3
    res = slack_kkt(slack, p=p)
    assert res["stationarity"] > workloads.KKT_TOL
    assert res["budget_gap"] > workloads.KKT_TOL


def test_kkt_rejects_dropped_type_dual(slack):
    r = slack[2].r.copy()
    i, t = np.unravel_index(np.argmax(r), r.shape)
    assert r[i, t] > 1e-3
    r[i, t] = 0.0
    res = slack_kkt(slack, r=r)
    assert res["stationarity"] > workloads.KKT_TOL
    assert res["budget_gap"] > workloads.KKT_TOL


def test_kkt_rejects_moved_allocation(slack):
    x = slack[1].copy()
    j = 6  # the untyped good
    a, b = np.argmax(x[:, j]), np.argmin(x[:, j])
    x[a, j] -= 1.0
    x[b, j] += 1.0
    assert worst(slack_kkt(slack, x=x)) > workloads.KKT_TOL


def test_equilibrium_checks_accept_fixed_point(prop2_equilibrium):
    inst, p, x = prop2_equilibrium
    mkt = Market.of(inst)
    assert worst(clearing_residuals(mkt, p, x)) <= workloads.EQUILIBRIUM_TOL
    assert optimality_gaps(mkt, p, x).max() <= workloads.EQUILIBRIUM_TOL


def test_equilibrium_checks_reject_shifted_price(prop2_equilibrium):
    inst, p, x = prop2_equilibrium
    p = p + np.array([0.5, 0.0, 0.0])
    assert clearing_residuals(Market.of(inst), p, x)["budget"] > workloads.EQUILIBRIUM_TOL


def test_equilibrium_checks_reject_moved_unit(prop2_equilibrium):
    inst, p, x = prop2_equilibrium
    mkt = Market.of(inst)
    x = x.copy()
    a, b = np.argsort(x[:, 1])[-2:]  # two holders of good 2
    x[a, 1] -= 1.0
    x[b, 1] += 1.0
    res = clearing_residuals(mkt, p, x)
    assert res["clearing"] <= workloads.EQUILIBRIUM_TOL  # a move keeps clearing
    assert res["budget"] > workloads.EQUILIBRIUM_TOL
    assert optimality_gaps(mkt, p, x).max() > workloads.EQUILIBRIUM_TOL


def test_lp_optimality_rejects_worse_bundle(prop2_equilibrium):
    inst, p, x = prop2_equilibrium
    x = x.copy()
    x[0] *= 0.5
    assert optimality_gaps(Market.of(inst), p, x)[0] > workloads.EQUILIBRIUM_TOL


def test_certificate_accepts_known_equilibria_only():
    mkt = Market.of(instances.builtin_instance("prop2"))
    for p in workloads.PROP2_KNOWN_EQUILIBRIA:
        x = equilibrium_allocation(mkt, p)
        assert x is not None
        assert worst(clearing_residuals(mkt, p, x)) <= 1e-6
    assert equilibrium_allocation(mkt, (11.5, 10.0, 9.0)) is None
    prop1 = Market.of(instances.builtin_instance("prop1"))
    assert equilibrium_allocation(prop1, (15.0, 0.0)) is None


def test_skipped_grid_points_match_unbounded_faces():
    for name, grid, expected in (("prop1", workloads.PROP1_GRID, 0), ("prop2", workloads.PROP2_GRID, 169)):
        inst = instances.builtin_instance(name)
        assert unbounded_grid_points(Market.of(inst), *grid) == expected
        assert verify.grid_nonexistence(inst, *grid).points_skipped == expected


def test_tracer_restores_functions():
    originals = [getattr(module, attr) for module, attr, _ in tracing.SITES]
    with tracing.Tracer() as tracer:
        assert all(getattr(m, a) is not o for (m, a, _), o in zip(tracing.SITES, originals))
        solver.solve_sop1(instances.builtin_instance("prop2"))
    assert all(getattr(m, a) is o for (m, a, _), o in zip(tracing.SITES, originals))
    recorded = {tracer.names[int(k)] for k in tracer.spans[::4]}
    assert {tracing.SOLVE, tracing.VALIDATE, tracing.INV} <= recorded


def test_layer_metrics_of_a_traced_fixed_point():
    inst = instances.builtin_instance("prop2")
    with tracing.Tracer() as tracer:
        res = fixedpoint.run(inst)
    layer = {k: v for k, (v, _) in tracer.layer_metrics(rounds=1).items()}
    assert layer["fixedpoint.outer_iters"] == res.trace.iterations
    assert layer["solver.calls"] == res.trace.iterations
    assert layer["instances.validate_calls"] == res.trace.iterations
    newton = sum(d.solver_iterations for d in res.trace.duals_per_iter)
    assert layer["solver.newton_iters"] == newton / res.trace.iterations
    assert 0.0 < layer["solver.self_s"] < layer["solver.busy_s"]


def test_untraced_run_calls_unwrapped_functions():
    inst = instances.builtin_instance("prop2")
    wl = workloads.Workload("tiny", [inst], [workloads._fixed_point_op(inst)])
    reference = run.reference_kernel()
    with tracing.Tracer():
        run.measure(wl, 0.0, reference)
    wrapper = tracing.Tracer()._wrap(len, tracing.SOLVE).__code__
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        records, _, _ = run.measure(wl, 0.0, reference)
    finally:
        sys.setprofile(None)
    assert records[0]["ok"]
    assert wrapper not in called
    assert solver.solve_bpsop.__code__ in called


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "price-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
