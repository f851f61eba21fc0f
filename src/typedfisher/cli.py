"""Command line interface.

Commands: validate | solve | fixed-point | check | reproduce | gen.
Exit codes: 0 success/pass, 1 domain failure (validation errors,
non-convergence, failed check), 2 usage or parse error.  All numeric JSON
output is rounded to 12 significant digits so reruns diff cleanly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .demand import UnboundedDemandError, demand
from .fixedpoint import DEFAULT_EPS, DEFAULT_MAX_ITER
from .fixedpoint import run as run_fixed_point
from .fixedpoint import write_trace_csv
from .instances import (
    BUILTIN_NAMES,
    MarketInstance,
    builtin_instance,
    load_instance,
    random_instance,
    save_instance,
    validate_instance,
)
from .solver import DEFAULT_TOL, solve_bpsop
from .verify import check_equilibrium, grid_nonexistence, sop1_budget_gap

REPRODUCE_NAMES = ("prop1", "prop2", "iop_ex1", "iop_ex2", "experiment", "sop1_gap")

IOP_EXAMPLE_PRICES = (0.1, 0.4, 0.7, 1.2, 1.7, 2.4)


def _sig12(obj):
    """Round every float in a JSON-ish structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _sig12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sig12(v) for v in obj]
    return obj


def _write(path: str, write) -> None:
    """Call ``write(path)``; a path that cannot be written is a usage error."""
    try:
        write(path)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(_sig12(payload), indent=2)
    if out:
        _write(out, lambda path: Path(path).write_text(text + "\n"))
    click.echo(text)


def _load(builtin: str | None, instance: str | None, seed: int) -> MarketInstance:
    if (builtin is None) == (instance is None):
        raise click.UsageError("specify exactly one of --builtin or --instance")
    if builtin is not None:
        if builtin not in BUILTIN_NAMES:
            raise click.UsageError(
                f"unknown builtin {builtin!r}; choose from {BUILTIN_NAMES}"
            )
        return builtin_instance(builtin, seed=seed)
    try:
        return load_instance(instance)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"cannot read instance file: {exc}")


def _require_valid(inst: MarketInstance) -> None:
    """Exit 1 with the validation errors of an instance that cannot be solved."""
    errors = validate_instance(inst).errors
    if errors:
        click.echo("\n".join(f"error: {err}" for err in errors), err=True)
        sys.exit(1)


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise click.UsageError(f"{flag} expects 'lo,hi'")
    if not 0 < lo <= hi:
        raise click.UsageError(f"{flag} expects 0 < lo <= hi, got {text!r}")
    return lo, hi


def _parse_types(spec: str, m: int) -> tuple[tuple[int, ...], ...]:
    """Type spec grammar: 'none', 'TxK' (T types of K consecutive goods),
    or an explicit JSON list of 0-based index lists."""
    spec = spec.strip()
    if spec in ("", "none"):
        return ()
    if spec.startswith("["):
        try:
            return tuple(tuple(int(j) for j in t) for t in json.loads(spec))
        except (ValueError, TypeError):
            raise click.UsageError(f"bad --types JSON {spec!r}")
    try:
        t, k = (int(v) for v in spec.lower().split("x"))
    except ValueError:
        raise click.UsageError(f"bad --types spec {spec!r}; use TxK, JSON, or 'none'")
    if t < 1 or k < 1:
        raise click.UsageError(f"--types {spec} needs T >= 1 and K >= 1; use 'none' for no types")
    if t * k > m:
        raise click.UsageError(f"--types {spec} needs {t * k} goods but m={m}")
    return tuple(tuple(range(i * k, (i + 1) * k)) for i in range(t))


# --- reproduction pipelines -------------------------------------------------


def _rows_iop_example(name: str):
    """Worked single-agent demand examples; exact expected allocations."""
    inst = builtin_instance(name)
    p = np.array(IOP_EXAMPLE_PRICES)
    d = demand(inst, 0, p)
    if name == "iop_ex1":
        x_exp = np.array([0.0, 0.0, 0.5, 1.0, 0.5, 0.0])
        ledger_exp = [(0.1, 1.0, 0.1), (0.2, 1.0, 0.4), (0.3, 1.0, 0.6),
                      (0.4, 1.0, 0.8), (0.5, 0.5, 0.5)]
    else:
        x_exp = np.array([0.0, 1.0, 1.0, 0.0, 2.0, 0.0])
        ledger_exp = [(0.1, 1.0, 0.1), (0.2, 1.0, 0.4), (0.3, 1.0, 0.6),
                      (0.34, 2.0, 3.4)]
    rows = []
    err = float(np.max(np.abs(d.x - x_exp)))
    rows.append((f"allocation = {x_exp.tolist()}", err <= 1e-9, f"max err {err:.2e}"))
    ok = len(d.ledger) == len(ledger_exp)
    detail = []
    for got, (slope, units, cost) in zip(d.ledger, ledger_exp):
        ok &= (
            abs(got.slope - slope) <= 1e-9
            and abs(got.units - units) <= 1e-9
            and abs(got.cost - cost) <= 1e-9
        )
        detail.append(f"{got.units:g} unit of slope {got.slope:g} for {got.cost:g}")
    rows.append(("purchase ledger", ok, "; ".join(detail)))
    if name == "iop_ex2":
        unbounded = [pu for pu in d.ledger if pu.type_id is None]
        theta5 = unbounded[0].slope if unbounded else float("nan")
        rows.append(
            ("cap-free rate theta_5 = 0.34", abs(theta5 - 0.34) <= 1e-12, f"{theta5:g}")
        )
    return rows


def _rows_prop2():
    inst = builtin_instance("prop2")
    x_star = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    rows = []
    for p in ([11.0, 10.0, 9.0], [10.0, 10.0, 10.0]):
        rep = check_equilibrium(
            inst, p, x_star, tol_clearing=1e-9, tol_budget=1e-9, tol_opt=1e-9
        )
        rows.append(
            (
                f"equilibrium at p = {p}",
                rep.passed,
                f"clearing {rep.max_clearing:.1e}, budget {rep.max_budget:.1e}, "
                f"gap {rep.max_gap:.1e}",
            )
        )
    return rows


def _rows_prop1(p_max: float = 30.0, step: float = 0.05):
    inst = builtin_instance("prop1")
    scan = grid_nonexistence(inst, p_max=p_max, step=step)
    rows = [
        (
            f"no price in [0,{p_max:g}]^2 comes near clearing (min residual >= 0.1)",
            scan.min_residual >= 0.1,
            f"min residual {scan.min_residual:.4g} at p = {scan.argmin_price.tolist()} "
            f"({scan.points_evaluated} grid points; "
            f"margin {scan.min_residual:.4g} / step {step:g})",
        )
    ]
    return rows


def _rows_experiment(seed: int, eps: float = 1e-6, max_iter: int = 100):
    inst = builtin_instance("experiment", seed=seed)
    result = run_fixed_point(inst, eps=eps, max_iter=max_iter)
    trace = result.trace
    rows = [
        (
            f"fixed point converges in <= {max_iter} iterations",
            trace.status == "converged" and trace.iterations <= max_iter,
            f"status {trace.status} after {trace.iterations} iterations",
        )
    ]
    if trace.status == "converged":
        rep = check_equilibrium(
            inst, result.prices, result.allocation,
            tol_clearing=1e-5, tol_budget=1e-5, tol_opt=1e-5,
        )
        rows.append(
            (
                "final (p, x) is an equilibrium at tol 1e-5",
                rep.passed,
                f"clearing {rep.max_clearing:.1e}, budget {rep.max_budget:.1e}, "
                f"gap {rep.max_gap:.1e}",
            )
        )
        tsum_dev = float(np.max(np.abs(result.allocation @ inst.incidence.T - 1.0)))
        rows.append(
            (
                "every agent holds exactly one unit per type",
                tsum_dev <= 1e-5,
                f"max deviation {tsum_dev:.1e}",
            )
        )
    return rows


def _rows_sop1_gap(seed: int):
    inst = builtin_instance("experiment", seed=seed)
    bg = sop1_budget_gap(inst, tol=1e-6)
    rows = [
        (
            "unperturbed prices leave some budget unspent (gap > 1e-3)",
            bool(np.any(bg.gaps > 1e-3)),
            f"max gap {float(bg.gaps.max()):.4g}",
        ),
        (
            "per-agent identity w - p.x = sum_t r_t within 1e-6",
            bg.max_identity_residual <= 1e-6,
            f"max residual {bg.max_identity_residual:.1e}",
        ),
    ]
    return rows


def _rows(name: str, seed: int):
    """(label, passed, detail) rows of one reproduction."""
    if name in ("iop_ex1", "iop_ex2"):
        return _rows_iop_example(name)
    if name == "prop2":
        return _rows_prop2()
    if name == "prop1":
        return _rows_prop1()
    if name == "experiment":
        return _rows_experiment(seed)
    return _rows_sop1_gap(seed)


# --- click wiring -----------------------------------------------------------


def _common(f):
    f = click.option("--builtin", type=str, default=None,
                     help=f"builtin instance, one of {', '.join(BUILTIN_NAMES)}")(f)
    f = click.option("--instance", type=click.Path(), default=None,
                     help="instance JSON file")(f)
    f = click.option("--seed", type=int, default=1, show_default=True)(f)
    f = click.option("--out", type=click.Path(), default=None,
                     help="also write the JSON result here")(f)
    return f


def _positive_tol(ctx, param, value):
    if not (np.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be finite and positive, got {value}")
    return value


_solver_tol = click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
                           callback=_positive_tol, help="solver tolerance")


@click.group()
def main():
    """Market equilibria for Fisher markets with resource-type constraints."""


@main.command()
@_common
def validate(builtin, instance, seed, out):
    """Check instance invariants; exit 0 only if error-free."""
    rep = validate_instance(_load(builtin, instance, seed))
    _emit({"errors": rep.errors, "warnings": rep.warnings, "ok": rep.ok}, out)
    sys.exit(0 if rep.ok else 1)


@main.command()
@_common
@_solver_tol
@click.option("--sop1", is_flag=True, help="solve with zero perturbations")
@click.option("--lam", "--lambda", "lam", type=str, default=None,
              help="JSON list of budget perturbations")
def solve(builtin, instance, tol, seed, out, sop1, lam):
    """Solve the social program and report allocation and duals."""
    if sop1 and lam is not None:
        raise click.UsageError("--sop1 solves with zero perturbations; drop --lam")
    inst = _load(builtin, instance, seed)
    lam_vec = np.zeros(inst.n_agents)
    if lam is not None:
        try:
            lam_vec = np.asarray(json.loads(lam), dtype=float)
        except (ValueError, TypeError):
            raise click.UsageError(f"--lam expects a JSON list, got {lam!r}")
        valid = np.all(np.isfinite(lam_vec)) and np.all(lam_vec >= 0)
        if lam_vec.shape != (inst.n_agents,) or not valid:
            raise click.UsageError(
                f"--lam must list {inst.n_agents} finite nonnegative values"
            )
    _require_valid(inst)
    x, duals, stats = solve_bpsop(inst, lam_vec, tol=tol)
    payload = {
        "status": stats.status,
        "lambda": lam_vec.tolist(),
        "prices": duals.p.tolist(),
        "allocation": x.tolist(),
        "r": duals.r.tolist(),
        "objective": duals.objective,
        "residuals": {
            "stationarity": stats.stationarity_residual,
            "feasibility": stats.primal_feasibility_residual,
            "complementarity": stats.complementarity_residual,
        },
        "iterations": stats.iterations,
    }
    _emit(payload, out)
    sys.exit(0 if stats.success else 1)


@main.command("fixed-point")
@_common
@_solver_tol
@click.option("--eps", type=float, default=DEFAULT_EPS, show_default=True,
              help="fixed-point tolerance")
@click.option("--max-iter", type=click.IntRange(min=1), default=DEFAULT_MAX_ITER,
              show_default=True)
@click.option("--trace", type=click.Path(), default=None,
              help="write iter/residual/lambda CSV here")
def fixed_point(builtin, instance, tol, seed, out, eps, max_iter, trace):
    """Iterate the budget perturbations to market-clearing prices."""
    if not (np.isfinite(eps) and eps >= 0):
        raise click.UsageError(f"--eps must be finite and nonnegative, got {eps}")
    inst = _load(builtin, instance, seed)
    _require_valid(inst)
    result = run_fixed_point(inst, eps=eps, max_iter=max_iter, solver_tol=tol)
    tr = result.trace
    payload = {
        "status": tr.status,
        "iterations": tr.iterations,
        "newton_iterations": sum(d.solver_iterations for d in tr.duals_per_iter),
        # the largest per-agent multiplier of each step
        "step_scales": [float(s.max()) for s in tr.step_scales],
        # how each inner solve started: cold, warm or fallback
        "solver_starts": [d.solver_start for d in tr.duals_per_iter],
        "lambda": result.lam.tolist(),
        "prices": result.prices.tolist(),
        "allocation": result.allocation.tolist(),
        "residuals": {
            "fixed_point": tr.residuals[-1],
            "solver_stationarity": result.solve_stats.stationarity_residual,
            "solver_feasibility": result.solve_stats.primal_feasibility_residual,
        },
    }
    if trace:
        _write(trace, lambda path: write_trace_csv(tr, path))
    _emit(payload, out)
    sys.exit(0 if tr.status == "converged" else 1)


@main.command()
@_common
@click.option("--prices", type=str, required=True, help="JSON list of prices")
@click.option("--alloc", type=click.Path(), required=True,
              help="JSON file holding the allocation matrix")
@click.option("--check-tol", type=float, default=None,
              help="override all three check tolerances")
def check(builtin, instance, seed, out, prices, alloc, check_tol):
    """Verify a candidate (prices, allocation) pair as an equilibrium."""
    inst = _load(builtin, instance, seed)
    try:
        p = np.asarray(json.loads(prices), dtype=float)
    except (ValueError, TypeError):
        raise click.UsageError(f"--prices expects a JSON list, got {prices!r}")
    try:
        doc = json.loads(Path(alloc).read_text())
        x = np.asarray(doc["allocation"] if isinstance(doc, dict) else doc, dtype=float)
    except KeyError:
        raise click.UsageError(f'--alloc file {alloc} has no "allocation" key')
    except (OSError, ValueError, TypeError) as exc:
        raise click.UsageError(f"cannot read an allocation matrix from {alloc}: {exc}")
    kwargs = {}
    if check_tol is not None:
        kwargs = dict(tol_clearing=check_tol, tol_budget=check_tol, tol_opt=check_tol)
    try:
        rep = check_equilibrium(inst, p, x, **kwargs)
    except UnboundedDemandError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except ValueError as exc:  # prices or allocation of the wrong shape or sign
        raise click.UsageError(str(exc))
    payload = {
        "pass": rep.passed,
        "clearing_residuals": rep.clearing_residuals.tolist(),
        "budget_residuals": rep.budget_residuals.tolist(),
        "optimality_gaps": rep.optimality_gaps.tolist(),
        "feasibility_violations": rep.feasibility_violations,
        "tolerances": {
            "clearing": rep.tol_clearing,
            "budget": rep.tol_budget,
            "optimality": rep.tol_opt,
        },
    }
    _emit(payload, out)
    sys.exit(0 if rep.passed else 1)


@main.command()
@click.argument("names", nargs=-1, type=click.Choice(REPRODUCE_NAMES))
@click.option("--seed", type=int, default=1, show_default=True)
def reproduce(names, seed):
    """Re-derive documented results (all when no NAME is given) and print
    a pass/fail table for each; exit with the worst code."""
    worst = 0
    for name in names or REPRODUCE_NAMES:
        if len(names) != 1:
            click.echo(f"--- {name} ---")
        rows = _rows(name, seed)
        width = max(len(r[0]) for r in rows)
        for label, ok, detail in rows:
            worst = max(worst, 0 if ok else 1)
            click.echo(f"{'PASS' if ok else 'FAIL'}  {label:<{width}}  {detail}")
    sys.exit(worst)


@main.command()
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("-n", type=int, required=True, help="number of agents")
@click.option("-m", type=int, required=True, help="number of goods")
@click.option("--types", type=str, default="none", show_default=True,
              help="TxK, JSON index lists, or 'none'")
@click.option("--w-range", type=str, default="1,10", show_default=True)
@click.option("--u-range", type=str, default="0.1,1", show_default=True)
@click.option("--cap-range", type=str, default=None,
              help="capacity range; default ties capacities to type sizes")
@click.option("-o", "--out", "out", type=click.Path(), required=True)
def gen(seed, n, m, types, w_range, u_range, cap_range, out):
    """Write a seeded random instance to a JSON file."""
    try:
        inst = random_instance(
            seed=seed,
            n=n,
            m=m,
            type_spec=_parse_types(types, m),
            budget_range=_parse_range(w_range, "--w-range"),
            utility_range=_parse_range(u_range, "--u-range"),
            capacity_range=_parse_range(cap_range, "--cap-range") if cap_range else None,
        )
    except ValueError as exc:  # sizes or ranges the generator refuses
        raise click.UsageError(str(exc))
    _write(out, lambda path: save_instance(inst, path))
    click.echo(json.dumps({"written": out, "n": n, "m": m}))


if __name__ == "__main__":
    main()
