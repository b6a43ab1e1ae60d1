"""Command-line front end.

Subcommands: simulate, adjoint, optimize, verify-stability,
verify-limit, verify-convergence, gradcheck, report.  Problems are
described by a flat INI config (see ``DEFAULTS`` for every section and
key); outputs are deterministic for a fixed config and seed (binary
snapshots, CSV tables, plain-text summaries — no timestamps).

Exit codes: 0 success, 2 config error, 3 solver/runtime failure,
4 verification verdict failure.  Failures print one machine-parsable
line ``error: <category>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .adjoint import CostConfig, run_adjoint
from .assembly import CompatibilityError, EllipticityError, build_operators
from .control import (
    ControlProblem,
    LineSearchStagnation,
    control_norm,
    projected_gradient_descent,
)
from .forward import DivergenceError, ProblemConfig, run_forward
from .grid import (
    FieldSeries,
    Grid,
    ScalarField,
    TensorField,
    export_csv,
    write_snapshots,
)
from .ionic import IonicParams
from .linalg import SolverError
from .stimuli import box_mask, gaussian_bump, pulse_series, seeded_smooth_series
from .verify import (
    convergence_study,
    gradient_check,
    monodomain_limit_check,
    stability_experiment,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config schema: (section, key) -> (default, parser)


def _float(s):
    return float(s)


def _int(s):
    return int(s)


def _str(s):
    return s.strip()


def _floats(s):
    return tuple(float(p) for p in s.replace(",", " ").split())


def _ints(s):
    return tuple(int(p) for p in s.replace(",", " ").split())


def _opt_floats(s):
    s = s.strip()
    return None if not s else _floats(s)


def _opt_float(s):
    s = s.strip()
    return None if not s else float(s)


DEFAULTS = {
    ("grid", "dim"): (1, _int),
    ("grid", "nodes"): ((33,), _ints),
    ("grid", "lengths"): ((1.0,), _floats),
    ("grid", "t_final"): (1.0, _float),
    ("grid", "steps"): (50, _int),
    ("model", "kind"): ("rm", _str),
    ("model", "a"): (0.13, _float),
    ("model", "b"): (1.0, _float),
    ("model", "kappa"): (4.0, _float),
    ("model", "eps"): (0.01, _float),
    ("system", "kind"): ("monodomain", _str),
    ("system", "lambda"): (1.0, _float),
    ("system", "mi"): ((1.0,), _floats),
    ("system", "me"): (None, _opt_floats),
    ("system", "me_lambda"): (None, _opt_float),
    ("stimulus", "phi0_amplitude"): (0.0, _float),
    ("stimulus", "phi0_center"): ((0.5,), _floats),
    ("stimulus", "phi0_width"): (0.15, _float),
    ("stimulus", "ii_amplitude"): (0.0, _float),
    ("stimulus", "ii_center"): ((0.5,), _floats),
    ("stimulus", "ii_width"): (0.15, _float),
    ("stimulus", "ii_t0"): (0.0, _float),
    ("stimulus", "ii_t1"): (0.5, _float),
    ("stimulus", "ie_amplitude"): (0.0, _float),
    ("stimulus", "ie_center"): ((0.5,), _floats),
    ("stimulus", "ie_width"): (0.15, _float),
    ("stimulus", "ie_t0"): (0.0, _float),
    ("stimulus", "ie_t1"): (0.5, _float),
    ("stimulus", "profile"): ("smooth", _str),
    ("cost", "mu"): (0.01, _float),
    ("cost", "w_phi"): (1.0, _float),
    ("cost", "w_eta"): (0.0, _float),
    ("cost", "w_gate"): (0.0, _float),
    ("cost", "target"): ("rest", _str),
    ("cost", "mask"): ("full", _str),
    ("cost", "mask_lo"): ((0.0,), _floats),
    ("cost", "mask_hi"): ((1.0,), _floats),
    ("optimize", "budget"): (30, _int),
    ("optimize", "radius"): (None, _opt_float),
    ("optimize", "gtol"): (1e-6, _float),
    ("solver", "cg_tol"): (1e-10, _float),
    ("solver", "inner_tol"): (1e-11, _float),
    ("verify", "scales"): ((0.25, 0.5, 1.0, 2.0), _floats),
    ("verify", "levels"): (3, _int),
    ("verify", "direction_amplitude"): (1.0, _float),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]


def parse_config(path):
    """Parse and validate a flat INI run configuration."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    values = {key: default for key, (default, _) in DEFAULTS.items()}
    known_sections = {s for s, _ in DEFAULTS}
    for section in cp.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp.items(section):
            if (section, key) not in DEFAULTS:
                raise ConfigError(f"unknown key {section}.{key}")
            _, parser = DEFAULTS[(section, key)]
            try:
                values[(section, key)] = parser(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})")
    rc = RunConfig(values)
    _validate(rc)
    return rc


def _validate(rc):
    dim = rc[("grid", "dim")]
    if dim not in (1, 2, 3):
        raise ConfigError("grid.dim must be 1, 2 or 3")

    def _percoord(section, key):
        v = rc.values[(section, key)]
        if v is None:
            return
        if len(v) == 1:
            rc.values[(section, key)] = v * dim
        elif len(v) != dim:
            raise ConfigError(f"{section}.{key} needs 1 or {dim} entries")

    for sec, key in (
        ("grid", "nodes"),
        ("grid", "lengths"),
        ("system", "mi"),
        ("system", "me"),
        ("stimulus", "phi0_center"),
        ("stimulus", "ii_center"),
        ("stimulus", "ie_center"),
        ("cost", "mask_lo"),
        ("cost", "mask_hi"),
    ):
        _percoord(sec, key)
    if rc[("system", "kind")] not in ("monodomain", "bidomain"):
        raise ConfigError("system.kind must be monodomain or bidomain")
    if rc[("cost", "target")] not in ("rest", "uncontrolled"):
        raise ConfigError("cost.target must be rest or uncontrolled")
    if rc[("cost", "mask")] not in ("full", "box"):
        raise ConfigError("cost.mask must be full or box")
    if rc[("grid", "t_final")] <= 0 or rc[("grid", "steps")] < 1:
        raise ConfigError("grid.t_final must be positive and grid.steps >= 1")
    try:
        _ionic(rc)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}")


def serialize_config(rc):
    """Canonical INI text for a parsed config (parse -> serialize -> parse round-trips)."""
    lines = []
    current = None
    for (section, key), (default, _) in DEFAULTS.items():
        if section != current:
            if current is not None:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        v = rc.values[(section, key)]
        if v is None:
            text = ""
        elif isinstance(v, tuple):
            text = ",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, float):
            text = f"{v:.17g}"
        else:
            text = str(v)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# builders


def _ionic(rc):
    return IonicParams(
        kind=rc[("model", "kind")],
        a=rc[("model", "a")],
        b=rc[("model", "b")],
        kappa=rc[("model", "kappa")],
        eps=rc[("model", "eps")],
    )


def build_grid(rc):
    return Grid(
        rc[("grid", "nodes")],
        rc[("grid", "lengths")],
        rc[("grid", "t_final")],
        rc[("grid", "steps")],
    )


def _tensor(grid, diag):
    if all(d == diag[0] for d in diag):
        return TensorField.isotropic(grid, diag[0])
    return TensorField.diagonal(grid, diag)


def _stimulus_series(rc, grid, prefix):
    amp = rc[("stimulus", f"{prefix}_amplitude")]
    if amp == 0.0:
        return FieldSeries.zeros(grid)
    bump = gaussian_bump(
        grid, rc[("stimulus", f"{prefix}_center")], rc[("stimulus", f"{prefix}_width")], amp
    )
    return pulse_series(
        grid,
        bump,
        rc[("stimulus", f"{prefix}_t0")],
        rc[("stimulus", f"{prefix}_t1")],
        rc[("stimulus", "profile")],
    )


def build_problem(rc):
    grid = build_grid(rc)
    lam = rc[("system", "lambda")]
    mi = _tensor(grid, rc[("system", "mi")])
    kind = rc[("system", "kind")]
    me = None
    if kind == "bidomain":
        if rc[("system", "me")] is not None:
            me = _tensor(grid, rc[("system", "me")])
        else:
            me_lam = rc[("system", "me_lambda")]
            me = mi * (me_lam if me_lam is not None else lam)
    ops = build_operators(grid, mi, me, lam=lam)
    amp0 = rc[("stimulus", "phi0_amplitude")]
    if amp0 != 0.0:
        phi0 = gaussian_bump(
            grid, rc[("stimulus", "phi0_center")], rc[("stimulus", "phi0_width")], amp0
        )
    else:
        phi0 = ScalarField.zeros(grid)
    return ProblemConfig(
        grid=grid,
        ops=ops,
        ionic=_ionic(rc),
        kind=kind,
        phi0=phi0,
        w0=ScalarField.zeros(grid),
        I_i=_stimulus_series(rc, grid, "ii"),
        I_e=_stimulus_series(rc, grid, "ie"),
        cg_tol=rc[("solver", "cg_tol")],
        inner_tol=rc[("solver", "inner_tol")],
    )


def build_cost(rc, grid, *, phi_des=None):
    mask = None
    if rc[("cost", "mask")] == "box":
        mask = box_mask(grid, rc[("cost", "mask_lo")], rc[("cost", "mask_hi")])
    return CostConfig(
        mu=rc[("cost", "mu")],
        w_phi=rc[("cost", "w_phi")],
        w_eta=rc[("cost", "w_eta")],
        w_gate=rc[("cost", "w_gate")],
        phi_des=phi_des,
        mask=mask,
    )


def _target_phi(rc, problem):
    """Target series: rest (None) or the uncontrolled trajectory."""
    if rc[("cost", "target")] == "rest":
        return None
    base = replace(problem, I_e=FieldSeries.zeros(problem.grid))
    return run_forward(base, report=False).phi_tr


def build_control_problem(rc, problem=None):
    problem = problem if problem is not None else build_problem(rc)
    cost = build_cost(rc, problem.grid, phi_des=_target_phi(rc, problem))
    return ControlProblem(
        config=problem,
        cost=cost,
        radius=rc[("optimize", "radius")],
        budget=rc[("optimize", "budget")],
        gtol=rc[("optimize", "gtol")],
    )


# ---------------------------------------------------------------------------
# subcommands


def _write(path, text):
    Path(path).write_text(text)


def cmd_simulate(rc, args, out):
    problem = build_problem(rc)
    res = run_forward(problem)
    write_snapshots(out / "phi_tr.bdmf", res.phi_tr)
    write_snapshots(out / "w.bdmf", res.w)
    if res.phi_e is not None:
        write_snapshots(out / "phi_e.bdmf", res.phi_e)
    export_csv(res.phi_tr.frame(res.phi_tr.n_frames - 1), out / "phi_tr_final.csv")
    _write(out / "norms.txt", res.report.format() + "\n")
    lines = [
        f"command = simulate",
        f"system = {problem.kind}",
        f"model = {problem.ionic.kind}",
        f"grid = {'x'.join(str(n) for n in problem.grid.nodes_per_axis)}",
        f"steps = {problem.grid.n_steps}",
    ]
    lines += [f"norm.{k} = {v:.12e}" for k, v in res.report.items()]
    _write(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"simulate: wrote {out}/phi_tr.bdmf ({problem.grid.n_steps + 1} frames)")
    return 0


def cmd_adjoint(rc, args, out):
    problem = build_problem(rc)
    res = run_forward(problem)
    cost = build_cost(rc, problem.grid, phi_des=_target_phi(rc, problem))
    adj = run_adjoint(problem, res, cost)
    write_snapshots(out / "p1.bdmf", adj.p1)
    write_snapshots(out / "p3.bdmf", adj.p3)
    if adj.p2 is not None:
        write_snapshots(out / "p2.bdmf", adj.p2)
    _write(out / "adjoint_norms.txt", adj.report.format() + "\n")
    lines = [f"command = adjoint", f"system = {problem.kind}"]
    lines += [f"norm.{k} = {v:.12e}" for k, v in adj.report.items()]
    _write(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"adjoint: wrote {out}/p1.bdmf")
    return 0


def cmd_optimize(rc, args, out):
    cp = build_control_problem(rc)
    result = projected_gradient_descent(cp)
    write_snapshots(out / "control.bdmf", result.control)
    rows = ["iter,J,grad_norm,step"]
    rows += [
        f"{h['iter']},{h['J']:.12e},{h['grad_norm']:.12e},{h['step']:.12e}"
        for h in result.history
    ]
    _write(out / "history.csv", "\n".join(rows) + "\n")
    lines = [
        "command = optimize",
        f"status = {result.status}",
        f"iterations = {result.n_iter}",
        f"J = {result.J:.12e}",
        f"grad_norm = {result.grad_norm:.12e}",
        f"control_norm = {control_norm(result.control):.12e}",
    ]
    _write(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"optimize: status={result.status} J={result.J:.6e}")
    return 0


def cmd_verify_stability(rc, args, out):
    problem = build_problem(rc)
    rng = np.random.default_rng(args.seed)
    direction = (
        FieldSeries.zeros(problem.grid),
        seeded_smooth_series(
            problem.grid, rng, amplitude=rc[("verify", "direction_amplitude")]
        ),
    )
    scales = (
        tuple(float(s) for s in args.scales.split(","))
        if args.scales
        else rc[("verify", "scales")]
    )
    rep = stability_experiment(problem, direction, scales)
    rows = ["scale,lhs,rhs,ratio"]
    rows += [
        f"{s:.12e},{l:.12e},{r:.12e},{q:.12e}" for s, l, r, q in rep.rows()
    ]
    _write(out / "stability.csv", "\n".join(rows) + "\n")
    verdict = "PASS" if rep.stable else "FAIL"
    lines = [
        "command = verify-stability",
        f"fitted_constant = {rep.fitted_constant:.12e}",
        f"spread = {rep.spread:.12e}",
        f"verdict = {verdict}",
    ]
    _write(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"verify-stability: fitted C = {rep.fitted_constant:.6e} spread = {rep.spread:.3f} [{verdict}]")
    return 0 if rep.stable else 4


def cmd_verify_limit(rc, args, out):
    problem = build_problem(rc)
    rep = monodomain_limit_check(problem)
    ok = rep.discrepancy <= 1e-8
    verdict = "PASS" if ok else "FAIL"
    lines = [
        "command = verify-limit",
        f"lambda = {rep.lam:.12e}",
        f"discrepancy = {rep.discrepancy:.12e}",
        f"verdict = {verdict}",
    ]
    _write(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"verify-limit: discrepancy = {rep.discrepancy:.3e} [{verdict}]")
    return 0 if ok else 4


def cmd_verify_convergence(rc, args, out):
    levels = args.levels if args.levels else rc[("verify", "levels")]
    rep = convergence_study(spatial_levels=levels)
    rows = ["study,level,error,order"]
    for i, e in enumerate(rep.spatial_errors):
        order = f"{rep.spatial_orders[i - 1]:.6f}" if i > 0 else ""
        rows.append(f"spatial,{i},{e:.12e},{order}")
    for i, e in enumerate(rep.temporal_errors):
        order = f"{rep.temporal_orders[i - 1]:.6f}" if i > 0 else ""
        rows.append(f"temporal,{i},{e:.12e},{order}")
    _write(out / "convergence.csv", "\n".join(rows) + "\n")
    ok = rep.spatial_ok and rep.temporal_ok and rep.conclusive
    verdict = "PASS" if ok else ("FAIL" if rep.conclusive else "INCONCLUSIVE")
    lines = [
        "command = verify-convergence",
        f"spatial_orders = {' '.join(f'{o:.4f}' for o in rep.spatial_orders)}",
        f"temporal_orders = {' '.join(f'{o:.4f}' for o in rep.temporal_orders)}",
        f"verdict = {verdict}",
    ]
    _write(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"verify-convergence: spatial {rep.spatial_orders} temporal {rep.temporal_orders} [{verdict}]")
    return 0 if ok else 4


def cmd_gradcheck(rc, args, out):
    cp = build_control_problem(rc)
    rep = gradient_check(cp, seed=args.seed)
    threshold = 1e-4 if cp.config.kind == "monodomain" else 1e-3
    ok = rep.max_rel_error <= threshold
    verdict = "PASS" if ok else "FAIL"
    lines = [
        "command = gradcheck",
        f"directions = {len(rep.rel_errors)}",
        f"max_rel_error = {rep.max_rel_error:.12e}",
        f"threshold = {threshold:.1e}",
        f"verdict = {verdict}",
    ]
    lines += [
        f"direction_{i} = rel_err {e:.6e} delta {d:.3e}"
        for i, (e, d) in enumerate(zip(rep.rel_errors, rep.deltas))
    ]
    _write(out / "summary.txt", "\n".join(lines) + "\n")
    print(f"gradcheck: max rel error = {rep.max_rel_error:.3e} (threshold {threshold:.0e}) [{verdict}]")
    return 0 if ok else 4


def cmd_report(rc, args, out):
    chunks = []
    for path in sorted(out.glob("*.txt")) + sorted(out.glob("*.csv")):
        if path.name == "report.txt":
            continue
        chunks.append(f"==== {path.name} ====")
        chunks.append(path.read_text().rstrip())
        chunks.append("")
    text = "\n".join(chunks) + ("\n" if chunks else "report: no artifacts found\n")
    _write(out / "report.txt", text)
    print(f"report: wrote {out}/report.txt ({len(chunks) // 3} artifacts)")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "adjoint": cmd_adjoint,
    "optimize": cmd_optimize,
    "verify-stability": cmd_verify_stability,
    "verify-limit": cmd_verify_limit,
    "verify-convergence": cmd_verify_convergence,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def dispatch(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rc = parse_config(args.config) if args.config else RunConfig(
        {key: default for key, (default, _) in DEFAULTS.items()}
    )
    return COMMANDS[args.command](rc, args, out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cardioct",
        description="forward/adjoint/control solvers for cardiac tissue models",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="INI problem description", default=None)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--levels", type=int, default=None)
    parser.add_argument("--scales", default=None, help="comma list of perturbation scales")
    args = parser.parse_args(argv)

    if args.command != "report" and args.config is None:
        print("error: config: --config is required for this command", file=sys.stderr)
        return 2
    try:
        return dispatch(args)
    except (ConfigError, EllipticityError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DivergenceError, CompatibilityError, LineSearchStagnation) as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
