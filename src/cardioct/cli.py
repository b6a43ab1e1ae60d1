"""Command-line front end.

Subcommands: simulate, adjoint, optimize, verify-stability,
verify-limit, verify-convergence, gradcheck, report.  Problems are
described by a flat INI config (see ``DEFAULTS`` for every section and
key), and every setting has that one spelling: the command line names
only the subcommand, the config, the output directory and the seed.
Outputs are deterministic for a fixed config and seed (binary
snapshots, CSV tables, plain-text summaries — no timestamps).

A config is checked by building the run: a ``ValueError`` from the
package's constructors is a config error naming the INI section, and
anything raised while solving is a solver failure.

Exit codes: 0 success, 2 config error, 3 solver/runtime failure,
4 verification verdict failure.  Failures print one machine-parsable
line ``error: <category>: <message>`` on stderr.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .adjoint import CostConfig, run_adjoint
from .assembly import CompatibilityError, build_operators
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
    """A finite float: nan and inf are config mistakes."""
    value = float(s)
    if not np.isfinite(value):
        raise ValueError("need a finite number")
    return value


def _list(kind):
    """A comma or space separated list of ``kind`` values, as a tuple."""
    return lambda s: tuple(kind(p) for p in s.replace(",", " ").split())


def _scales(s):
    scales = _list(_float)(s)
    if not scales or not all(v > 0 for v in scales):
        raise ValueError("need a non-empty list of positive numbers")
    return scales


def _levels(s):
    if int(s) < 2:
        raise ValueError("need at least 2 levels")
    return int(s)


def _optional(parse):
    """``parse``, with an empty value read as None."""
    return lambda s: parse(s) if s.strip() else None


DEFAULTS = {
    ("grid", "dim"): (1, int),
    ("grid", "nodes"): ((33,), _list(int)),
    ("grid", "lengths"): ((1.0,), _list(_float)),
    ("grid", "t_final"): (1.0, _float),
    ("grid", "steps"): (50, int),
    ("model", "kind"): ("rm", str.strip),
    ("model", "a"): (0.13, _float),
    ("model", "b"): (1.0, _float),
    ("model", "kappa"): (4.0, _float),
    ("model", "eps"): (0.01, _float),
    ("system", "kind"): ("monodomain", str.strip),
    ("system", "lambda"): (1.0, _float),
    ("system", "mi"): ((1.0,), _list(_float)),
    ("system", "me"): (None, _optional(_list(_float))),
    ("stimulus", "phi0_amplitude"): (0.0, _float),
    ("stimulus", "phi0_center"): ((0.5,), _list(_float)),
    ("stimulus", "phi0_width"): (0.15, _float),
    ("stimulus", "ii_amplitude"): (0.0, _float),
    ("stimulus", "ii_center"): ((0.5,), _list(_float)),
    ("stimulus", "ii_width"): (0.15, _float),
    ("stimulus", "ii_t0"): (0.0, _float),
    ("stimulus", "ii_t1"): (0.5, _float),
    ("stimulus", "ie_amplitude"): (0.0, _float),
    ("stimulus", "ie_center"): ((0.5,), _list(_float)),
    ("stimulus", "ie_width"): (0.15, _float),
    ("stimulus", "ie_t0"): (0.0, _float),
    ("stimulus", "ie_t1"): (0.5, _float),
    ("stimulus", "profile"): ("smooth", str.strip),
    ("cost", "mu"): (0.01, _float),
    ("cost", "w_phi"): (1.0, _float),
    ("cost", "w_eta"): (0.0, _float),
    ("cost", "w_gate"): (0.0, _float),
    ("cost", "target"): ("rest", str.strip),
    ("cost", "mask"): ("full", str.strip),
    ("cost", "mask_lo"): ((0.0,), _list(_float)),
    ("cost", "mask_hi"): ((1.0,), _list(_float)),
    ("optimize", "budget"): (30, int),
    ("optimize", "radius"): (None, _optional(_float)),
    ("optimize", "gtol"): (1e-6, _float),
    ("solver", "cg_tol"): (1e-10, _float),
    ("solver", "inner_tol"): (1e-11, _float),
    ("verify", "scales"): ((0.25, 0.5, 1.0, 2.0), _scales),
    ("verify", "levels"): (3, _levels),
    ("verify", "direction_amplitude"): (1.0, _float),
}


def parse_config(path):
    """A flat INI run configuration as a ``{(section, key): value}`` dict with every key."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        # some of these messages span lines; the error line is one line
        raise ConfigError(" ".join(str(exc).split())) from None
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
            try:
                values[(section, key)] = DEFAULTS[(section, key)][1](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from None
    _validate(values)
    return values


CHOICES = {
    ("cost", "target"): ("rest", "uncontrolled"),
    ("cost", "mask"): ("full", "box"),
    ("stimulus", "profile"): ("smooth", "box"),
}


def _validate(rc):
    """The checks no constructor makes; broadcasts a one-entry per-axis list in place."""
    dim = rc[("grid", "dim")]
    # bounds the broadcast below; Grid checks the dimension of what it is given
    if dim not in (1, 2, 3):
        raise ConfigError("grid.dim must be 1, 2 or 3")
    for key in (
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
        v = rc[key]
        if v is not None and len(v) == 1:
            rc[key] = v * dim
        elif v is not None and len(v) != dim:
            raise ConfigError(f"{'.'.join(key)} needs 1 or {dim} entries")
    for key, choices in CHOICES.items():
        if rc[key] not in choices:
            raise ConfigError(f"{'.'.join(key)} must be {' or '.join(choices)}")
    if rc[("verify", "direction_amplitude")] == 0:
        raise ConfigError("verify.direction_amplitude must be nonzero")


# ---------------------------------------------------------------------------
# builders


def _values(rc, section):
    """The keys of ``section`` and their values, as constructor keywords."""
    return {key: value for (s, key), value in rc.items() if s == section}


@contextmanager
def _section(name):
    """A ValueError raised while building from section ``name`` is a ConfigError naming it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


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
    with _section("grid"):
        grid = Grid(
            rc[("grid", "nodes")],
            rc[("grid", "lengths")],
            rc[("grid", "t_final")],
            rc[("grid", "steps")],
        )
    with _section("model"):
        ionic = IonicParams(**_values(rc, "model"))
    kind = rc[("system", "kind")]
    with _section("system"):
        lam = rc[("system", "lambda")]
        mi = _tensor(grid, rc[("system", "mi")])
        me = None
        if kind == "bidomain":
            me_diag = rc[("system", "me")]
            me = mi * lam if me_diag is None else _tensor(grid, me_diag)
        ops = build_operators(grid, mi, me, lam=lam)
    with _section("stimulus"):
        amp0 = rc[("stimulus", "phi0_amplitude")]
        if amp0 != 0.0:
            phi0 = gaussian_bump(
                grid, rc[("stimulus", "phi0_center")], rc[("stimulus", "phi0_width")], amp0
            )
        else:
            phi0 = ScalarField.zeros(grid)
        I_i = _stimulus_series(rc, grid, "ii")
        I_e = _stimulus_series(rc, grid, "ie")
    with _section("system"):
        problem = ProblemConfig(
            grid=grid,
            ops=ops,
            ionic=ionic,
            kind=kind,
            phi0=phi0,
            w0=ScalarField.zeros(grid),
            I_i=I_i,
            I_e=I_e,
        )
    with _section("solver"):
        return replace(problem, **_values(rc, "solver"))


def build_control_problem(rc):
    """The config's control problem; an ``uncontrolled`` target is solved after every check."""
    problem = build_problem(rc)
    with _section("cost"):
        mask = None
        if rc[("cost", "mask")] == "box":
            mask = box_mask(problem.grid, rc[("cost", "mask_lo")], rc[("cost", "mask_hi")])
        cost = CostConfig(
            mu=rc[("cost", "mu")],
            w_phi=rc[("cost", "w_phi")],
            w_eta=rc[("cost", "w_eta")],
            w_gate=rc[("cost", "w_gate")],
            mask=mask,
        )
    with _section("optimize"):
        cp = ControlProblem(config=problem, cost=cost, **_values(rc, "optimize"))
    if rc[("cost", "target")] == "uncontrolled":
        base = replace(problem, I_e=FieldSeries.zeros(problem.grid))
        cost.phi_des = run_forward(base, report=False).phi_tr
    return cp


# ---------------------------------------------------------------------------
# subcommands


def _finish(out, command, lines, message, verdict=None, after=()):
    """Write ``summary.txt`` and the stdout line; the exit code.

    The summary reads ``command = <command>``, ``lines``, ``verdict =
    <verdict>`` if given, then ``after``.  ``verdict`` is True (PASS),
    False (FAIL) or a verdict word; any but PASS exits 4.
    """
    if verdict is not None:
        if not isinstance(verdict, str):
            verdict = "PASS" if verdict else "FAIL"
        lines = [*lines, f"verdict = {verdict}"]
        message += f" [{verdict}]"
    (out / "summary.txt").write_text("\n".join([f"command = {command}", *lines, *after]) + "\n")
    print(f"{command}: {message}")
    return 0 if verdict in (None, "PASS") else 4


def _format_norms(norms):
    """A norm report as ``name = value`` lines, the names padded to one width."""
    width = max(len(k) for k in norms)
    return "".join(f"{k.ljust(width)} = {v:.12e}\n" for k, v in norms.items())


def cmd_simulate(rc, args, out):
    problem = build_problem(rc)
    res = run_forward(problem)
    write_snapshots(out / "phi_tr.bdmf", res.phi_tr)
    write_snapshots(out / "w.bdmf", res.w)
    if res.phi_e is not None:
        write_snapshots(out / "phi_e.bdmf", res.phi_e)
    export_csv(res.phi_tr.frame(res.phi_tr.n_frames - 1), out / "phi_tr_final.csv")
    (out / "norms.txt").write_text(_format_norms(res.report))
    lines = [
        f"system = {problem.kind}",
        f"model = {problem.ionic.kind}",
        f"grid = {'x'.join(str(n) for n in problem.grid.nodes_per_axis)}",
        f"steps = {problem.grid.n_steps}",
    ]
    lines += [f"norm.{k} = {v:.12e}" for k, v in res.report.items()]
    return _finish(
        out, "simulate", lines, f"wrote {out}/phi_tr.bdmf ({problem.grid.n_steps + 1} frames)"
    )


def cmd_adjoint(rc, args, out):
    cp = build_control_problem(rc)
    res = run_forward(cp.config)
    adj = run_adjoint(cp.config, res, cp.cost)
    write_snapshots(out / "p1.bdmf", adj.p1)
    write_snapshots(out / "p3.bdmf", adj.p3)
    if adj.p2 is not None:
        write_snapshots(out / "p2.bdmf", adj.p2)
    (out / "adjoint_norms.txt").write_text(_format_norms(adj.report))
    lines = [f"system = {cp.config.kind}"]
    lines += [f"norm.{k} = {v:.12e}" for k, v in adj.report.items()]
    return _finish(out, "adjoint", lines, f"wrote {out}/p1.bdmf")


def cmd_optimize(rc, args, out):
    cp = build_control_problem(rc)
    result = projected_gradient_descent(cp)
    write_snapshots(out / "control.bdmf", result.control)
    rows = ["iter,J,grad_norm,step"]
    rows += [
        f"{h['iter']},{h['J']:.12e},{h['grad_norm']:.12e},{h['step']:.12e}"
        for h in result.history
    ]
    (out / "history.csv").write_text("\n".join(rows) + "\n")
    lines = [
        f"status = {result.status}",
        f"iterations = {result.n_iter}",
        f"J = {result.J:.12e}",
        f"grad_norm = {result.grad_norm:.12e}",
        f"control_norm = {control_norm(result.control):.12e}",
    ]
    return _finish(out, "optimize", lines, f"status={result.status} J={result.J:.6e}")


def cmd_verify_stability(rc, args, out):
    problem = build_problem(rc)
    rng = np.random.default_rng(args.seed)
    direction = (
        FieldSeries.zeros(problem.grid),
        seeded_smooth_series(
            problem.grid, rng, amplitude=rc[("verify", "direction_amplitude")]
        ),
    )
    rep = stability_experiment(problem, direction, rc[("verify", "scales")])
    rows = ["scale,lhs,rhs,ratio"]
    rows += [
        f"{s:.12e},{l:.12e},{r:.12e},{q:.12e}" for s, l, r, q in rep.rows()
    ]
    (out / "stability.csv").write_text("\n".join(rows) + "\n")
    lines = [
        f"fitted_constant = {rep.fitted_constant:.12e}",
        f"spread = {rep.spread:.12e}",
    ]
    message = f"fitted C = {rep.fitted_constant:.6e} spread = {rep.spread:.3f}"
    return _finish(out, "verify-stability", lines, message, rep.stable)


def cmd_verify_limit(rc, args, out):
    if rc[("system", "kind")] != "monodomain":
        raise ConfigError("system.kind: verify-limit starts from a monodomain config")
    rep = monodomain_limit_check(build_problem(rc))
    lines = [
        f"lambda = {rep.lam:.12e}",
        f"discrepancy = {rep.discrepancy:.12e}",
    ]
    message = f"discrepancy = {rep.discrepancy:.3e}"
    return _finish(out, "verify-limit", lines, message, rep.discrepancy <= 1e-8)


def cmd_verify_convergence(rc, args, out):
    rep = convergence_study(spatial_levels=rc[("verify", "levels")])
    rows = ["study,level,error,order"]
    for i, e in enumerate(rep.spatial_errors):
        order = f"{rep.spatial_orders[i - 1]:.6f}" if i > 0 else ""
        rows.append(f"spatial,{i},{e:.12e},{order}")
    for i, e in enumerate(rep.temporal_errors):
        order = f"{rep.temporal_orders[i - 1]:.6f}" if i > 0 else ""
        rows.append(f"temporal,{i},{e:.12e},{order}")
    (out / "convergence.csv").write_text("\n".join(rows) + "\n")
    verdict = (rep.spatial_ok and rep.temporal_ok) if rep.conclusive else "INCONCLUSIVE"
    lines = [
        f"spatial_orders = {' '.join(f'{o:.4f}' for o in rep.spatial_orders)}",
        f"temporal_orders = {' '.join(f'{o:.4f}' for o in rep.temporal_orders)}",
    ]
    message = f"spatial {rep.spatial_orders} temporal {rep.temporal_orders}"
    return _finish(out, "verify-convergence", lines, message, verdict)


def cmd_gradcheck(rc, args, out):
    cp = build_control_problem(rc)
    rep = gradient_check(cp, seed=args.seed)
    threshold = 1e-4 if cp.config.kind == "monodomain" else 1e-3
    lines = [
        f"directions = {len(rep.rel_errors)}",
        f"max_rel_error = {rep.max_rel_error:.12e}",
        f"threshold = {threshold:.1e}",
    ]
    directions = [
        f"direction_{i} = rel_err {e:.6e} delta {d:.3e}"
        for i, (e, d) in enumerate(zip(rep.rel_errors, rep.deltas))
    ]
    message = f"max rel error = {rep.max_rel_error:.3e} (threshold {threshold:.0e})"
    return _finish(
        out, "gradcheck", lines, message, rep.max_rel_error <= threshold, after=directions
    )


def cmd_report(rc, args, out):
    chunks = []
    for path in sorted(out.glob("*.txt")) + sorted(out.glob("*.csv")):
        if path.name == "report.txt":
            continue
        chunks.append(f"==== {path.name} ====")
        chunks.append(path.read_text().rstrip())
        chunks.append("")
    text = "\n".join(chunks) + ("\n" if chunks else "report: no artifacts found\n")
    (out / "report.txt").write_text(text)
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot make the output directory ({exc})") from None
    # report reads no config; main requires one for every other command
    rc = parse_config(args.config) if args.config else None
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
    args = parser.parse_args(argv)

    try:
        if args.command != "report" and args.config is None:
            raise ConfigError("--config is required for this command")
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, not {args.seed}")
        return dispatch(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (SolverError, DivergenceError, CompatibilityError, LineSearchStagnation) as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
