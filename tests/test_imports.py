import os
import subprocess
import sys
from pathlib import Path

import cardioct

# Each of these adds several MB of resident memory when loaded; the solvers
# need none of them (the spectral preconditioner is dense numpy products).
HEAVY = ("scipy.fft", "scipy.linalg", "scipy.sparse.linalg")

CHILD = """
import sys
from cardioct import (
    FieldSeries, Grid, IonicParams, ProblemConfig, ScalarField, TensorField,
    build_operators, run_forward,
)
from cardioct.stimuli import gaussian_bump

g = Grid((9, 7), (1.0, 0.8), 0.2, 3)
mi = TensorField.diagonal(g, (1.0, 0.5))
for kind, me in (("monodomain", None), ("bidomain", TensorField.diagonal(g, (0.6, 1.2)))):
    cfg = ProblemConfig(
        grid=g,
        ops=build_operators(g, mi, me),
        ionic=IonicParams("rm"),
        kind=kind,
        phi0=gaussian_bump(g, (0.3, 0.3), 0.2, 0.8),
        w0=ScalarField.zeros(g),
        I_i=FieldSeries.zeros(g),
        I_e=FieldSeries.zeros(g),
    )
    run_forward(cfg)
print(" ".join(m for m in sys.modules if m in {heavy!r}))
"""


def test_forward_runs_load_no_heavy_scipy_modules():
    src = str(Path(cardioct.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(heavy=set(HEAVY))],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.split() == []


def test_norm_report_solves_nothing(monkeypatch):
    # The report reads its norms off DCT-I coefficients, so every CG call
    # of a monodomain run is one implicit time step.  cg_solve is counted
    # under every name it has in the loaded package modules.
    import cardioct.forward as forward
    import cardioct.grid as grid
    import cardioct.linalg as linalg
    from conftest import make_problem

    assert not hasattr(grid, "cg_solve")
    original = linalg.cg_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("cardioct") and getattr(mod, "cg_solve", None) is original:
            monkeypatch.setattr(mod, "cg_solve", counted)
    g = grid.Grid((9, 7), (1.0, 0.8), 0.2, 5)
    res = forward.run_forward(make_problem(g, stimulus=2.0))
    assert "L43_dual_dphi_dt" in res.report
    assert len(calls) == g.n_steps
