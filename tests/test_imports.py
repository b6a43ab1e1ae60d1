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
