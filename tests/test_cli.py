import numpy as np
import pytest

from cardioct.cli import (
    ConfigError,
    main,
    parse_config,
    serialize_config,
)
from cardioct.grid import read_snapshots

BASE = """
[grid]
dim = 1
nodes = 17
t_final = 0.3
steps = 12

[model]
kind = rm

[system]
kind = monodomain

[stimulus]
phi0_amplitude = 0.6
phi0_center = 0.3
ie_amplitude = 0.2
ie_center = 0.7
ie_t1 = 0.15

[optimize]
budget = 4
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(BASE)
    return p


def test_parse_fills_defaults(config_path):
    rc = parse_config(config_path)
    assert rc[("grid", "nodes")] == (17,)
    assert rc[("model", "a")] == 0.13
    assert rc[("cost", "mu")] == 0.01


def test_serialize_round_trips(config_path, tmp_path):
    rc = parse_config(config_path)
    text = serialize_config(rc)
    back = tmp_path / "back.ini"
    back.write_text(text)
    rc2 = parse_config(back)
    assert rc.values == rc2.values
    assert serialize_config(rc2) == text


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[grid]\nnodez = 5\n")
    with pytest.raises(ConfigError, match="grid.nodez"):
        parse_config(p)


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[gird]\nnodes = 5\n")
    with pytest.raises(ConfigError, match="gird"):
        parse_config(p)


def test_bad_value_names_the_key(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[grid]\nsteps = twenty\n")
    with pytest.raises(ConfigError, match="grid.steps"):
        parse_config(p)


def test_percoord_broadcast(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[grid]\ndim = 2\nnodes = 9\nlengths = 1.0,2.0\n")
    rc = parse_config(p)
    assert rc[("grid", "nodes")] == (9, 9)
    assert rc[("grid", "lengths")] == (1.0, 2.0)


def test_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[grid]\ndim = 7\n")
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("mi", ["-1.0", "nan"])
def test_non_elliptic_tensor_is_a_config_error(tmp_path, capsys, mi):
    p = tmp_path / "bad.ini"
    p.write_text(BASE.replace("[system]\n", f"[system]\nmi = {mi}\n"))
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert len(err.strip().splitlines()) == 1


def test_missing_config_exit_code(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: config" in capsys.readouterr().err


def test_simulate_outputs_and_determinism(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out2)]) == 0
    for name in ("phi_tr.bdmf", "w.bdmf", "norms.txt", "summary.txt", "phi_tr_final.csv"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    dim, nodes, frames = read_snapshots(out1 / "phi_tr.bdmf")
    assert dim == 1
    assert nodes[0] == 17
    assert frames.shape == (13, 17)


def test_optimize_writes_history(config_path, tmp_path):
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "history.csv").read_text().strip().split("\n")
    assert lines[0] == "iter,J,grad_norm,step"
    assert len(lines) >= 2
    Js = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a + 1e-15 for a, b in zip(Js, Js[1:]))


def test_gradcheck_passes(config_path, tmp_path, capsys):
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", str(config_path), "--out", str(out)]) == 0
    text = (out / "summary.txt").read_text()
    assert "verdict = PASS" in text


def test_verify_limit_passes(config_path, tmp_path):
    out = tmp_path / "vl"
    assert main(["verify-limit", "--config", str(config_path), "--out", str(out)]) == 0
    assert "PASS" in (out / "summary.txt").read_text()


def test_verify_stability_writes_table(config_path, tmp_path):
    out = tmp_path / "vs"
    code = main(
        [
            "verify-stability",
            "--config",
            str(config_path),
            "--out",
            str(out),
            "--scales",
            "0.5,1.0",
        ]
    )
    assert code == 0
    lines = (out / "stability.csv").read_text().strip().split("\n")
    assert lines[0] == "scale,lhs,rhs,ratio"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "command, flags, ini, names",
    [
        ("verify-stability", ["--scales", "abc"], "", "--scales"),
        ("verify-stability", ["--scales=,"], "", "--scales"),
        ("verify-stability", ["--scales=-1,2"], "", "--scales"),
        ("verify-stability", [], "scales = 0.5, -1", "verify.scales"),
        ("verify-stability", [], "direction_amplitude = 0", "verify.direction_amplitude"),
        ("verify-convergence", ["--levels", "1"], "", "--levels"),
        ("verify-convergence", ["--levels", "-2"], "", "--levels"),
        ("verify-convergence", ["--levels", "0"], "", "--levels"),
        ("verify-convergence", [], "levels = 1", "verify.levels"),
    ],
    ids=[
        "scales-abc",
        "scales-empty",
        "scales-negative",
        "ini-scales-negative",
        "ini-amplitude-zero",
        "levels-1",
        "levels-minus-2",
        "levels-0",
        "ini-levels-1",
    ],
)
def test_bad_verify_input_is_a_config_error(tmp_path, capsys, command, flags, ini, names):
    p = tmp_path / "run.ini"
    p.write_text(BASE + (f"\n[verify]\n{ini}\n" if ini else ""))
    code = main([command, "--config", str(p), "--out", str(tmp_path / "o"), *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and names in err
    assert len(err.strip().splitlines()) == 1


def test_report_concatenates(config_path, tmp_path):
    out = tmp_path / "rep"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert main(["report", "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    assert "==== norms.txt ====" in text
    assert "==== summary.txt ====" in text
