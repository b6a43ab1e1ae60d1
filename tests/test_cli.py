import configparser
import io
import re
from pathlib import Path

import numpy as np
import pytest

from cardioct.cli import DEFAULTS, ConfigError, _finish, main, parse_config

from conftest import read_snapshots

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


ARGUMENT_MISTAKES = {
    "negative-stability-seed": (["verify-stability", "--seed", "-1"], "o", "--seed"),
    "negative-gradcheck-seed": (["gradcheck", "--seed", "-3"], "o", "--seed"),
    "out-is-a-file": (["simulate"], "run.ini", "--out"),
    "out-under-a-file": (["simulate"], "run.ini/o", "--out"),
}


@pytest.mark.parametrize("mistake", list(ARGUMENT_MISTAKES))
def test_argument_mistake_exits_2_with_one_line(config_path, capsys, mistake):
    args, out, names = ARGUMENT_MISTAKES[mistake]
    code = main([*args, "--config", str(config_path), "--out", str(config_path.parent / out)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: config:") and names in err


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


def test_verify_stability_writes_table(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(BASE + "\n[verify]\nscales = 0.5,1.0\n")
    out = tmp_path / "vs"
    assert main(["verify-stability", "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "stability.csv").read_text().strip().split("\n")
    assert lines[0] == "scale,lhs,rhs,ratio"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "command, ini, names",
    [
        ("verify-stability", "scales = abc", "verify.scales"),
        ("verify-stability", "scales = ,", "verify.scales"),
        ("verify-stability", "scales = -1,2", "verify.scales"),
        ("verify-stability", "scales = 0.5, -1", "verify.scales"),
        ("verify-stability", "direction_amplitude = 0", "verify.direction_amplitude"),
        # the whole config is checked whatever the command reads of it
        ("verify-stability", "levels = 1", "verify.levels"),
        ("verify-convergence", "levels = -2", "verify.levels"),
        ("verify-convergence", "levels = 0", "verify.levels"),
        ("verify-convergence", "levels = 1", "verify.levels"),
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
def test_bad_verify_input_is_a_config_error(tmp_path, capsys, command, ini, names):
    p = tmp_path / "run.ini"
    p.write_text(BASE + f"\n[verify]\n{ini}\n")
    code = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and names in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "flags", [["--levels", "2"], ["--scales", "0.5,1"]], ids=["levels", "scales"]
)
def test_verify_settings_have_no_flag(config_path, tmp_path, flags):
    with pytest.raises(SystemExit) as exc:  # argparse: unrecognized arguments
        main(["verify-convergence", "--config", str(config_path), "--out", str(tmp_path), *flags])
    assert exc.value.code == 2


def test_report_concatenates(config_path, tmp_path):
    out = tmp_path / "rep"
    main(["simulate", "--config", str(config_path), "--out", str(out)])
    assert main(["report", "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    assert "==== norms.txt ====" in text
    assert "==== summary.txt ====" in text


def edited(changes):
    """BASE with each ``"section.key": value`` of ``changes`` set."""
    cp = configparser.ConfigParser()
    cp.read_string(BASE)
    for name, value in changes.items():
        section, key = name.split(".")
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, value)
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


# Each mistake: the subcommand, the values set on BASE, and a section or
# key the error line must name.
CONFIG_MISTAKES = {
    "profile-square": (
        "simulate",
        {"stimulus.profile": "square", "stimulus.ie_amplitude": "0.5"},
        "stimulus.profile",
    ),
    "ie-window-reversed": (
        "simulate", {"stimulus.ie_t0": "0.6", "stimulus.ie_t1": "0.2"}, "stimulus"
    ),
    "one-node": ("simulate", {"grid.nodes": "1"}, "grid"),
    "negative-length": ("simulate", {"grid.lengths": "-1"}, "grid"),
    "negative-mu": ("optimize", {"cost.mu": "-1"}, "cost"),
    "w-eta-monodomain": ("adjoint", {"cost.w_eta": "0.5"}, "cost.w_eta"),
    "empty-mask": (
        "gradcheck",
        {"cost.mask": "box", "cost.mask_lo": "0.8", "cost.mask_hi": "0.2"},
        "cost.mask",
    ),
    "limit-bidomain": ("verify-limit", {"system.kind": "bidomain"}, "system.kind"),
    "negative-radius": ("optimize", {"optimize.radius": "-1"}, "radius"),
    "negative-budget": ("optimize", {"optimize.budget": "-1"}, "budget"),
    "one-node-mask-bidomain": (
        "gradcheck",
        {
            "system.kind": "bidomain",
            "cost.mask": "box",
            "cost.mask_lo": "0.5",
            "cost.mask_hi": "0.5",
        },
        "cost.mask",
    ),
    "zero-bump-width": ("simulate", {"stimulus.phi0_width": "0"}, "stimulus"),
    "profile-square-no-pulse": (
        "verify-stability",
        {"stimulus.profile": "square", "stimulus.ie_amplitude": "0"},
        "stimulus.profile",
    ),
    "negative-cg-tol": ("simulate", {"solver.cg_tol": "-1"}, "solver"),
    "nan-inner-tol": ("simulate", {"solver.inner_tol": "nan"}, "solver"),
    "negative-gtol": ("optimize", {"optimize.gtol": "-1"}, "optimize"),
    "me-lambda": ("simulate", {"system.me_lambda": "1.5"}, "system.me_lambda"),
    "long-model-name": ("simulate", {"model.kind": "fitzhugh-nagumo"}, "model"),
    # every float value, lists included, must be finite
    "nan-lengths": ("simulate", {"grid.lengths": "nan"}, "grid.lengths"),
    "nan-t-final": ("simulate", {"grid.t_final": "nan"}, "grid.t_final"),
    "inf-t-final": ("simulate", {"grid.t_final": "inf"}, "grid.t_final"),
    "nan-ie-amplitude": ("simulate", {"stimulus.ie_amplitude": "nan"}, "stimulus.ie_amplitude"),
    "nan-phi0-center": ("simulate", {"stimulus.phi0_center": "nan"}, "stimulus.phi0_center"),
    "nan-ie-t1": ("simulate", {"stimulus.ie_t1": "nan"}, "stimulus.ie_t1"),
    "nan-b": ("simulate", {"model.b": "nan"}, "model.b"),
    "nan-kappa": ("simulate", {"model.kappa": "nan"}, "model.kappa"),
    "nan-eps": ("simulate", {"model.eps": "nan"}, "model.eps"),
    "nan-mu": ("optimize", {"cost.mu": "nan"}, "cost.mu"),
    "inf-mu": ("optimize", {"cost.mu": "inf"}, "cost.mu"),
    "nan-direction-amplitude": (
        "verify-stability", {"verify.direction_amplitude": "nan"}, "verify.direction_amplitude"
    ),
    "negative-lambda": ("simulate", {"system.lambda": "-1"}, "system"),
    "negative-half-lambda": ("simulate", {"system.lambda": "-0.5"}, "system"),
    "zero-lambda": ("simulate", {"system.lambda": "0"}, "system"),
}


@pytest.mark.parametrize("mistake", list(CONFIG_MISTAKES))
def test_config_mistake_exits_2_with_one_line(tmp_path, capsys, mistake):
    command, changes, names = CONFIG_MISTAKES[mistake]
    p = tmp_path / "run.ini"
    p.write_text(edited(changes))
    code = main([command, "--config", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: config:") and names in err
    assert "Traceback" not in err


MALFORMED_INI = {
    "duplicate-section": "[grid]\nnodes = 17\n[grid]\nsteps = 12\n",
    "duplicate-key": "[grid]\nnodes = 17\nnodes = 9\n",
    "line-before-section": "nodes = 17\n[grid]\nsteps = 12\n",
    "line-without-equals": "[grid]\nnodes 17\n",
}


@pytest.mark.parametrize("name", list(MALFORMED_INI))
def test_malformed_ini_exits_2_with_one_line(tmp_path, capsys, name):
    p = tmp_path / "run.ini"
    p.write_text(MALFORMED_INI[name])
    code = main(["simulate", "--config", str(p), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error: config:") and "Traceback" not in err


SUMMARY_KEYS = {
    "simulate": [
        "command", "system", "model", "grid", "steps",
        "norm.C0_L2_phi", "norm.L2_H1_phi", "norm.L4_OmegaT_phi", "norm.L4_H1_phi",
        "norm.C0_L2_w", "norm.L43_dual_dphi_dt", "norm.L2_dual_dw_dt",
    ],
    "adjoint": [
        "command", "system",
        "norm.C0_L2_p1", "norm.L2_H1_p1", "norm.L4_H1_p1", "norm.C0_L2_p3",
        "norm.L2_L2_r_phi", "norm.L2_L2_r_eta", "norm.L2_L2_r_w",
    ],
    "optimize": ["command", "status", "iterations", "J", "grad_norm", "control_norm"],
    "verify-stability": ["command", "fitted_constant", "spread", "verdict"],
    "verify-limit": ["command", "lambda", "discrepancy", "verdict"],
    "verify-convergence": ["command", "spatial_orders", "temporal_orders", "verdict"],
    "gradcheck": [
        "command", "directions", "max_rel_error", "threshold", "verdict",
        "direction_0", "direction_1", "direction_2", "direction_3", "direction_4",
    ],
}


@pytest.mark.parametrize("command", list(SUMMARY_KEYS))
def test_summary_layout(tmp_path, command):
    p = tmp_path / "run.ini"
    p.write_text(BASE + "\n[verify]\nlevels = 2\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(p), "--out", str(out)]) == 0
    lines = (out / "summary.txt").read_text().splitlines()
    assert [line.split(" = ")[0] for line in lines] == SUMMARY_KEYS[command]
    assert lines[0] == f"command = {command}"


@pytest.mark.parametrize(
    "verdict, word, code",
    [(None, None, 0), (True, "PASS", 0), (False, "FAIL", 4), ("INCONCLUSIVE", "INCONCLUSIVE", 4)],
)
def test_finish_maps_the_verdict_to_the_exit_code(tmp_path, capsys, verdict, word, code):
    assert _finish(tmp_path, "cmd", ["a = 1"], "done", verdict, after=["b = 2"]) == code
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    middle = [] if word is None else [f"verdict = {word}"]
    assert lines == ["command = cmd", "a = 1", *middle, "b = 2"]
    assert capsys.readouterr().out == ("cmd: done\n" if word is None else f"cmd: done [{word}]\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config_block():
    """The ``ini`` block of the README's "Quickstart (CLI)" section."""
    section = README.read_text().split("## Quickstart (CLI)", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```ini\n(.*?)```", section, re.S).group(1)


def test_readme_config_block_names_every_key(tmp_path):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.read_string(readme_config_block())
    documented = {(s, k) for s in cp.sections() for k in cp[s]}
    assert documented == set(DEFAULTS)
    p = tmp_path / "readme.ini"
    p.write_text(readme_config_block())
    parse_config(p)


def test_every_readme_config_parses(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 4  # the schema and the three experiment configs
    for i, block in enumerate(blocks):
        p = tmp_path / f"block{i}.ini"
        p.write_text(block)
        parse_config(p)
