import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardioct.ionic import (
    IonicParams,
    d_i_ion,
    gating_exact_update,
    gating_source,
    gating_source_slope,
    i_ion,
)

phis = st.floats(-5.0, 5.0)
ws = st.floats(-5.0, 5.0)
avals = st.floats(0.05, 0.95)


def test_param_validation():
    with pytest.raises(ValueError):
        IonicParams("fhn", a=1.5)
    with pytest.raises(ValueError):
        IonicParams("rm", b=0.0)
    with pytest.raises(ValueError):
        IonicParams("ap", eps=-1.0)
    with pytest.raises(ValueError):
        IonicParams("hodgkin")
    with pytest.raises(ValueError):
        IonicParams("fitzhugh-nagumo")  # one name per model: fhn


def test_current_frozen_values():
    # hand-evaluated cubic + recovery coupling
    rm = IonicParams("rm", a=0.5, b=2.0)
    assert i_ion(rm, 2.0, 3.0) == pytest.approx(12.0, abs=1e-14)
    fhn = IonicParams("fhn", a=0.13)
    assert i_ion(fhn, 2.0, 1.0) == pytest.approx(4.74, abs=1e-12)
    ap = IonicParams("ap", a=0.13, b=1.0, kappa=4.0)
    assert gating_source(ap, 0.5) == pytest.approx(1.26, abs=1e-14)


def test_rest_state_is_equilibrium():
    for kind in ("fhn", "rm", "ap"):
        par = IonicParams(kind)
        assert i_ion(par, 0.0, 0.0) == 0.0
        assert gating_source(par, 0.0) == 0.0


def test_gating_exact_update_closed_form():
    par = IonicParams("rm", eps=1.0, kappa=2.0)
    w1 = gating_exact_update(par, 0.0, 1.0, 1.0, 0.1)
    assert w1 == pytest.approx(2.0 * (1.0 - np.exp(-0.1)), rel=1e-14)


def test_gating_update_fixed_point():
    # w at the source value stays there when phi is held
    par = IonicParams("ap", eps=0.3)
    s = gating_source(par, 0.4)
    assert gating_exact_update(par, s, 0.4, 0.4, 0.7) == pytest.approx(s, rel=1e-14)


@settings(max_examples=100)
@given(phis, st.floats(0.0, 4.0), st.floats(0.01, 1.0), st.floats(0.01, 2.0))
def test_gating_update_contracts(phi, w, dt, eps):
    par = IonicParams("rm", eps=eps)
    s = gating_source(par, phi)
    w1 = gating_exact_update(par, w, phi, phi, dt)
    assert abs(w1 - s) <= np.exp(-eps * dt) * abs(w - s) + 1e-12 * (1 + abs(w))


@settings(max_examples=150)
@given(st.sampled_from(["fhn", "rm", "ap"]), avals, phis, ws)
def test_current_derivatives_match_fd(kind, a, phi, w):
    par = IonicParams(kind, a=a)
    h = 1e-6
    dphi, dw = d_i_ion(par, phi, w)
    fd_phi = (i_ion(par, phi + h, w) - i_ion(par, phi - h, w)) / (2 * h)
    fd_w = (i_ion(par, phi, w + h) - i_ion(par, phi, w - h)) / (2 * h)
    scale = 1.0 + abs(fd_phi)
    assert abs(dphi - fd_phi) <= 1e-6 * scale
    assert abs(dw - fd_w) <= 1e-6 * (1.0 + abs(fd_w))


@settings(max_examples=100)
@given(st.sampled_from(["fhn", "rm", "ap"]), avals, phis)
def test_source_slope_matches_fd(kind, a, phi):
    par = IonicParams(kind, a=a)
    h = 1e-6
    fd = (gating_source(par, phi + h) - gating_source(par, phi - h)) / (2 * h)
    assert gating_source_slope(par, phi) == pytest.approx(fd, abs=1e-5)


def cubic(a, phi):
    return phi**3 - (a + 1.0) * phi**2 + a * phi


def test_cubic_difference_identity_hand_case():
    a, p1, p2 = 0.5, 2.0, 1.0
    lhs = cubic(a, p1) - cubic(a, p2)
    rhs = (p1 - p2) * (p1**2 + p1 * p2 + p2**2 - (a + 1.0) * (p1 + p2) + a)
    assert lhs == pytest.approx(3.0, abs=1e-14)
    assert rhs == pytest.approx(3.0, abs=1e-14)


@settings(max_examples=200)
@given(avals, phis, phis)
def test_cubic_difference_identity(a, p1, p2):
    lhs = cubic(a, p1) - cubic(a, p2)
    rhs = (p1 - p2) * (p1**2 + p1 * p2 + p2**2 - (a + 1.0) * (p1 + p2) + a)
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_vectorized_evaluation():
    par = IonicParams("ap")
    phi = np.linspace(-1, 2, 7)
    w = np.linspace(0, 1, 7)
    cur = i_ion(par, phi, w)
    assert cur.shape == (7,)
    assert cur[0] == pytest.approx(i_ion(par, phi[0], w[0]))


@pytest.mark.parametrize("kind", ["fhn", "rm", "ap"])
def test_current_matches_expanded_cubic(kind):
    # i_ion is evaluated in Horner form; compare with the module docstring's polynomials
    par = IonicParams(kind, a=0.17, b=1.7)
    a, b = par.a, par.b
    rng = np.random.default_rng(7)
    phi = rng.uniform(-2.0, 2.0, 500)
    w = rng.uniform(-2.0, 2.0, 500)
    if kind == "fhn":
        expanded = phi**3 - (a + 1.0) * phi**2 + a * phi + w
    else:
        expanded = b * phi**3 - (a + 1.0) * b * phi**2 + a * b * phi + phi * w
    cur = i_ion(par, phi, w)
    assert np.abs(cur - expanded).max() <= 1e-13 * np.abs(expanded).max()
