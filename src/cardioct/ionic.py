"""Pointwise two-variable membrane kinetics.

Three classical reduced ionic models share one parameter set
(a, b, kappa, eps):

* ``fhn``  FitzHugh-Nagumo:    i_ion = phi^3 - (a+1) phi^2 + a phi + w
* ``rm``   Rogers-McCulloch:   i_ion = b phi^3 - (a+1) b phi^2 + a b phi + phi w
* ``ap``   Aliev-Panfilov:     same cubic as rm, different recovery source

The recovery variable obeys dw/dt = -g(phi, w) with

* fhn, rm: g = eps w - eps kappa phi
* ap:      g = eps w - eps kappa ((a+1) phi - phi^2)

so w relaxes toward a phi-dependent equilibrium s(phi) at rate eps.
Because the relaxation is linear in w, a time step has the closed form

    w(t+dt) = e^{-eps dt} w(t) + (1 - e^{-eps dt}) s(phi_bar)

which ``gating_exact_update`` implements with phi_bar the average of
the step's endpoint potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("fhn", "rm", "ap")


@dataclass(frozen=True)
class IonicParams:
    kind: str
    a: float = 0.13
    b: float = 1.0
    kappa: float = 4.0
    eps: float = 0.01

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ionic model {self.kind!r}")
        if not 0.0 < self.a < 1.0:
            raise ValueError(f"need 0 < a < 1, got a={self.a}")
        for name in ("b", "kappa", "eps"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")


def i_ion(par, phi, w):
    """Ionic current: the module docstring's cubics in Horner form, in place."""
    a = par.a
    if par.kind == "fhn":
        out = phi - (a + 1.0)
        out *= phi
        out += a
        out *= phi
        out += w
        return out
    b = par.b
    out = b * phi
    out -= (a + 1.0) * b
    out *= phi
    out += a * b
    out += w
    out *= phi
    return out


def d_i_ion(par, phi, w):
    """Partial derivatives (d i_ion/d phi, d i_ion/d w); the latter is 1 or phi itself."""
    a = par.a
    b = 1.0 if par.kind == "fhn" else par.b
    d_phi = (3.0 * b) * phi
    d_phi -= 2.0 * (a + 1.0) * b
    d_phi *= phi
    d_phi += a * b
    if par.kind == "fhn":
        return d_phi, 1.0
    d_phi += w
    return d_phi, phi


def gating_source(par, phi):
    """Equilibrium value s(phi) that w relaxes toward."""
    if par.kind == "ap":
        return par.kappa * ((par.a + 1.0) * phi - phi**2)
    return par.kappa * phi


def gating_source_slope(par, phi):
    """s'(phi): the float kappa for fhn and rm, whose source is linear."""
    if par.kind == "ap":
        return par.kappa * ((par.a + 1.0) - 2.0 * phi)
    return par.kappa


def midpoint_source_slope(par, phi_old, phi_new):
    """s' at the step midpoint; kappa, with no midpoint formed, for fhn and rm."""
    if par.kind == "ap":
        return gating_source_slope(par, 0.5 * (phi_old + phi_new))
    return par.kappa


def gating_exact_update(par, w, phi_old, phi_new, dt):
    """Advance w by one step of the exact exponential relaxation.

    The source is evaluated at phi_bar = (phi_old + phi_new)/2, so the
    update is second-order in dt for smooth potentials and exact for
    potentials constant over the step.  It is accumulated in place in
    the fresh array of s, bitwise ``alpha w + (1 - alpha) s(phi_bar)``.
    """
    alpha = np.exp(-par.eps * dt)
    phi_bar = phi_old + phi_new
    phi_bar *= 0.5
    out = gating_source(par, phi_bar)
    out *= 1.0 - alpha
    out += alpha * w
    return out
