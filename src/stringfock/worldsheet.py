"""Classical (c-number) sanity layer: mode-expansion evaluation and the
boundary and wave-equation identities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class WorldsheetSolution:
    """Finite cosine-mode expansion with the reality condition built in.

    ``modes[n-1]`` holds the complex d-vector coefficient of the n-th mode;
    the negative-mode coefficient is its conjugate, which keeps the
    evaluated sheet real.
    """

    x: np.ndarray
    p: np.ndarray
    modes: np.ndarray   # shape (n_max, d), complex

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.modes = np.atleast_2d(np.asarray(self.modes, dtype=complex))
        if self.modes.size == 0:
            self.modes = np.zeros((0, len(self.x)), dtype=complex)
        if self.modes.shape[1] != len(self.x):
            raise ValueError("mode coefficients must be d-vectors")

    @property
    def d(self):
        return len(self.x)

    @property
    def n_max(self):
        return self.modes.shape[0]

    def mode(self, n):
        """Signed-mode coefficient; reality gives conj for n < 0, p for n = 0."""
        if n == 0:
            return self.p.astype(complex)
        if n > 0:
            return self.modes[n - 1]
        return np.conj(self.modes[-n - 1])


def evaluate(ws, tau, sigma):
    """Sheet position and its analytic tau/sigma derivatives at one point.

    Returns (X, dX_dtau, dX_dsigma), each a real d-vector.  Derivatives are
    exact mode sums, no finite differencing.
    """
    x_val = ws.x + ws.p * tau + 0j
    dtau = ws.p.astype(complex)
    dsigma = np.zeros(ws.d, dtype=complex)
    for n in range(1, ws.n_max + 1):
        for sgn in (n, -n):
            coeff = ws.mode(sgn)
            phase = np.exp(-1j * sgn * tau)
            x_val = x_val + 1j * coeff * phase * np.cos(sgn * sigma) / sgn
            dtau = dtau + coeff * phase * np.cos(sgn * sigma)
            dsigma = dsigma - 1j * coeff * phase * np.sin(sgn * sigma)
    return np.real(x_val), np.real(dtau), np.real(dsigma)


def second_derivatives(ws, tau, sigma):
    """(d2X/dtau2, d2X/dsigma2); identical mode sums, so their difference
    cancels term by term."""
    dtt = np.zeros(ws.d, dtype=complex)
    dss = np.zeros(ws.d, dtype=complex)
    for n in range(1, ws.n_max + 1):
        for sgn in (n, -n):
            coeff = ws.mode(sgn)
            phase = np.exp(-1j * sgn * tau)
            dtt = dtt + 1j * coeff * (-sgn * sgn) * phase * np.cos(sgn * sigma) / sgn
            dss = dss + 1j * coeff * phase * (-sgn * sgn) * np.cos(sgn * sigma) / sgn
    return np.real(dtt), np.real(dss)


def wave_residual(ws, tau, sigma):
    dtt, dss = second_derivatives(ws, tau, sigma)
    return dtt - dss
