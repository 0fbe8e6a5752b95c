"""Classical (c-number) sanity layer: mode-expansion evaluation, boundary
and wave-equation identities, constraint Fourier components, and the
light-cone Hamiltonian flow."""

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


def _minkowski_dot(u, v):
    return -u[..., 0] * v[..., 0] + np.sum(u[..., 1:] * v[..., 1:], axis=-1)


def constraint_fourier(ws, n):
    """n-th Fourier component of the classical constraint, by quadrature.

    Samples (dX/dtau +- dX/dsigma) through :func:`evaluate` on a uniform
    sigma grid at tau = 0, assembles the squared chiral field over a full
    period, and projects.  With 4 n_max + 8 >= 4 n_max + 2 points the
    periodic trapezoid rule is exact up to roundoff for the finite mode sum.
    """
    m = 4 * ws.n_max + 8
    du = 2 * np.pi / m
    total = 0j
    for k in range(m):
        u = -np.pi + k * du
        sigma = abs(u)
        _, dtau, dsigma = evaluate(ws, 0.0, sigma)
        chiral = dtau + np.sign(u) * dsigma if u != 0 else dtau
        total += np.exp(1j * n * u) * _minkowski_dot(chiral, chiral)
    return total * du / (4 * np.pi)


def constraint_fourier_modes(ws, n):
    """Same component from the mode algebra: (1/2) sum_m mode_{n-m} . mode_m."""
    total = 0j
    for m in range(-ws.n_max + min(n, 0), ws.n_max + max(n, 0) + 1):
        if abs(m) > ws.n_max or abs(n - m) > ws.n_max:
            continue
        total += 0.5 * _minkowski_dot(ws.mode(n - m), ws.mode(m))
    return total


@dataclass
class LightConeData:
    """Transverse phase-space data in the fixed-time parameterization."""

    p_plus: float
    x_minus: float
    x_tilde: np.ndarray
    p_tilde: np.ndarray
    x_n: np.ndarray   # shape (n_max, d-2)
    p_n: np.ndarray

    def __post_init__(self):
        self.x_tilde = np.asarray(self.x_tilde, dtype=float)
        self.p_tilde = np.asarray(self.p_tilde, dtype=float)
        self.x_n = np.atleast_2d(np.asarray(self.x_n, dtype=float))
        self.p_n = np.atleast_2d(np.asarray(self.p_n, dtype=float))
        if self.p_plus <= 0:
            raise ValueError("p_plus must be positive")

    @property
    def n_max(self):
        return self.x_n.shape[0]


def lightcone_hamiltonian(lc):
    """p^- = (p_tilde^2 + sum_n (p_n^2 + n^2 x_n^2)) / (2 p^+)."""
    total = float(np.dot(lc.p_tilde, lc.p_tilde))
    for n in range(1, lc.n_max + 1):
        total += float(np.dot(lc.p_n[n - 1], lc.p_n[n - 1]))
        total += n * n * float(np.dot(lc.x_n[n - 1], lc.x_n[n - 1]))
    return total / (2 * lc.p_plus)


def transverse_chiral_mode(lc, n):
    """Classical transverse mode coefficient from (x_n, p_n) at tau = 0."""
    if n == 0:
        return lc.p_tilde.astype(complex)
    k = abs(n)
    if k > lc.n_max:
        return np.zeros_like(lc.p_tilde, dtype=complex)
    val = (lc.p_n[k - 1] - 1j * np.sign(n) * k * lc.x_n[k - 1]) / np.sqrt(2)
    return val


def pminus_from_constraint(lc):
    """Solve the constraint for the minus component and return its zero mode.

    In the light-cone parameterization the squared chiral field reduces to
    f^-(u) = f_tilde(u)^2 / (2 p^+); the zero Fourier mode of f^- is p^-.
    Computed by quadrature over a period, independently of the closed-form
    Hamiltonian.
    """
    m = 4 * lc.n_max + 8
    du = 2 * np.pi / m
    total = 0j
    for k in range(m):
        u = -np.pi + k * du
        f_t = np.zeros(len(lc.p_tilde), dtype=complex)
        for n in range(-lc.n_max, lc.n_max + 1):
            f_t = f_t + transverse_chiral_mode(lc, n) * np.exp(-1j * n * u)
        total += np.dot(f_t, f_t)
    return float(np.real(total)) * du / (2 * np.pi) / (2 * lc.p_plus)


def lightcone_flow(lc, xplus):
    """Closed-form evolution in light-cone time.

    Center-of-mass momenta are constant; each transverse mode rotates
    harmonically with frequency n / p^+.  Returns a dict of trajectory
    arrays sampled at the given xplus values.
    """
    xplus = np.asarray(xplus, dtype=float)
    n_pts = len(xplus)
    x_n_t = np.zeros((n_pts, lc.n_max, lc.x_n.shape[1]))
    p_n_t = np.zeros_like(x_n_t)
    for n in range(1, lc.n_max + 1):
        w = n / lc.p_plus
        c = np.cos(w * xplus)[:, None]
        s = np.sin(w * xplus)[:, None]
        x0 = lc.x_n[n - 1][None, :]
        p0 = lc.p_n[n - 1][None, :]
        x_n_t[:, n - 1, :] = x0 * c + p0 * s / n
        p_n_t[:, n - 1, :] = p0 * c - n * x0 * s
    pminus = lightcone_hamiltonian(lc)
    x_tilde_t = lc.x_tilde[None, :] + np.outer(xplus, lc.p_tilde) / lc.p_plus
    x_minus_t = lc.x_minus + pminus * xplus / lc.p_plus
    energies = np.zeros((n_pts, lc.n_max))
    for n in range(1, lc.n_max + 1):
        energies[:, n - 1] = (np.sum(p_n_t[:, n - 1, :] ** 2, axis=1)
                              + n * n * np.sum(x_n_t[:, n - 1, :] ** 2, axis=1))
    return {
        "xplus": xplus,
        "x_tilde": x_tilde_t,
        "x_minus": x_minus_t,
        "x_n": x_n_t,
        "p_n": p_n_t,
        "mode_energies": energies,
        "p_plus": np.full(n_pts, lc.p_plus),
    }
