import numpy as np

from stringfock.worldsheet import WorldsheetSolution, evaluate, wave_residual


def generic_sheet():
    modes = np.zeros((2, 4), dtype=complex)
    modes[0] = (0.3 + 0.1j, 0.2 - 0.05j, -0.1j, 0.05)
    modes[1] = (0.1, 0.1j, 0.05, -0.02 + 0.03j)
    return WorldsheetSolution(x=np.array([0.0, 0.1, -0.2, 0.0]),
                              p=np.array([1.0, 0.3, 0.2, 0.1]),
                              modes=modes)


def test_zero_modes_give_straight_line():
    ws = WorldsheetSolution(x=np.array([1.0, 2.0]), p=np.array([0.5, -0.5]),
                            modes=np.zeros((0, 2)))
    x_val, dtau, dsig = evaluate(ws, 2.0, 1.0)
    assert np.allclose(x_val, ws.x + 2.0 * ws.p)
    assert np.allclose(dtau, ws.p)
    assert np.allclose(dsig, 0.0)


def test_neumann_ends():
    ws = generic_sheet()
    for tau in (0.0, 0.7, 2.3):
        for sigma in (0.0, np.pi):
            _, _, dsig = evaluate(ws, tau, sigma)
            assert np.max(np.abs(dsig)) < 1e-14


def test_wave_equation_residual_vanishes_per_mode():
    ws = generic_sheet()
    for tau in (0.0, 1.1):
        for sigma in (0.3, 1.0, 2.9):
            assert np.max(np.abs(wave_residual(ws, tau, sigma))) < 1e-14


def test_sheet_is_real():
    ws = generic_sheet()
    x_val, dtau, dsig = evaluate(ws, 0.37, 1.41)
    # evaluate returns real parts; rebuild the complex sum and compare
    total = ws.x + ws.p * 0.37 + 0j
    for n in range(1, 3):
        for sgn in (n, -n):
            total = total + 1j * ws.mode(sgn) * np.exp(-1j * sgn * 0.37) \
                * np.cos(sgn * 1.41) / sgn
    assert np.max(np.abs(np.imag(total))) < 1e-14
    assert np.allclose(np.real(total), x_val)

