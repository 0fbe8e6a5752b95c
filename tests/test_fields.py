import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from stringfock.basis import enumerate_basis
from stringfock.config import minkowski_metric
from stringfock.fields import (MultiStringSpace, ShellGrid, _bump_transform,
                               field_ccr_report, observable_check, one_string_inner,
                               pi_plus, shell_energy)
from stringfock.propagator import (Bump1D, InternalVector, SmearingFunction,
                                   SpacetimeBump)

from oracles import outer_trapezoid_transform


def std_bump(tc=0.0, tr=0.5, xc=0.0, xr=0.5):
    return SpacetimeBump(Bump1D(tc, tr), (Bump1D(xc, xr),))


@pytest.fixture(scope="module")
def setting():
    basis = enumerate_basis(26, 2)
    metric = minkowski_metric(26)
    shells = ShellGrid(40.0, 1200)
    return basis, metric, shells


@pytest.mark.parametrize("shells", [ShellGrid(50.0, 2000), ShellGrid(40.0, 1200)])
def test_bump_transform_matches_outer_trapezoid(shells):
    # time and space bumps of the criterion-7 and field-CCR pairs, both signs
    p = shells.points()
    cases = [(Bump1D(0.6, 0.5), 1.0, shell_energy(p, r)) for r in (0.0, 2.0)]
    cases += [(Bump1D(-0.1, 0.45), 1.0, shell_energy(p, r)) for r in (0.0, 2.0)]
    cases += [(Bump1D(0.4, 0.5), -1.0, p), (Bump1D(-0.3, 0.45), -1.0, p)]
    for bump, sign, k in cases:
        want = outer_trapezoid_transform(bump, k, sign)
        got = _bump_transform(bump, k, sign)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_profile_cosine_transform_matches_quad():
    def profile(s):
        return math.exp(-1.0 / (1.0 - s * s)) if s < 1.0 else 0.0

    kappas = np.linspace(0.0, 40.0, 11)
    got = _bump_transform(Bump1D(0.0, 1.0), kappas, 1.0)
    want = [2.0 * quad(profile, 0.0, 1.0, weight="cos", wvar=k, epsabs=1e-14,
                       epsrel=1e-13, limit=200)[0] for k in kappas]
    assert np.max(np.abs(got - want)) <= 1e-14


def test_bump_transform_is_linear_in_amplitude():
    k = ShellGrid(50.0, 2000).points()
    unit = _bump_transform(Bump1D(0.2, 0.4), k, -1.0)
    scaled = _bump_transform(Bump1D(0.2, 0.4, 2.5), k, -1.0)
    assert np.max(np.abs(scaled - 2.5 * unit)) <= 1e-15 * np.max(np.abs(scaled))


def test_tachyon_component_has_no_projection(setting):
    basis, metric, shells = setting
    vec = InternalVector(basis, metric, {basis.index[()]: Fraction(1)})
    F = SmearingFunction(std_bump(), vec)
    proj = pi_plus(F, Fraction(1), shells)
    assert proj.components == {}


def test_level_one_projects_to_massless_shell_only(setting):
    basis, metric, shells = setting
    vec = InternalVector(basis, metric, {basis.index[((1, 3),)]: Fraction(1)})
    F = SmearingFunction(std_bump(), vec)
    proj = pi_plus(F, Fraction(1), shells)
    assert list(proj.components) == [1]
    assert proj.level_r(1) == 0.0


def test_transverse_projection_has_nonnegative_norm(setting):
    basis, metric, shells = setting
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    F = SmearingFunction(std_bump(), vec)
    proj = pi_plus(F, Fraction(1), shells)
    norm = one_string_inner(proj, proj)
    assert norm.real > 0
    assert abs(norm.imag) < 1e-15 * norm.real


def test_shell_grid_consistency_between_resolutions(setting):
    # commutator-relevant pairing is stable under refining the quadrature
    basis, metric, _ = setting
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    F = SmearingFunction(std_bump(), vec)
    G = SmearingFunction(std_bump(tc=0.6, xc=0.4), vec)
    vals = []
    for n in (800, 1600):
        shells = ShellGrid(40.0, n)
        pf = pi_plus(F, Fraction(1), shells)
        pg = pi_plus(G, Fraction(1), shells)
        vals.append(one_string_inner(pf, pg) - one_string_inner(pg, pf))
    assert abs(vals[0] - vals[1]) < 1e-8 * abs(vals[1])


def test_phi_creates_one_particle_from_vacuum(setting):
    basis, metric, shells = setting
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    F = SmearingFunction(std_bump(), vec)
    proj = pi_plus(F, Fraction(1), shells)
    space = MultiStringSpace([proj], particle_cutoff=3)
    mat = space.phi(0)
    vac = space.index[()]
    one = space.index[(0,)]
    col = mat[:, vac]
    assert col[one] == 1.0
    assert np.sum(np.abs(col)) == 1.0


def test_two_point_function_equals_one_string_pairing(setting):
    basis, metric, shells = setting
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    F = SmearingFunction(std_bump(), vec)
    G = SmearingFunction(std_bump(tc=0.5), vec)
    pf = pi_plus(F, Fraction(1), shells)
    pg = pi_plus(G, Fraction(1), shells)
    space = MultiStringSpace([pf, pg], particle_cutoff=2)
    phi_f = space.phi(0)
    phi_g = space.phi(1)
    gk = space.gram_matrix()
    vac = space.index[()]
    vac_vec = np.zeros(space.dim, dtype=complex)
    vac_vec[vac] = 1.0
    lhs = vac_vec.conj() @ gk @ (phi_f @ phi_g @ vac_vec)
    assert abs(lhs - one_string_inner(pf, pg)) < 1e-12


def test_creation_above_cutoff_truncates_to_zero(setting):
    basis, metric, shells = setting
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    proj = pi_plus(SmearingFunction(std_bump(), vec), Fraction(1), shells)
    space = MultiStringSpace([proj], particle_cutoff=2)
    top = space.index[(0, 0)]
    cre = space.creation_matrix(0)
    assert np.all(cre[:, top] == 0.0)


def test_field_ccr_two_route_match(setting):
    basis, metric, shells = setting
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1),
                                         basis.index[((2, 2),)]: Fraction(1, 2)})
    F = SmearingFunction(std_bump(tc=-0.1, xc=0.1, tr=0.45), vec)
    G = SmearingFunction(std_bump(tc=0.9, xc=-0.3, tr=0.4, xr=0.45), vec)
    rep = field_ccr_report(F, G, Fraction(1), shells, 3,
                           propagator_kwargs={"h": 0.008})
    assert rep["relative_mismatch"] < 1e-4
    assert rep["offdiagonal_max"] < 1e-12
    assert rep["hermiticity_defect"] < 1e-12


def test_field_ccr_rejects_tachyonic_internal(setting):
    basis, metric, shells = setting
    vec = InternalVector(basis, metric, {basis.index[()]: Fraction(1)})
    F = SmearingFunction(std_bump(), vec)
    with pytest.raises(ValueError):
        field_ccr_report(F, F, Fraction(1), shells, 3)


def test_observable_check_polarizations(setting):
    basis, metric, shells = setting
    transverse = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    timelike = InternalVector(basis, metric, {basis.index[((1, 0),)]: Fraction(1)})
    empty = InternalVector(basis, metric, {basis.index[()]: Fraction(1)})
    ok_t, res_t, _ = observable_check(SmearingFunction(std_bump(), transverse),
                                      Fraction(1), shells)
    assert ok_t and res_t == 0.0
    ok_0, res_0, _ = observable_check(SmearingFunction(std_bump(), timelike),
                                      Fraction(1), shells)
    assert not ok_0 and res_0 > 1e-3
    ok_e, res_e, details = observable_check(SmearingFunction(std_bump(), empty),
                                            Fraction(1), shells)
    assert ok_e and res_e == 0.0 and details == []
