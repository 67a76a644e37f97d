import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import PchipInterpolator, RegularGridInterpolator

from ascentry.models import (AeroTable, AtmosphereTable, EarthConstants,
                             ENTRY_ALPHA_EXTENDED, extend_entry_aero,
                             fit_drag_polar, load_boost_aero,
                             load_default_atmosphere, load_entry_aero,
                             load_entry_aero_raw)


@pytest.fixture(scope="module")
def atm():
    return load_default_atmosphere()


def test_earth_constants_are_kilometer_second_units():
    e = EarthConstants()
    assert 3.9e5 < e.mu < 4.0e5
    assert 6300.0 < e.re < 6400.0
    assert 0.009 < e.g0 < 0.010
    # circular speed at the surface, a sanity anchor for the unit system
    assert abs(np.sqrt(e.mu / e.re) - 7.905) < 5e-3


def test_density_reproduces_table_knots(atm):
    assert np.allclose(atm.density(atm.h_km), atm.rho_table, rtol=1e-12)


def test_sea_level_density(atm):
    assert abs(atm.density(0.0) - 1.224999) < 1e-6


def test_density_monotone_decreasing(atm):
    h = np.linspace(0.0, 200.0, 801)
    rho = atm.density(h)
    assert np.all(np.diff(rho) < 0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2.0, max_value=300.0))
def test_density_positive_everywhere(h):
    rho = load_default_atmosphere().density(h)
    assert rho > 0.0
    assert np.isfinite(rho)


def test_extrapolation_is_log_linear_and_continuous(atm):
    # above the top knot log-density must continue as a straight line that
    # meets the table value at the boundary
    hi = atm.h_km[-1]
    steps = np.array([5.0, 10.0, 20.0, 40.0])
    logr = np.log(atm.density(hi + steps))
    slopes = (logr - np.log(atm.rho_table[-1])) / steps
    assert np.allclose(slopes, slopes[0], rtol=1e-10)
    assert slopes[0] < 0.0
    assert abs(atm.density(hi) / atm.rho_table[-1] - 1.0) < 1e-12
    lo = atm.h_km[0]
    logr = np.log(atm.density(lo - steps))
    slopes = (np.log(atm.rho_table[0]) - logr) / steps
    assert np.allclose(slopes, slopes[0], rtol=1e-10)


def test_sound_speed_clamped_outside_table(atm):
    assert np.isclose(atm.sound_speed(-5.0), atm.a_table[0], rtol=1e-12)
    assert np.isclose(atm.sound_speed(500.0), atm.a_table[-1], rtol=1e-12)


def test_nonfinite_altitude_rejected(atm):
    for bad in (np.nan, np.inf, -np.inf):
        for query in (atm.lookup, atm.density, atm.sound_speed):
            with pytest.raises(ValueError):
                query(bad)
            with pytest.raises(ValueError):
                query(np.array([10.0, bad]))


def _atmosphere_oracle(atm, h):
    """Density and sound speed from two separate scipy PCHIPs: log-density
    continued linearly with its end slopes, sound speed held."""
    lo, hi = atm.h_km[0], atm.h_km[-1]
    logrho = PchipInterpolator(atm.h_km, np.log(atm.rho_table),
                               extrapolate=False)
    sound = PchipInterpolator(atm.h_km, atm.a_table, extrapolate=False)
    inside = np.clip(h, lo, hi)
    out = logrho(inside)
    below, above = h < lo, h > hi
    out[below] += logrho.derivative()(lo) * (h[below] - lo)
    out[above] += logrho.derivative()(hi) * (h[above] - hi)
    return np.exp(out), sound(inside)


def test_atmosphere_lookup_equals_separate_scipy_pchips(atm):
    rng = np.random.default_rng(12296)
    h = np.concatenate([atm.h_km, rng.uniform(0.0, 200.0, 2000),
                        rng.uniform(-30.0, 0.0, 100),
                        rng.uniform(200.0, 400.0, 100)])
    assert atm.h_km[0] == 0.0 and atm.h_km[-1] == 200.0
    rho, a = atm.lookup(h)
    rho_ref, a_ref = _atmosphere_oracle(atm, h)
    assert np.array_equal(rho, rho_ref) and np.array_equal(a, a_ref)
    assert np.array_equal(atm.density(h), rho)
    assert np.array_equal(atm.sound_speed(h), a)
    # one altitude at a time: two scalars, the batch's values
    singles = [atm.lookup(x) for x in h[::20]]
    assert all(np.ndim(r) == np.ndim(s) == 0 for r, s in singles)
    assert np.array_equal(np.array(singles), np.column_stack([rho, a])[::20])


def test_atmosphere_constructor_validates():
    with pytest.raises(ValueError):
        AtmosphereTable([0.0, 1.0], [1.0, -0.5], [0.3, 0.3])
    with pytest.raises(ValueError):
        AtmosphereTable([0.0, 0.0], [1.0, 0.5], [0.3, 0.3])


# -- aero tables


def test_boost_table_reproduces_grid_entry():
    t = load_boost_aero()
    # row alpha=-25, column mach=1.0 of the shipped file
    assert abs(t.cl(-25.0, 1.0) + 1.6) < 1e-9


def test_boost_queries_clamp_to_hull():
    t = load_boost_aero()
    assert t.cl(40.0, 1.0) == t.cl(t.alpha_deg[-1], 1.0)
    assert t.cd(0.0, 100.0) == t.cd(0.0, t.mach[-1])


def test_boost_drag_positive_on_grid():
    t = load_boost_aero()
    a, m = np.meshgrid(t.alpha_deg, t.mach, indexing="ij")
    assert np.all(t.cd(a.ravel(), m.ravel()) > 0)


def test_raw_entry_table_has_three_incidence_rows():
    raw = load_entry_aero_raw()
    assert list(raw.alpha_deg) == [10.0, 15.0, 20.0]
    assert abs(raw.cl(10.0, 2.0) - 0.42) < 1e-9
    assert abs(raw.cd(10.0, 2.0) - 0.116344) < 1e-9


def test_extended_entry_grid():
    t = load_entry_aero()
    assert tuple(t.alpha_deg) == ENTRY_ALPHA_EXTENDED


def test_extended_entry_peak_lift_to_drag_incidence():
    """The glide trim point must be the best lift-to-drag incidence."""
    t = load_entry_aero()
    for mach in (5.0, 12.0, 24.0):
        ratio = lambda a: t.cl(a, mach) / t.cd(a, mach)
        best = ratio(11.86)
        for a in (10.5, 11.0, 12.8, 14.0, 20.0):
            assert best > ratio(a)


def test_extend_entry_preserves_raw_rows():
    raw = load_entry_aero_raw()
    ext = extend_entry_aero(raw)
    for a in raw.alpha_deg:
        for m in raw.mach:
            assert abs(ext.cl(a, m) - raw.cl(a, m)) < 5e-3


def test_aero_from_csv_rejects_mismatched_grids(tmp_path):
    cl = tmp_path / "cl.csv"
    cd = tmp_path / "cd.csv"
    cl.write_text("alpha_deg,2,4\n0,0.1,0.2\n5,0.3,0.4\n")
    cd.write_text("alpha_deg,2,5\n0,0.1,0.2\n5,0.3,0.4\n")
    with pytest.raises(ValueError):
        AeroTable.from_csv(cl, cd)


def test_aero_table_shape_validation():
    with pytest.raises(ValueError):
        AeroTable([0.0, 5.0], [1.0, 2.0], np.ones((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("alpha,mach", [([0.0], [1.0, 2.0]),
                                        ([0.0, 5.0], [1.0])])
def test_aero_table_needs_two_knots_per_axis(alpha, mach):
    shape = (len(alpha), len(mach))
    with pytest.raises(ValueError):
        AeroTable(alpha, mach, np.ones(shape), np.ones(shape))


def _pchip_oracle(t, a, m):
    """scipy's tensor PCHIP at the clamped points, CL and CD in one pass."""
    rgi = RegularGridInterpolator((t.alpha_deg, t.mach),
                                  np.dstack([t.cl_table, t.cd_table]),
                                  method="pchip")
    with np.errstate(over="ignore"):  # harmonic mean of tiny secants
        out = rgi(np.column_stack([np.clip(a, t.alpha_deg[0], t.alpha_deg[-1]),
                                   np.clip(m, t.mach[0], t.mach[-1])]))
    return out[:, 0], out[:, 1]


def _oracle_points(t, rng, n):
    """Every knot, n seeded points inside the hull, n/10 on each hull edge
    and n/10 beyond the hull."""
    a0, a1, m0, m1 = t.alpha_deg[0], t.alpha_deg[-1], t.mach[0], t.mach[-1]
    ka, km = np.meshgrid(t.alpha_deg, t.mach, indexing="ij")
    k = max(n // 10, 1)
    edge_a, edge_m = rng.uniform(a0, a1, k), rng.uniform(m0, m1, k)
    a = np.concatenate([ka.ravel(), rng.uniform(a0, a1, n),
                        np.full(k, a0), np.full(k, a1), edge_a, edge_a,
                        rng.uniform(a0 - 10.0, a1 + 10.0, k)])
    m = np.concatenate([km.ravel(), rng.uniform(m0, m1, n),
                        edge_m, edge_m, np.full(k, m0), np.full(k, m1),
                        rng.uniform(m0 - 2.0, m1 + 10.0, k)])
    return a, m


@pytest.mark.parametrize("load", [load_boost_aero, load_entry_aero])
def test_aero_table_matches_scipy_pchip(load):
    t = load()
    a, m = _oracle_points(t, np.random.default_rng(12296), 2000)
    cl, cd = _pchip_oracle(t, a, m)
    # on the shipped tables the tensor PCHIP is scipy's to the last bit,
    # and cl and cd are the paired lookup's halves
    assert np.array_equal(t.lookup(a, m), (cl, cd))
    assert np.array_equal(t.cl(a, m), cl) and np.array_equal(t.cd(a, m), cd)
    # points beyond the hull read the hull's value
    assert t.cl(t.alpha_deg[-1] + 7.0, t.mach[-1] + 3.0) == \
        t.cl(t.alpha_deg[-1], t.mach[-1])


@pytest.mark.parametrize("load", [load_boost_aero, load_entry_aero])
def test_aero_batch_equals_single_queries(load):
    t = load()
    a, m = _oracle_points(t, np.random.default_rng(7), 100)
    for query in (t.cl, t.cd):
        one = np.array([query(x, y) for x, y in zip(a, m)])
        assert np.array_equal(query(a, m), one)
    singles = [t.lookup(x, y) for x, y in zip(a, m)]
    assert all(np.ndim(cl) == np.ndim(cd) == 0 for cl, cd in singles)
    assert np.array_equal(np.array(singles).T, t.lookup(a, m))
    # one scalar query with array partner broadcasts
    assert np.array_equal(t.cl(3.0, m[:5]), t.cl(np.full(5, 3.0), m[:5]))
    assert np.array_equal(t.lookup(3.0, m[:5]), t.lookup(np.full(5, 3.0), m[:5]))


def test_nonfinite_aero_query_rejected():
    t = load_entry_aero()
    for bad in (np.nan, np.inf, -np.inf):
        for query in (t.lookup, t.cl, t.cd):
            with pytest.raises(ValueError):
                query(bad, 2.0)
            with pytest.raises(ValueError):
                query(np.array([5.0, 6.0]), np.array([2.0, bad]))


def test_two_knot_axis_interpolates_linearly():
    mach = np.array([0.5, 1.0, 2.0, 4.0])
    cl = np.array([[0.1, 0.3, 0.2, 0.4], [0.5, -0.2, 0.9, 0.0]])
    t = AeroTable([0.0, 10.0], mach, cl, cl + 1.0)
    for mq in (0.7, 1.5, 3.9):
        lo, hi = t.cl(0.0, mq), t.cl(10.0, mq)
        for w in (0.25, 0.5, 0.9):
            assert t.cl(10.0 * w, mq) == pytest.approx(lo + w * (hi - lo),
                                                       abs=1e-14)


def _table_row(kind, n, draw):
    vals = st.floats(-3.0, 3.0, allow_nan=False)
    if kind == "flat":
        return np.full(n, draw(vals))
    if kind == "monotone":
        steps = draw(st.lists(st.floats(0.0, 2.0), min_size=n - 1,
                              max_size=n - 1))
        return draw(vals) + draw(st.sampled_from([-1.0, 1.0])) * np.concatenate(
            [[0.0], np.cumsum(steps)])
    return np.array(draw(st.lists(vals, min_size=n, max_size=n)))


@st.composite
def _random_tables(draw):
    def grid(n):
        gaps = draw(st.lists(st.floats(0.05, 4.0), min_size=n - 1,
                             max_size=n - 1))
        return draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])

    na, nm = draw(st.integers(4, 8)), draw(st.integers(4, 8))
    kinds = st.sampled_from(["flat", "monotone", "sign-changing"])
    cl = np.array([_table_row(draw(kinds), nm, draw) for _ in range(na)])
    # CD's rows run along alpha, so each kind of row meets both axes
    cd = np.array([_table_row(draw(kinds), na, draw) for _ in range(nm)]).T
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return AeroTable(grid(na), grid(nm), cl, cd), seed


@settings(max_examples=60, deadline=None)
@given(_random_tables())
def test_random_tables_match_scipy_pchip_and_their_knots(case):
    t, seed = case
    a, m = _oracle_points(t, np.random.default_rng(seed), 40)
    cl, cd = _pchip_oracle(t, a, m)
    for query, ref, table in ((t.cl, cl, t.cl_table), (t.cd, cd, t.cd_table)):
        tol = 1e-12 * max(1.0, np.abs(table).max())
        assert np.abs(query(a, m) - ref).max() <= tol
        ka, km = np.meshgrid(t.alpha_deg, t.mach, indexing="ij")
        assert np.abs(query(ka.ravel(), km.ravel()) - table.ravel()).max() <= tol


# -- drag polar


def test_fit_drag_polar_recovers_quadratic():
    cl = np.linspace(-0.8, 1.2, 25)
    cd = 0.032 + 0.41 * cl ** 2
    fit = fit_drag_polar(cl, cd)
    assert abs(fit.cd0 - 0.032) < 1e-10
    assert abs(fit.k - 0.41) < 1e-10
    assert np.allclose(fit.cd(cl), cd, atol=1e-10)
