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


def _at(query, *point):
    """query at one point, passed as a one-row stack."""
    return query(*(np.array([x]) for x in point))[0]


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
    assert abs(_at(atm.density, 0.0) - 1.224999) < 1e-6


def test_density_monotone_decreasing(atm):
    # every altitude box of a mission phase, -0.01 km (the entry dive's
    # floor) to 230 km, reaches 30 km past the table's top knot; density
    # keeps falling there on the end interval's cubic
    h = np.linspace(-0.01, 230.0, 23002)
    rho = atm.density(h)
    assert np.all(np.diff(rho) < 0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-2.0, max_value=300.0))
def test_density_positive_everywhere(h):
    rho = _at(load_default_atmosphere().density, h)
    assert rho > 0.0
    assert np.isfinite(rho)


def _assert_c1_across(f, edge, step):
    """The one-sided difference quotients of each output of f (a tuple of
    arrays) inside and beyond the edge agree: no jump and no kink there."""
    below, at, above = (np.array(f(edge + k * step)) for k in (-1.0, 0.0, 1.0))
    inside, beyond = (at - below) / step, (above - at) / step
    # the quotients differ by step * f'' and by rounding of order eps f / step,
    # both far below 1e-6 of the value per unit at the steps used here
    assert np.all(np.abs(beyond - inside)
                  <= 1e-4 * (np.abs(inside) + np.abs(beyond)) + 1e-6 * np.abs(at))


def test_density_is_c1_across_its_end_knots(atm):
    # beyond each end knot log-density continues on the end interval's
    # cubic, so density keeps its value and slope, and falls past the top
    edges = atm.h_km[[0, -1]]
    _assert_c1_across(lambda h: (atm.density(h),), edges, 1e-5)
    assert np.allclose(atm.density(edges), atm.rho_table[[0, -1]], rtol=1e-12)
    assert _at(atm.density, edges[-1] + 1e-5) < atm.rho_table[-1]


def test_sound_speed_is_c1_across_its_end_knots(atm):
    # sound speed is no longer held beyond the knots: it continues on the
    # end interval's cubic, keeping its value and slope at each end knot
    edges = atm.h_km[[0, -1]]
    _assert_c1_across(lambda h: (atm.sound_speed(h),), edges, 1e-5)
    assert np.allclose(atm.sound_speed(edges), atm.a_table[[0, -1]], rtol=1e-12)


def test_nonfinite_altitude_rejected(atm):
    for bad in (np.nan, np.inf, -np.inf):
        for query in (atm.lookup, atm.density, atm.sound_speed):
            with pytest.raises(ValueError):
                query(np.array([bad]))
            with pytest.raises(ValueError):
                query(np.array([10.0, bad]))


def _atmosphere_oracle(atm, h):
    """Density and sound speed from two separate scipy PCHIPs, each
    continued on its end cubics beyond the knots (scipy's default)."""
    logrho = PchipInterpolator(atm.h_km, np.log(atm.rho_table))
    sound = PchipInterpolator(atm.h_km, atm.a_table)
    return np.exp(logrho(h)), sound(h)


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
    # each altitude as a one-row stack: the stack's row, bit for bit
    for i in range(0, len(h), 20):
        one = atm.lookup(h[i:i + 1])
        assert [x.shape for x in one] == [(1,), (1,)]
        assert one[0][0] == rho[i] and one[1][0] == a[i]


def test_atmosphere_constructor_validates():
    with pytest.raises(ValueError):
        AtmosphereTable([0.0, 1.0], [1.0, -0.5], [0.3, 0.3])
    with pytest.raises(ValueError):
        AtmosphereTable([0.0, 0.0], [1.0, 0.5], [0.3, 0.3])


# -- aero tables


def test_boost_table_reproduces_grid_entry():
    t = load_boost_aero()
    # row alpha=-25, column mach=1.0 of the shipped file
    assert abs(_at(t.cl, -25.0, 1.0) + 1.6) < 1e-9


@pytest.mark.parametrize("load", [load_boost_aero, load_entry_aero])
def test_aero_table_is_c1_across_its_edges(load):
    # along each edge of the grid, at every knot and midpoint of the other
    # axis, CL and CD keep their values and their slopes across the edge:
    # beyond it each axis continues on its end interval's cubic
    t = load()
    for edge_axis, along in ((t.alpha_deg, t.mach), (t.mach, t.alpha_deg)):
        other = np.concatenate([along, 0.5 * (along[1:] + along[:-1])])
        for edge in edge_axis[[0, -1]]:
            def f(x):
                e = np.full(len(other), x)
                pts = (e, other) if edge_axis is t.alpha_deg else (other, e)
                return t.lookup(*pts)
            _assert_c1_across(f, edge, 1e-6 * max(1.0, abs(edge)))


def test_boost_drag_positive_on_grid():
    t = load_boost_aero()
    a, m = np.meshgrid(t.alpha_deg, t.mach, indexing="ij")
    assert np.all(t.cd(a.ravel(), m.ravel()) > 0)


def test_raw_entry_table_has_three_incidence_rows():
    raw = load_entry_aero_raw()
    assert list(raw.alpha_deg) == [10.0, 15.0, 20.0]
    assert abs(_at(raw.cl, 10.0, 2.0) - 0.42) < 1e-9
    assert abs(_at(raw.cd, 10.0, 2.0) - 0.116344) < 1e-9


def test_extended_entry_grid():
    t = load_entry_aero()
    assert tuple(t.alpha_deg) == ENTRY_ALPHA_EXTENDED


def test_extended_entry_peak_lift_to_drag_incidence():
    """The glide trim point must be the best lift-to-drag incidence."""
    t = load_entry_aero()
    # the trim incidence first, then the ones it must beat
    a = np.array([11.86, 10.5, 11.0, 12.8, 14.0, 20.0])
    for mach in (5.0, 12.0, 24.0):
        m = np.full(len(a), mach)
        ratio = t.cl(a, m) / t.cd(a, m)
        assert np.all(ratio[0] > ratio[1:])


def test_extend_entry_preserves_raw_rows():
    raw = load_entry_aero_raw()
    ext = extend_entry_aero(raw)
    a, m = (g.ravel() for g in np.meshgrid(raw.alpha_deg, raw.mach,
                                           indexing="ij"))
    assert np.abs(ext.cl(a, m) - raw.cl(a, m)).max() < 5e-3


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
    """scipy's tensor PCHIP, continued on its end cubics beyond the grid,
    CL and CD in one pass."""
    rgi = RegularGridInterpolator((t.alpha_deg, t.mach),
                                  np.dstack([t.cl_table, t.cd_table]),
                                  method="pchip", bounds_error=False,
                                  fill_value=None)
    with np.errstate(over="ignore"):  # harmonic mean of tiny secants
        out = rgi(np.column_stack([a, m]))
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
    # inside the hull and beyond it, and cl and cd are the paired lookup's
    # halves
    assert np.array_equal(t.lookup(a, m), (cl, cd))
    assert np.array_equal(t.cl(a, m), cl) and np.array_equal(t.cd(a, m), cd)


@pytest.mark.parametrize("load", [load_boost_aero, load_entry_aero])
def test_aero_batch_equals_single_queries(load):
    # each row of a stack is the same point queried as a one-row stack, bit
    # for bit: the contract the stacked derivative probes rely on
    t = load()
    a, m = _oracle_points(t, np.random.default_rng(7), 100)
    cl, cd = t.lookup(a, m)
    for i in range(len(a)):
        one = t.lookup(a[i:i + 1], m[i:i + 1])
        assert [x.shape for x in one] == [(1,), (1,)]
        assert one[0][0] == cl[i] and one[1][0] == cd[i]
        assert _at(t.cl, a[i], m[i]) == cl[i]
        assert _at(t.cd, a[i], m[i]) == cd[i]


def test_nonfinite_aero_query_rejected():
    t = load_entry_aero()
    for bad in (np.nan, np.inf, -np.inf):
        for query in (t.lookup, t.cl, t.cd):
            with pytest.raises(ValueError):
                query(np.array([bad]), np.array([2.0]))
            with pytest.raises(ValueError):
                query(np.array([5.0, 6.0]), np.array([2.0, bad]))


def test_two_knot_axis_interpolates_linearly():
    mach = np.array([0.5, 1.0, 2.0, 4.0])
    cl = np.array([[0.1, 0.3, 0.2, 0.4], [0.5, -0.2, 0.9, 0.0]])
    t = AeroTable([0.0, 10.0], mach, cl, cl + 1.0)
    w = np.array([0.0, 1.0, 0.25, 0.5, 0.9])
    for mq in (0.7, 1.5, 3.9):
        got = t.cl(10.0 * w, np.full(len(w), mq))
        lo, hi = got[0], got[1]
        assert got[2:] == pytest.approx(lo + w[2:] * (hi - lo), abs=1e-14)


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
