"""Environment and vehicle data models.

Units here and everywhere downstream: altitude km, speed km/s, density
kg/m^3, sound speed km/s, angles of attack in the aero tables in degrees.

Every table interpolates by one rule, the PCHIP of Fritsch & Carlson
(SIAM J. Numer. Anal. 17(2), 1980) with scipy's slopes: beyond its end
knots each axis evaluates its end interval's cubic, as scipy's PCHIPs do
by default, so every lookup is C1 across each table edge.  Lookups carry
complex queries: the searches and sign tests read real parts.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np


@dataclass(frozen=True)
class EarthConstants:
    """Gravitational parameter km^3/s^2, radius km, spin rad/s, g0 km/s^2."""

    mu: float = 3.986004405e5
    re: float = 6378.166
    omega: float = 7.292115856e-5
    g0: float = 9.8066498e-3


class AtmosphereTable:
    """Tabulated density and speed of sound versus altitude.

    Density is interpolated as a shape-preserving cubic in log(rho), so the
    lookup is positive everywhere, reproduces the table at its knots, and is
    monotone wherever the table is.  Beyond the end knots both columns
    follow the end cubics; on the shipped table (0-200 km) density falls
    from -28.6 km to 370.8 km, past every phase's altitude box.

    One PCHIP carries both columns, [log rho, a]: `lookup` returns density
    and sound speed from one pass, and `density` and `sound_speed` are views
    of it.
    """

    def __init__(self, h_km: np.ndarray, rho: np.ndarray, a_kms: np.ndarray):
        h = np.asarray(h_km, dtype=float)
        rho = np.asarray(rho, dtype=float)
        a = np.asarray(a_kms, dtype=float)
        if h.ndim != 1 or len(h) < 2:
            raise ValueError("need at least two altitude knots")
        if np.any(np.diff(h) <= 0):
            raise ValueError("altitude knots must be strictly increasing")
        if np.any(rho <= 0) or np.any(a <= 0):
            raise ValueError("densities and sound speeds must be positive")
        self.h_km = h
        self.rho_table = rho
        self.a_table = a
        self._axis = _PchipAxis(h)
        y = np.column_stack([np.log(rho), a])[:, :, None]
        # (4, 2, n-1): one cubic per column and interval
        self._coef = np.ascontiguousarray(self._axis.cubics(y)[..., 0].transpose(0, 2, 1))

    @classmethod
    def from_csv(cls, path) -> "AtmosphereTable":
        data = np.genfromtxt(path, delimiter=",", names=True)
        return cls(data["h_km"], data["rho_kgm3"], data["a_kms"])

    def lookup(self, h_km):
        """(density, sound speed) at the 1-D array of altitudes h_km, each
        of h_km's length."""
        if not np.isfinite(h_km).all():
            raise ValueError("altitude must be finite")
        i = self._axis.interval(h_km)
        logrho, a = _hermite(self._coef[..., i], h_km - self.h_km[i])
        return np.exp(logrho), a

    def density(self, h_km) -> np.ndarray:
        return self.lookup(h_km)[0]

    def sound_speed(self, h_km) -> np.ndarray:
        return self.lookup(h_km)[1]


class _PchipAxis:
    """One grid axis with the fixed weights of scipy's PCHIP slope rule.

    Inside: the weighted harmonic mean of the neighbouring secants, zero
    where they change sign or either is flat.  At each end: the one-sided
    three-point formula, zeroed where its sign differs from the end
    secant's, and set to three times that secant where the first two
    secants change sign and it exceeds that.  Two knots give the secant at
    both ends, so the interpolant is linear.  Secants and slopes run along
    axis 0 and carry two trailing axes.
    """

    _EDGE, _NEXT = np.array([0, -1]), np.array([1, -2])  # end, next one in

    def __init__(self, knots):
        self.knots = knots
        self.inner = knots[1:-1]
        self.width = np.diff(knots)
        self.h = h = self.width[:, None, None]
        if len(h) > 1:
            self.w1 = 2 * h[1:] + h[:-1]
            self.w2 = h[1:] + 2 * h[:-1]
            self.w12 = self.w1 + self.w2
            h0, h1 = h[self._EDGE], h[self._NEXT]
            self.h0, self.e1, self.e0 = h0, 2 * h0 + h1, h0 + h1

    def interval(self, q):
        """Index i with knots[i] <= q < knots[i+1]; the first one below the
        knots and the last from the end knot on: the end cubics continue."""
        return self.inner.searchsorted(np.real(q), side="right")

    def slopes(self, m):
        """Node slopes along axis 0 from the secants m, (n-1, k, p), in m's dtype."""
        if len(m) == 1:
            return np.concatenate([m, m])
        sm = np.sign(m.real)
        d = np.empty((len(m) + 1,) + m.shape[1:], m.dtype)
        # flat entries are discarded; tiny secants overflow to a zero slope
        with np.errstate(all="ignore"):
            d[1:-1] = np.where(sm[1:] * sm[:-1] <= 0, 0.0,
                               1.0 / ((self.w1 / m[:-1] + self.w2 / m[1:]) / self.w12))
        m0, s0 = m[self._EDGE], sm[self._EDGE]
        e = (self.e1 * m0 - self.h0 * m[self._NEXT]) / self.e0
        cap = 3.0 * m0
        overshoot = (s0 != sm[self._NEXT]) & (np.abs(e.real) > np.abs(cap.real))
        d[self._EDGE] = np.where(np.sign(e.real) != s0, 0.0,
                                np.where(overshoot, cap, e))
        return d

    def cubics(self, y):
        """Coefficients (4, n-1, k, p) of the PCHIP through y, (n, k, p)."""
        slope = np.diff(y, axis=0) / self.h
        d = self.slopes(slope)
        return np.stack(_hermite_coefficients(self.h, y[:-1], d[:-1], d[1:], slope))


def _hermite_coefficients(h, y0, d0, d1, slope):
    """Cubic Hermite coefficients on an interval of width h, highest power
    first, as scipy's CubicHermiteSpline forms them."""
    t = (d0 + d1 - 2 * slope) / h
    return t / h, (slope - d0) / h - t, d0, y0


def _hermite(c, s):
    """c[0] s^3 + c[1] s^2 + c[2] s + c[3], summed in scipy's PPoly order."""
    s2 = s * s
    return ((c[3] + c[2] * s) + c[1] * s2) + c[0] * (s2 * s)


class _TensorPchip:
    """Tensor-product PCHIP of k stacked tables on an (alpha, mach) grid:
    along Mach first, then along alpha through the Mach-interpolated
    columns, as scipy's RegularGridInterpolator(method="pchip") does point
    by point.  The tables ride along one trailing axis, so every step is
    one array operation for all of them."""

    def __init__(self, alpha: _PchipAxis, mach: _PchipAxis, tables):
        self.alpha = alpha
        self.mach = mach
        # (4, n_alpha, k, n_mach-1): one cubic per alpha row, table and
        # Mach interval
        self.coef = np.ascontiguousarray(
            mach.cubics(tables.transpose(1, 0, 2)).transpose(0, 2, 3, 1))
        self.table = np.arange(tables.shape[2])[:, None]

    def __call__(self, a, m):
        """Values (k, p) at p points a, m, both 1-D; off the grid each axis
        evaluates its end interval's cubic."""
        k = self.mach.interval(m)
        cols = _hermite(self.coef[..., k], m - self.mach.knots[k])
        slope = (cols[1:] - cols[:-1]) / self.alpha.h  # (n_alpha-1, k, p)
        d = self.alpha.slopes(slope)
        j = self.alpha.interval(a)
        at = j, self.table, np.arange(len(a))
        nxt = j + 1, self.table, at[2]
        c = _hermite_coefficients(self.alpha.width[j], cols[at], d[at],
                                  d[nxt], slope[at])
        return _hermite(c, a - self.alpha.knots[j])


class AeroTable:
    """CL/CD tables on an (alpha_deg, mach) grid, queried at stacks of
    points, two 1-D arrays of one length.

    Both coefficients interpolate by one rule, a tensor-product PCHIP: the
    same function as scipy's RegularGridInterpolator(method="pchip",
    fill_value=None), to round-off, on and off the grid, for every table
    with at least two knots per axis.  An axis with two knots interpolates
    linearly.  The Mach-axis cubics are fixed with the table and built
    once; each query evaluates them for all alpha rows at once and then
    takes the alpha-axis slopes of those columns as one batch.  CL and CD
    are stacked into one interpolant: `lookup` returns both from one pass,
    and `cl` and `cd` are views of it.
    """

    def __init__(self, alpha_deg, mach, cl, cd):
        self.alpha_deg = np.asarray(alpha_deg, dtype=float)
        self.mach = np.asarray(mach, dtype=float)
        self.cl_table = np.asarray(cl, dtype=float)
        self.cd_table = np.asarray(cd, dtype=float)
        for grid in (self.alpha_deg, self.mach):
            if grid.ndim != 1 or len(grid) < 2:
                raise ValueError("each grid axis needs at least two knots")
        if self.cl_table.shape != (len(self.alpha_deg), len(self.mach)):
            raise ValueError("CL table shape does not match grids")
        if self.cd_table.shape != self.cl_table.shape:
            raise ValueError("CD table shape does not match CL table")
        if np.any(np.diff(self.alpha_deg) <= 0) or np.any(np.diff(self.mach) <= 0):
            raise ValueError("grids must be strictly increasing")
        if not all(np.isfinite(a).all() for a in (self.alpha_deg, self.mach,
                                                  self.cl_table, self.cd_table)):
            raise ValueError("grid knots and table entries must be finite")
        self._pchip = _TensorPchip(
            _PchipAxis(self.alpha_deg), _PchipAxis(self.mach),
            np.stack([self.cl_table, self.cd_table], axis=-1))

    @classmethod
    def from_csv(cls, cl_path, cd_path) -> "AeroTable":
        def read(path):
            with open(path) as f:
                header = f.readline().strip().split(",")
            mach = np.array([float(m) for m in header[1:]])
            body = np.genfromtxt(path, delimiter=",", skip_header=1)
            body = np.atleast_2d(body)
            return body[:, 0], mach, body[:, 1:]

        acl, mcl, cl = read(cl_path)
        acd, mcd, cd = read(cd_path)
        if not (np.array_equal(acl, acd) and np.array_equal(mcl, mcd)):
            raise ValueError("CL and CD files must share the same grid")
        return cls(acl, mcl, cl, cd)

    def lookup(self, alpha_deg, mach):
        """(CL, CD) at the points (alpha_deg[i], mach[i]); alpha_deg and
        mach are 1-D arrays of one length."""
        if not (np.isfinite(alpha_deg).all() and np.isfinite(mach).all()):
            raise ValueError("aero queries must be finite")
        return tuple(self._pchip(alpha_deg, mach))

    def cl(self, alpha_deg, mach):
        return self.lookup(alpha_deg, mach)[0]

    def cd(self, alpha_deg, mach):
        return self.lookup(alpha_deg, mach)[1]


@dataclass(frozen=True)
class DragPolarFit:
    """Least-squares CD = cd0 + k CL^2 over one Mach column."""

    cd0: float
    k: float

    def cd(self, cl):
        return self.cd0 + self.k * cl ** 2


def fit_drag_polar(cl, cd) -> DragPolarFit:
    """Linear least squares in the basis {1, CL^2}."""
    cl = np.asarray(cl, dtype=float)
    cd = np.asarray(cd, dtype=float)
    cl2 = cl ** 2
    if np.ptp(cl2) == 0.0:
        raise ValueError("all CL^2 values identical, polar fit is rank deficient")
    basis = np.column_stack([np.ones_like(cl2), cl2])
    coef, *_ = np.linalg.lstsq(basis, cd, rcond=None)
    return DragPolarFit(cd0=float(coef[0]), k=float(coef[1]))


ENTRY_ALPHA_RAW = (10.0, 15.0, 20.0)
ENTRY_ALPHA_EXTENDED = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)


def extend_entry_aero(raw: AeroTable) -> AeroTable:
    """Extend a raw {10, 15, 20} deg entry table to {0, 5, 10, 15, 20, 25}.

    CL(0) = 0, CL(5) is the midpoint of 0 and CL(10), CL(25) extrapolates
    linearly from (15, 20).  CD at the new alphas comes from a per-Mach-column
    drag-polar fit; the raw rows keep their tabulated CD.
    """
    if not np.array_equal(raw.alpha_deg, ENTRY_ALPHA_RAW):
        raise ValueError("raw entry table must have alpha rows {10, 15, 20} deg")
    cl10, cl15, cl20 = raw.cl_table
    cd10, cd15, cd20 = raw.cd_table
    cl25 = 2.0 * cl20 - cl15
    cl = np.vstack([np.zeros_like(cl10), 0.5 * cl10, cl10, cl15, cl20, cl25])
    cd = np.empty_like(cl)
    for j in range(cl.shape[1]):
        fit = fit_drag_polar(raw.cl_table[:, j], raw.cd_table[:, j])
        cd5, cd25 = fit.cd(cl[[1, 5], j])
        cd[:, j] = [fit.cd0, cd5, cd10[j], cd15[j], cd20[j], cd25]
    return AeroTable(np.array(ENTRY_ALPHA_EXTENDED), raw.mach, cl, cd)


def _data_path(name: str):
    return resources.files("ascentry.data").joinpath(name)


def load_default_atmosphere() -> AtmosphereTable:
    return AtmosphereTable.from_csv(_data_path("atmosphere_us62.csv"))


def load_boost_aero() -> AeroTable:
    return AeroTable.from_csv(_data_path("aero_boost_cl.csv"),
                              _data_path("aero_boost_cd.csv"))


def load_entry_aero_raw() -> AeroTable:
    return AeroTable.from_csv(_data_path("aero_entry_cl.csv"),
                              _data_path("aero_entry_cd.csv"))


def load_entry_aero() -> AeroTable:
    return extend_entry_aero(load_entry_aero_raw())
