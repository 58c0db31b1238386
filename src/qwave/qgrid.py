"""Truncated geometric grid {q^n} and the q-calculus toolkit on it:
Jackson integration, weighted norms, the q-derivative, q-shifted
factorials, and exact grid dilation.

All sums are accumulated with math.fsum, which is correctly rounded and
therefore independent of term order; results are bit-reproducible.
"""

import json
import math
import os

import numpy as np

POCHHAMMER_CUTOFF = 1e-16  # infinite products stop once a factor is this close to 1


class QGrid:
    """The point set {q^n : n_low <= n <= n_high}, stored largest first.

    q^{n_low} is the largest point; points decrease strictly. The point 0
    is never on the grid, so every weight and kernel below is finite.
    """

    __slots__ = ("q", "n_low", "n_high", "indices", "points")

    def __init__(self, q, n_low, n_high):
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {q}")
        if n_low > n_high:
            raise ValueError(f"empty grid: n_low={n_low} > n_high={n_high}")
        self.q = float(q)
        self.n_low = int(n_low)
        self.n_high = int(n_high)
        self.indices = np.arange(self.n_low, self.n_high + 1)
        with np.errstate(over="ignore"):
            self.points = self.q ** self.indices.astype(float)
        bad = np.flatnonzero(~np.isfinite(self.points) | (self.points == 0))
        if len(bad):
            raise ValueError(
                f"grid point q^n = {self.points[bad[0]]:g} leaves float64 "
                f"at n = {self.indices[bad[0]]} (q = {self.q})")

    @property
    def size(self):
        return self.n_high - self.n_low + 1

    def pos(self, n):
        """Array position of grid index n; raises if n is off the grid."""
        if not self.n_low <= n <= self.n_high:
            raise ValueError(f"index {n} outside grid [{self.n_low}, {self.n_high}]")
        return int(n) - self.n_low

    def __eq__(self, other):
        return (isinstance(other, QGrid) and self.q == other.q
                and self.n_low == other.n_low and self.n_high == other.n_high)

    def __hash__(self):
        return hash((self.q, self.n_low, self.n_high))

    def __repr__(self):
        return f"QGrid(q={self.q}, n_low={self.n_low}, n_high={self.n_high})"


def build_grid(q, n_low, n_high):
    """Validated QGrid constructor."""
    return QGrid(q, n_low, n_high)


class BesselParams:
    """Parameter pair v = (alpha, beta) with |v| = alpha + beta > -1.

    abs_v drives every weight exponent; nu = alpha - beta is the order of
    the underlying one-parameter kernel.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha = float(alpha)
        beta = float(beta)
        if alpha + beta <= -1.0:
            raise ValueError(f"need alpha + beta > -1, got {alpha + beta}")
        self.alpha = alpha
        self.beta = beta

    @property
    def abs_v(self):
        return self.alpha + self.beta

    @property
    def nu(self):
        return self.alpha - self.beta

    def __eq__(self, other):
        return (isinstance(other, BesselParams)
                and self.alpha == other.alpha and self.beta == other.beta)

    def __hash__(self):
        return hash((self.alpha, self.beta))

    def __repr__(self):
        return f"BesselParams(alpha={self.alpha}, beta={self.beta})"


class GridFunction:
    """Real values attached to the points of a QGrid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.size,):
            raise ValueError(f"expected {grid.size} values, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.size))

    @classmethod
    def from_pairs(cls, grid, pairs):
        """Build from (index, value) pairs; unlisted indices are zero."""
        vals = np.zeros(grid.size)
        for n, v in pairs:
            vals[grid.pos(n)] = v
        return cls(grid, vals)

    def value_at(self, n):
        return float(self.values[self.grid.pos(n)])

    def support(self):
        """(lowest, highest) grid index carrying a nonzero value, or None."""
        nz = np.nonzero(self.values)[0]
        if len(nz) == 0:
            return None
        return int(nz[0]) + self.grid.n_low, int(nz[-1]) + self.grid.n_low

    def nonzero_values(self):
        """{grid index: value} over the nonzero entries, in index order."""
        nz = np.nonzero(self.values)[0]
        return {int(self.grid.indices[i]): self.values[i] for i in nz}

    def scaled(self, factor):
        return GridFunction(self.grid, self.values * factor)

    def __repr__(self):
        return f"GridFunction(grid={self.grid!r}, nnz={int(np.count_nonzero(self.values))})"


def qpochhammer(a, q, n=math.inf):
    """(a; q)_n = prod_{k<n} (1 - a q^k); n = math.inf gives the infinite
    product, truncated once |a q^k| < 1e-16."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0,1), got {q}")
    if n == math.inf:
        prod = 1.0
        factor = float(a)
        while abs(factor) >= POCHHAMMER_CUTOFF:
            prod *= 1.0 - factor
            factor *= q
        return prod
    n = int(n)
    if n < 0:
        raise ValueError("finite q-Pochhammer needs n >= 0")
    prod = 1.0
    for k in range(n):
        prod *= 1.0 - a * q ** k
    return prod


def _interval_sum(f, a, b, q):
    # (1-q) * sum_n q^n b f(b q^n), summed to machine-negligible depth.
    if b == 0.0:
        return 0.0
    # q^n below 1e-18 cannot move a double relative to the n=0 term
    depth = int(math.ceil(-18.0 / math.log10(q))) + 1
    terms = [q ** n * b * f(b * q ** n) for n in range(depth)]
    if a != 0.0:
        terms += [-(q ** n) * a * f(a * q ** n) for n in range(depth)]
    total = (1.0 - q) * math.fsum(terms)
    if not math.isfinite(total):
        raise ValueError("Jackson sum diverged (non-finite partial sums)")
    return total


def jackson_integral(f, grid, a=0.0, b=math.inf):
    """Jackson integral of the callable f over [a, b].

    a and b must be grid points, 0, or math.inf. [0, inf) sums
    (1-q) f(q^n) q^n over the truncated index range of the grid;
    [a, inf) is the Chasles difference of that and [0, a]; finite
    intervals use the two-sided Jackson sum.
    """
    q = grid.q
    for endpoint in (a, b):
        if endpoint in (0.0, math.inf):
            continue
        n = round(math.log(endpoint) / math.log(q))
        if not math.isclose(q ** n, endpoint, rel_tol=1e-12):
            raise ValueError(f"endpoint {endpoint} is not a grid point")
    if a > b:
        raise ValueError(f"need a <= b, got [{a}, {b}]")
    if b == math.inf:
        pts = grid.points
        total = (1.0 - q) * math.fsum(pts[i] * f(pts[i]) for i in range(grid.size))
        if not math.isfinite(total):
            raise ValueError("Jackson sum diverged (non-finite partial sums)")
        if a == 0.0:
            return total
        return total - _interval_sum(f, 0.0, a, q)
    return _interval_sum(f, a, b, q)


def q_derivative(f):
    """(f(x) - f(qx)) / ((1-q)x) at each point that has its q-shift on the
    grid; the output grid loses the smallest point."""
    grid = f.grid
    if grid.size < 2:
        raise ValueError("q-derivative needs at least two grid points")
    out_grid = QGrid(grid.q, grid.n_low, grid.n_high - 1)
    x = grid.points[:-1]
    vals = (f.values[:-1] - f.values[1:]) / ((1.0 - grid.q) * x)
    return GridFunction(out_grid, vals)


def weight_exponent(v):
    """Exponent of the Jackson weight q^{n * e} attached to x^{2|v|+1} d_q x."""
    return 2.0 * v.abs_v + 2.0


def jackson_weights(grid, v):
    """(1-q) q^{n(2|v|+2)} for every grid index, as an array.

    Raises ValueError when a weight overflows float64, which happens at
    negative indices once n (2|v|+2) log2(q) passes 1024, or when every
    weight underflows to 0. Weights at the deep end alone may underflow:
    on the sweep grid [-160, 320], 144 do at q = 0.3, |v| = 0.75.
    """
    with np.errstate(over="ignore"):
        w = (1.0 - grid.q) * grid.q ** (grid.indices * weight_exponent(v))
    bad = np.flatnonzero(~np.isfinite(w))
    if len(bad):
        raise ValueError(
            f"Jackson weight (1-q) q^(n(2|v|+2)) overflows float64 at "
            f"n = {int(grid.indices[bad[0]])} (q = {grid.q}, "
            f"|v| = {v.abs_v})")
    if not w.any():
        raise ValueError(
            f"every Jackson weight (1-q) q^(n(2|v|+2)) underflows to 0 on "
            f"[{grid.n_low}, {grid.n_high}] (q = {grid.q}, |v| = {v.abs_v})")
    return w


def weighted_p_norm(f, p, v):
    """||f||_{q,p,v} = [ (1-q) sum |f(q^n)|^p q^{n(2|v|+2)} ]^{1/p}."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    w = jackson_weights(f.grid, v)
    s = math.fsum((np.abs(f.values) ** p * w).tolist())
    return s ** (1.0 / p)


def dilate(f, m):
    """x -> f(x / q^m), an exact index shift by m.

    The change-of-variables identity
    int f(t) t^{2|v|+1} d_q t = a^{-(2|v|+2)} int f(x/a) x^{2|v|+1} d_q x
    with a = q^m holds term by term for every weight exponent, because
    both sides are the same Jackson sum reindexed. Shifting support off
    the grid is an error, not a truncation.
    """
    grid = f.grid
    m = int(m)
    sup = f.support()
    out = np.zeros(grid.size)
    if sup is not None:
        lo, hi = sup
        if lo + m < grid.n_low or hi + m > grid.n_high:
            raise ValueError(
                f"dilation by q^{m} pushes support [{lo}, {hi}] off the grid")
        src = slice(grid.pos(lo), grid.pos(hi) + 1)
        dst = slice(grid.pos(lo + m), grid.pos(hi + m) + 1)
        out[dst] = f.values[src]
    return GridFunction(grid, out)


def _sidecar_path(path):
    root, _ = os.path.splitext(path)
    return root + ".json"


def write_function(f, path):
    """CSV `n,value` plus a JSON sidecar carrying q, n_low, n_high."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,value\n")
        for n, val in zip(f.grid.indices, f.values):
            fh.write("%d,%.17g\n" % (n, val))
    desc = {"q": f.grid.q, "n_low": f.grid.n_low, "n_high": f.grid.n_high}
    with open(_sidecar_path(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(desc, fh)
        fh.write("\n")


def read_function(path):
    """The GridFunction write_function stored at path. Raises ValueError
    on a malformed CSV or sidecar: the sidecar must be a JSON object with
    a real q and int n_low and n_high, and the CSV may list each index
    at most once."""
    with open(_sidecar_path(path), "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    if not isinstance(desc, dict):
        raise ValueError("sidecar is not a JSON object")
    for key, kind, want in (("q", (int, float), "a real number"),
                            ("n_low", int, "an int"),
                            ("n_high", int, "an int")):
        if key not in desc:
            raise ValueError(f"sidecar lacks key {key!r}")
        if not isinstance(desc[key], kind) or isinstance(desc[key], bool):
            raise ValueError(
                f"sidecar key {key!r} must be {want}, got {desc[key]!r}")
    grid = QGrid(desc["q"], desc["n_low"], desc["n_high"])
    vals = np.zeros(grid.size)
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "n,value":
            raise ValueError(f"unexpected header {header!r} in {path}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            n_str, v_str = line.split(",")
            n = int(n_str)
            if n in seen:
                raise ValueError(f"index {n} listed twice")
            seen.add(n)
            vals[grid.pos(n)] = float(v_str)
    return GridFunction(grid, vals)
