"""Truncated geometric grid {q^n} and the q-calculus toolkit on it:
Jackson integration and its weights, the q-derivative, and exact grid
dilation.

All sums are accumulated with math.fsum, which is correctly rounded and
therefore independent of term order; results are bit-reproducible.
"""

import contextlib
import functools
import json
import math
import operator
import os
import stat

import numpy as np

# links sidecar_path follows at most: Linux's MAXSYMLINKS, past which
# opening the path fails with ELOOP
_MAX_LINKS = 40


def _integer(n, need):
    """n as an int when it is integral: an int, a numpy integer or an
    integral float. Anything else, +-inf and nan included, raises
    ValueError(f"{need}, got {n}")."""
    try:
        return operator.index(n)
    except TypeError:
        if isinstance(n, (float, np.floating)) and float(n).is_integer():
            return int(n)
    raise ValueError(f"{need}, got {n}")


class QGrid:
    """The point set {q^n : n_low <= n <= n_high}, stored largest first.

    q^{n_low} is the largest point; points decrease strictly. The point 0
    is never on the grid, so every weight and kernel below is finite.
    The index and point arrays are read-only, so that one grid can be
    shared (read_function keeps one per sidecar).
    """

    __slots__ = ("q", "n_low", "n_high", "indices", "points")

    def __init__(self, q, n_low, n_high):
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in (0,1), got {q}")
        n_low = _integer(n_low, "the grid needs an integer n_low")
        n_high = _integer(n_high, "the grid needs an integer n_high")
        if n_low > n_high:
            raise ValueError(f"empty grid: n_low={n_low} > n_high={n_high}")
        self.q = float(q)
        self.n_low = n_low
        self.n_high = n_high
        # the points fall from q^n_low to q^n_high, so the two ends are
        # checked before a point array of any length is allocated
        ends = np.array([self.n_low, self.n_high], dtype=float)
        with np.errstate(over="ignore"):
            end_points = self.q ** ends
        for n, x in zip((self.n_low, self.n_high), end_points):
            if not (np.isfinite(x) and x != 0):
                raise ValueError(f"grid point q^n = {x:g} leaves float64 "
                                 f"at n = {n} (q = {self.q})")
        try:
            self.indices = np.arange(self.n_low, self.n_high + 1)
            self.points = self.q ** self.indices.astype(float)
        except MemoryError:
            raise ValueError(
                f"grid [{self.n_low}, {self.n_high}] of {self.size} points "
                f"is too large to allocate (q = {self.q})") from None
        self.indices.flags.writeable = False
        self.points.flags.writeable = False

    @property
    def size(self):
        return self.n_high - self.n_low + 1

    def pos(self, n):
        """Array position of grid index n; raises if n is off the grid."""
        n = _integer(n, "a grid index must be an integer")
        if not self.n_low <= n <= self.n_high:
            raise ValueError(f"index {n} outside grid [{self.n_low}, {self.n_high}]")
        return n - self.n_low

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
    """Parameter pair v = (alpha, beta) of finite reals with
    |v| = alpha + beta finite and > -1.

    abs_v drives every weight exponent; nu = alpha - beta is the order of
    the underlying one-parameter kernel.
    """

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha, beta):
        alpha = float(alpha)
        beta = float(beta)
        for name, val in (("alpha", alpha), ("beta", beta),
                          ("alpha + beta", alpha + beta)):
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if alpha + beta <= -1.0:
            raise ValueError(
                f"alpha + beta must exceed -1, got {alpha + beta}")
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

    a and b must be positive grid points, 0, or math.inf. [0, inf) sums
    (1-q) f(q^n) q^n over the truncated index range of the grid;
    [a, inf) is the Chasles difference of that and [0, a]; finite
    intervals use the two-sided Jackson sum.
    """
    q = grid.q
    for endpoint in (a, b):
        if endpoint in (0.0, math.inf):
            continue
        # a negative, -inf or nan endpoint has no log to round
        if not (endpoint > 0.0 and math.isclose(
                q ** round(math.log(endpoint) / math.log(q)), endpoint,
                rel_tol=1e-12)):
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


def mp_weight_exponent(ctx, v):
    """weight_exponent(v) as an mpf of the mpmath context ctx, formed
    from mpf(alpha) and mpf(beta). The float64 sum alpha + beta is
    rounded where the two doubles' exact sum needs more than 53 bits
    (1 + 0.45, 0.7 + 0.3), and a high-precision power of q would carry
    that rounding: the spectrum of a mean-free mother amplifies it
    without bound."""
    return 2 * (ctx.mpf(v.alpha) + ctx.mpf(v.beta)) + 2


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


def dilate(f, m):
    """x -> f(x / q^m), an exact index shift by m.

    The change-of-variables identity
    int f(t) t^{2|v|+1} d_q t = a^{-(2|v|+2)} int f(x/a) x^{2|v|+1} d_q x
    with a = q^m holds term by term for every weight exponent, because
    both sides are the same Jackson sum reindexed. Shifting support off
    the grid is an error, not a truncation, and so is an m that is not
    an integer (an integral float or numpy integer is fine).
    """
    m = _integer(m, "dilation needs an integer m")
    grid = f.grid
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


def sidecar_path(path):
    """The JSON sidecar that goes with the CSV at path: the file that
    path's last component names, following that component's own chain
    of symlinks (os.readlink, one lstat per link and one for the file),
    with its extension replaced by .json. So a CSV reached through a
    link keeps the sidecar that sits beside its target. The directories
    on the way are not resolved here: a linked directory, or a ".." in
    a relative link target, stays in the returned path, and the kernel
    resolves it the same way for the CSV and for the sidecar. A chain
    longer than _MAX_LINKS is left where it stops; opening the CSV then
    fails with ELOOP. Raises ValueError when the sidecar is the CSV
    itself (its file ends in .json), since the sidecar would then
    overwrite it."""
    target = os.fspath(path)
    for _ in range(_MAX_LINKS):
        if not os.path.islink(target):
            break
        target = os.path.join(os.path.dirname(target), os.readlink(target))
    root, _ = os.path.splitext(target)
    sidecar = root + ".json"
    if sidecar == target:
        raise ValueError(f"{path} is its own sidecar; give the CSV "
                         "another extension than .json")
    return sidecar


def write_in_place(path, text, opened=None):
    """Write text to path as UTF-8, in place: the one place the library
    opens a file for writing.

    The path is opened as open(path, "w") opens it, less O_TRUNC: it
    follows a symlink, creates a missing file with mode 0o666 less the
    umask, and keeps an existing file's inode, links, mode and owner.
    A regular file is cut to the new length, then every byte is
    written; a FIFO or a device such as /dev/null is never cut. Cutting
    to a nonzero length, rather than to zero as O_TRUNC does, spares
    the flush that ext4 (auto_da_alloc) forces when a file truncated to
    zero is closed. The rewrite is not atomic: a reader may see it half
    done. With text None, the path is only opened, which checks that
    it can be written (and creates it if it is missing). A list given as
    opened gets path appended once the open has succeeded.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    if opened is not None:
        opened.append(path)
    try:
        if text is None:
            return
        data = memoryview(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def function_csv(f):
    """The `n,value` CSV text of f: the header line `n,value`, then one
    line `n,value` per grid index in order, the value at 17 significant
    digits (%.17g, which read_function parses back to the same bits).
    The lines are formatted by one % over the interleaved indices and
    values."""
    cells = [None] * (2 * f.grid.size)
    cells[0::2] = f.grid.indices.tolist()
    cells[1::2] = f.values.tolist()
    return ("n,value\n" + "%d,%.17g\n" * f.grid.size) % tuple(cells)


def write_function(f, path):
    """function_csv(f) plus a JSON sidecar carrying q, n_low, n_high
    at sidecar_path(path), both written by write_in_place.

    Both files are kept or neither: an OSError while writing either
    (say, the sidecar's path is a directory) removes what this call
    wrote before it is raised. Raises ValueError, writing nothing, when
    path is its own sidecar (it ends in .json)."""
    desc = {"q": f.grid.q, "n_low": f.grid.n_low, "n_high": f.grid.n_high}
    pairs = ((path, function_csv(f)),
             (sidecar_path(path), json.dumps(desc) + "\n"))
    written = []
    try:
        for target, text in pairs:
            write_in_place(target, text, written)
    except OSError:
        for name in written:
            with contextlib.suppress(OSError):
                os.remove(name)
        raise


def read_function(path):
    """The GridFunction write_function stored at path. Raises ValueError
    on a malformed CSV or sidecar: the sidecar must be a JSON object with
    a real q and int n_low and n_high, and the CSV may list each index
    at most once.

    Both files are read whole by _read_text (UTF-8, with CRLF and CR
    line ends read as LF). The CSV's first line, stripped, must be
    `n,value`. Blank lines are skipped, and every other line, stripped,
    must be `n,value`: an index that int() takes (`+3`, `-0`, spaces
    around it) and a value that float() takes. An index off the grid or
    listed twice is an error, and so is a value that is not finite.
    Indices not listed are zero. Files whose sidecars give the same
    (q, n_low, n_high) share one QGrid, kept in a small cache. The lines
    are read one at a time, and the ValueError raised is that of the
    first line that fails, at its first failing step: unpack, int,
    repeat, float, range (the value is converted before its index is
    placed). Values that are not finite are refused after the last
    line, by GridFunction."""
    desc = json.loads(_read_text(sidecar_path(path)))
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
    grid = _sidecar_grid(desc["q"], desc["n_low"], desc["n_high"])
    header, newline, body = _read_text(path).partition("\n")
    if header.strip() != "n,value":
        raise ValueError(f"unexpected header {header + newline!r} in {path}")
    vals = np.zeros(grid.size)
    seen = set()
    for line in body.split("\n"):
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


@functools.lru_cache(maxsize=8)
def _sidecar_grid(q, n_low, n_high):
    """QGrid(q, n_low, n_high), one per sidecar triple: a stream of files
    on one grid reads one grid, not one per file."""
    return QGrid(q, n_low, n_high)


def _read_text(path):
    """The text of the file at path as open(path, encoding="utf-8")
    reads it whole: UTF-8, with CRLF and CR line ends turned to LF. The
    bytes are read unbuffered and decoded at once, which spares the
    text and buffer layers that a text-mode open builds."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text
