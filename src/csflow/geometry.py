"""Discrete closed plane curves and their pointwise/pairwise geometry.

A curve is a closed polygon of N vertices, positively oriented (counter
clockwise, signed area > 0). All derived quantities live on a
:class:`CurveFrame`: edge lengths, arclength coordinates, tangents, outward
normals, signed curvatures, total length and the mean squared curvature.

Conventions
-----------
* Vertex ``i`` connects to vertex ``(i + 1) % N``; edge ``i`` is that segment.
* Curvature at a vertex is the exterior turning angle divided by the average
  of the two adjacent edge lengths, so the discrete total turning identity
  ``sum(k_i * w_i) == 2*pi`` holds exactly for embedded curves.
* The tangent at a vertex is the normalized angle bisector of the adjacent
  edge directions; the outward normal is the tangent rotated by -pi/2.
* Pairwise arc length is always the shorter of the two arcs.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CurveFormatError, DegenerateCurve

TWO_PI = 2.0 * math.pi

# Relative tolerance (fraction of mean edge length) below which two edges are
# considered touching in the embeddedness test.
EMBED_TOL = 1e-12


def _as_vertex_array(vertices) -> np.ndarray:
    try:
        arr = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CurveFormatError(f"vertices must be numbers in rows of two: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise CurveFormatError(
            f"vertices must have shape (N, 2), got {arr.shape}", shape=list(arr.shape)
        )
    return arr


def cyclic_shift(a: np.ndarray, k: int) -> np.ndarray:
    """Cyclic shift along axis 0, from two slices: row i of the result is
    row ``(i - k) % n`` of ``a``, so ``k = -1`` brings each successor in."""
    k %= a.shape[0]
    return np.concatenate((a[-k:], a[:-k]))


def signed_area(vertices: np.ndarray) -> float:
    """Shoelace area; positive for counterclockwise polygons."""
    x, y = vertices[:, 0], vertices[:, 1]
    xn, yn = cyclic_shift(x, -1), cyclic_shift(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def _edges(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectors and lengths of the edges of a raw vertex array; edge i runs
    from vertex i to vertex i+1."""
    edges = cyclic_shift(vertices, -1) - vertices
    return edges, np.hypot(edges[:, 0], edges[:, 1])


def _check_vertices(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The checks a :class:`DiscreteCurve` makes of its vertex array (N >= 8,
    finite coordinates, no duplicated consecutive vertices); returns the
    array's edge vectors and lengths."""
    if arr.shape[0] < 8:
        raise DegenerateCurve(f"need at least 8 vertices, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise DegenerateCurve("non-finite vertex coordinates")
    edges, lengths = _edges(arr)
    if np.minimum.reduce(lengths) <= 0.0:  # finite vertices: no length is NaN
        raise DegenerateCurve("duplicated consecutive vertices")
    return edges, lengths


def polygon_length(curve: "DiscreteCurve") -> float:
    """Total edge length, without building a full frame."""
    return float(np.sum(curve.edge_lengths))


@dataclass(frozen=True)
class DiscreteCurve:
    """Closed polygon of N planar vertices, the fundamental flow state.

    Vertices are dimensionless curve coordinates. Use :meth:`from_vertices`
    to build one from raw points: it canonicalizes the orientation (reverses
    clockwise input). The constructor validates the cheap structural
    invariants (N >= 8, no duplicated consecutive vertices, finite
    coordinates); embeddedness is checked separately by :func:`is_embedded`.
    Validation measures ``edge_lengths`` (edge i runs from vertex i to
    i+1); every later reader of the edge lengths uses that array.
    """

    vertices: np.ndarray
    name: str | None = None
    edge_lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _as_vertex_array(self.vertices)
        _, lengths = _check_vertices(arr)
        self._freeze(arr.copy(), lengths)

    def _freeze(self, vertices: np.ndarray, lengths: np.ndarray) -> None:
        vertices.flags.writeable = False
        lengths.flags.writeable = False
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edge_lengths", lengths)

    @classmethod
    def from_vertices(cls, vertices, name: str | None = None) -> "DiscreteCurve":
        """Build a curve, reversing the vertex order if input is clockwise.

        The orientation is the sign of the shoelace sum of the vertices
        scaled by a power of two into [-1, 1]: the scaling is exact, so the
        sign is that of the unscaled sum wherever that is finite, and
        coordinates near the float range cannot overflow it to NaN.
        """
        arr = _as_vertex_array(vertices)
        if arr.shape[0] >= 8:  # the constructor rejects shorter arrays
            _, exponent = np.frexp(np.max(np.abs(arr)))
            if signed_area(np.ldexp(arr, -exponent)) < 0.0:
                arr = arr[::-1]
        return cls(arr, name=name)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]


def _checked_curve(
    vertices: np.ndarray, name: str | None
) -> tuple[DiscreteCurve, np.ndarray]:
    """A curve on a float (N, 2) array that nothing else holds, and its edge
    vectors: the constructor's checks, without its copy of the array.

    The flow step's kernel makes each new state with it, so that the edge
    vectors the checks take also give the state's curvature.
    """
    edges, lengths = _check_vertices(vertices)
    curve = object.__new__(DiscreteCurve)
    object.__setattr__(curve, "name", name)
    curve._freeze(vertices, lengths)
    return curve, edges


@dataclass(frozen=True)
class CurveFrame:
    """Derived geometry of a :class:`DiscreteCurve`.

    ``edge_lengths[i]`` is the curve's length of edge i (vertex i to i+1),
    ``arclength[i]`` the cumulative arclength of vertex i from vertex 0,
    ``dual_weights[i] = (edge_lengths[i-1] + edge_lengths[i]) / 2`` the
    vertex quadrature weight, ``turning[i]`` the exterior angle, and
    ``curvature[i] = turning[i] / dual_weights[i]``.
    """

    curve: DiscreteCurve
    arclength: np.ndarray
    length: float
    tangents: np.ndarray
    normals: np.ndarray
    turning: np.ndarray
    dual_weights: np.ndarray
    curvature: np.ndarray
    k_max: float  # max |curvature|
    k_min: float
    avg_k2: float
    area: float

    @property
    def n(self) -> int:
        return self.curve.n

    @property
    def vertices(self) -> np.ndarray:
        return self.curve.vertices

    @property
    def edge_lengths(self) -> np.ndarray:
        return self.curve.edge_lengths


def _has_cusp(unit_prev: np.ndarray, unit: np.ndarray, dot: np.ndarray) -> bool:
    """True iff the bisector ``unit_prev + unit`` of some vertex is shorter
    than 1e-12: the adjacent edges reverse direction. Both arguments hold a
    unit vector per column (rows x and y), and ``dot`` their dot products.

    For unit vectors |bisector|^2 = 2 + 2 dot up to a few roundings, so a
    bisector that short has dot < -0.5; the norm is taken at those vertices
    only, where it equals the norm taken over the whole arrays.
    """
    if dot.min() >= -0.5:
        return False
    at = np.flatnonzero(dot < -0.5)
    bisector = unit_prev[:, at] + unit[:, at]
    return bool((np.hypot(bisector[0], bisector[1]) < 1e-12).any())


def _curvature(edges: np.ndarray, h: np.ndarray):
    """The curvature of a polygon from its edge vectors and lengths.

    Returns ``(length, k_max, avg_k2)`` and the arrays
    ``(unit, unit_prev, turning, dual_weights, curvature)``; column i of
    ``unit`` (rows x and y) is the unit vector of edge i, and of
    ``unit_prev`` that of edge i-1. :func:`build_frame` builds on it, and
    the flow step takes from it the scalars it records for each state.
    Raises DegenerateCurve as :func:`build_frame` documents.
    """
    length = float(np.add.reduce(h))
    min_edge = float(np.minimum.reduce(h))  # a curve's edge lengths are never NaN
    if min_edge < 1e-12 * (length / h.size):  # length / N is np.mean(h)
        raise DegenerateCurve("edge length below 1e-12 of mean", min_edge=min_edge)
    # column 0 repeats the last edge's unit vector, so both sides are views
    units = np.empty((2, h.size + 1))
    np.divide(edges.T, h, out=units[:, 1:])
    units[:, 0] = units[:, -1]
    unit, unit_prev = units[:, 1:], units[:, :-1]
    prod = unit_prev * unit
    dot = prod[0] + prod[1]
    if _has_cusp(unit_prev, unit, dot):
        raise DegenerateCurve("adjacent edges reverse direction (cusp)")
    prod = unit[::-1] * unit_prev  # rows uy * px and ux * py
    turning = np.arctan2(prod[0] - prod[1], dot)
    w = 0.5 * (cyclic_shift(h, 1) + h)
    k = turning / w
    avg_k2 = float(np.add.reduce(k * k * w) / length)
    k_max = float(np.maximum.reduce(np.abs(k)))
    return (length, k_max, avg_k2), (unit, unit_prev, turning, w, k)


def build_frame(curve: DiscreteCurve) -> CurveFrame:
    """Compute all pointwise geometric quantities of a curve.

    Raises DegenerateCurve if any edge is shorter than 1e-12 of the mean
    edge length or adjacent edges exactly reverse direction.
    """
    v = curve.vertices
    h = curve.edge_lengths
    (length, k_max, avg_k2), (unit, unit_prev, turning, w, k) = _curvature(
        cyclic_shift(v, -1) - v, h
    )
    bisector = unit_prev + unit
    tx, ty = bisector / np.hypot(bisector[0], bisector[1])
    # outward normal for a CCW curve: tangent rotated by -pi/2
    return CurveFrame(
        curve=curve,
        arclength=np.concatenate([[0.0], np.cumsum(h[:-1])]),
        length=length,
        tangents=np.column_stack([tx, ty]),
        normals=np.column_stack([ty, -tx]),
        turning=turning,
        dual_weights=w,
        curvature=k,
        k_max=k_max,
        k_min=float(np.min(k)),
        avg_k2=avg_k2,
        area=signed_area(v),
    )


def _segments_cross(ax, ay, bx, by, cx, cy, dx, dy, tol):
    """Vectorized segment pair intersection with touch tolerance.

    The coordinates are same-shape arrays describing segments AB and CD.
    ``tol`` is an absolute distance tolerance scaled into the cross
    products. Touching within tolerance counts as crossing.
    """
    # signed areas: position of A, B relative to line CD and C, D to line AB
    cdx, cdy = dx - cx, dy - cy
    abx, aby = bx - ax, by - ay
    d1 = cdx * (ay - cy) - cdy * (ax - cx)
    d2 = cdx * (by - cy) - cdy * (bx - cx)
    d3 = abx * (cy - ay) - aby * (cx - ax)
    d4 = abx * (dy - ay) - aby * (dx - ax)
    e_cd = tol * np.hypot(cdx, cdy)
    e_ab = tol * np.hypot(abx, aby)
    straddle_ab = (np.minimum(d1, d2) <= e_cd) & (np.maximum(d1, d2) >= -e_cd)
    straddle_cd = (np.minimum(d3, d4) <= e_ab) & (np.maximum(d3, d4) >= -e_ab)
    # bounding box overlap rules out collinear-but-disjoint pairs
    bb = (
        (np.minimum(ax, bx) <= np.maximum(cx, dx) + tol)
        & (np.maximum(ax, bx) >= np.minimum(cx, dx) - tol)
        & (np.minimum(ay, by) <= np.maximum(cy, dy) + tol)
        & (np.maximum(ay, by) >= np.minimum(cy, dy) - tol)
    )
    return straddle_ab & straddle_cd & bb


# Pairs per batch of the embeddedness test: each ``_segments_cross`` call
# takes at most this many, and the sweep expands its candidate pairs in row
# blocks that pass it by less than one row (fewer than N pairs).
_PAIR_CHUNK = 500_000


def _row_blocks(counts: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Ranges ``(r0, r1)`` of consecutive rows, row r holding ``counts[r]``
    pairs: each range holds at least ``limit`` pairs (the last one the rest),
    and the ranges tile ``[0, len(counts))`` in order."""
    starts = np.cumsum(counts) - counts  # offset of each row's first pair
    blocks, r0 = [], 0
    while r0 < len(counts):
        r1 = max(int(np.searchsorted(starts, starts[r0] + limit)), r0 + 1)
        blocks.append((r0, r1))
        r0 = r1
    return blocks


def _row_pairs(rows: np.ndarray, counts: np.ndarray):
    """The ragged rows as flat index pairs: row ``rows[m]`` pairs with the
    next ``counts[m]`` indices, ``(r, r + 1 + k)`` for ``k < counts[m]``."""
    first = np.cumsum(counts) - counts  # offset of each row's first pair
    i = np.repeat(rows, counts)
    j = np.arange(int(counts.sum())) + np.repeat(rows + 1 - first, counts)
    return i, j


def _edges_and_tolerance(curve: DiscreteCurve):
    """Edge start and end points, and EMBED_TOL x mean edge length."""
    abs_tol = EMBED_TOL * float(np.mean(curve.edge_lengths))
    return curve.vertices, cyclic_shift(curve.vertices, -1), abs_tol


def _any_cross(v, edges_to, i, j, abs_tol) -> bool:
    """True iff some edge pair ``(i[k], j[k])`` crosses; evaluated in chunks."""
    for lo in range(0, i.size, _PAIR_CHUNK):
        a = i[lo : lo + _PAIR_CHUNK]
        b = j[lo : lo + _PAIR_CHUNK]
        hit = _segments_cross(
            v[a, 0], v[a, 1], edges_to[a, 0], edges_to[a, 1],
            v[b, 0], v[b, 1], edges_to[b, 0], edges_to[b, 1],
            abs_tol,
        )
        if np.any(hit):
            return True
    return False


def is_embedded(curve: DiscreteCurve) -> bool:
    """True iff no two non-adjacent edges intersect.

    Two edges closer than EMBED_TOL times the mean edge length count as
    intersecting. The segment test reports a crossing only when the edges'
    bounding boxes, padded by that distance, overlap, so a sweep picks those
    pairs: sorted by their low end along the longer side of the vertex
    extent, each box pairs with the later boxes that start before it ends
    (each pair overlapping along that axis, once), and the non-adjacent
    pairs that also overlap across it go to the segment test. The result
    equals the all-pairs test :func:`_is_embedded_all_pairs`.
    """
    n = curve.n
    v, edges_to, abs_tol = _edges_and_tolerance(curve)
    lo = np.minimum(v, edges_to) - abs_tol
    hi = np.maximum(v, edges_to) + abs_tol
    ax = int(np.ptp(v[:, 1]) > np.ptp(v[:, 0]))  # per column: ptp(v, axis=0) is slow
    order = np.argsort(lo[:, ax])
    lo, hi = lo[order], hi[order]
    # box p (in sorted order) overlaps the boxes p + 1 .. end[p] - 1
    end = np.searchsorted(lo[:, ax], hi[:, ax], side="right")
    counts = end - np.arange(1, n + 1)
    lo_across, hi_across = lo[:, 1 - ax], hi[:, 1 - ax]
    for r0, r1 in _row_blocks(counts, _PAIR_CHUNK):
        p, q = _row_pairs(np.arange(r0, r1), counts[r0:r1])
        keep = (lo_across[q] <= hi_across[p]) & (lo_across[p] <= hi_across[q])
        a, b = order[p[keep]], order[q[keep]]
        i, j = np.minimum(a, b), np.maximum(a, b)
        keep = (j - i > 1) & (j - i < n - 1)
        if np.any(keep) and _any_cross(v, edges_to, i[keep], j[keep], abs_tol):
            return False
    return True


def _is_embedded_all_pairs(curve: DiscreteCurve) -> bool:
    """Brute-force oracle for :func:`is_embedded`: tests every non-adjacent
    edge pair, with the same tolerance. O(N^2); only tests call it.
    """
    n = curve.n
    v, edges_to, abs_tol = _edges_and_tolerance(curve)
    ii, jj = np.triu_indices(n, k=2)
    keep = ~((ii == 0) & (jj == n - 1))  # edges 0 and N-1 share vertex 0
    return not _any_cross(v, edges_to, ii[keep], jj[keep], abs_tol)


def all_pairs_chord_arc(frame: CurveFrame, i0: int = 0, i1: int | None = None):
    """Chord and shorter-arc lengths for the unordered vertex pairs i < j
    whose row i lies in ``i0 <= i < i1`` (by default every row).

    Returns ``(i_idx, j_idx, d, ell)`` as flat arrays in
    ``np.triu_indices(n, k=1)`` order; the whole range holds the
    ``n*(n-1)/2`` pairs, and row ranges that tile it concatenate to it.
    The chord is ``sqrt(dx*dx + dy*dy)``, the form of the profile's sweep
    (see :func:`csflow.comparison.profile`), so both give a pair one value.
    """
    n = frame.n
    rows = np.arange(i0, n if i1 is None else i1)
    i_idx, j_idx = _row_pairs(rows, n - 1 - rows)
    x, y, s = frame.vertices[:, 0], frame.vertices[:, 1], frame.arclength
    dx, dy = x[j_idx] - x[i_idx], y[j_idx] - y[i_idx]
    d = np.sqrt(dx * dx + dy * dy)
    arc = s[j_idx] - s[i_idx]
    ell = np.minimum(arc, frame.length - arc)
    return i_idx, j_idx, d, ell


def resample_uniform(curve: DiscreteCurve, n: int) -> DiscreteCurve:
    """Resample to ``n`` vertices at equal arclength spacing.

    Linear interpolation along the polygon; vertex 0 stays fixed, so a curve
    that is already uniform resamples to itself. Total length is preserved
    to O(n^-2). Embeddedness is not checked here; the flow's
    :func:`csflow.dynamics.run` tests the states it keeps.
    """
    if n < 8:
        raise DegenerateCurve(f"cannot resample to fewer than 8 vertices, got {n}")
    v = curve.vertices
    closed = np.vstack([v, v[:1]])
    s = np.concatenate([[0.0], np.cumsum(curve.edge_lengths)])
    length = s[-1]
    targets = np.arange(n) * (length / n)
    x = np.interp(targets, s, closed[:, 0])
    y = np.interp(targets, s, closed[:, 1])
    return DiscreteCurve(np.column_stack([x, y]), name=curve.name)


def canonical_scale(curve: DiscreteCurve) -> DiscreteCurve:
    """Dilate about the origin so the total length is exactly 2*pi."""
    scale = TWO_PI / polygon_length(curve)
    return DiscreteCurve(curve.vertices * scale, name=curve.name)


# -- curve file I/O ---------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# -- "%.17g" for arrays ------------------------------------------------------
#
# _fmt_rows renders itself each value that "%.17g" prints in fixed notation,
# and hands the rest (magnitude below 1e-4 or from 1e17 on, not finite) to
# _fmt. Such a value's magnitude |x| is the 17-digit integer
# D = |x| * 10**(16 - e), rounded half to even, and its decimal exponent e
# in [-4, 16] (0 is D = 0, e = 0). Its text is laid out in a 32-byte slot:
# S = "0000", "000h" and four 4-digit groups (D's 17 digits at bytes
# 7..23), then 8 unused bytes; the point goes in before byte e + 8, so the
# bytes after it come from S shifted by one byte. Which bytes survive (the
# sign, in the byte before the first kept digit, the leading "0" or the
# integer digits, the point, the fraction up to its last nonzero digit, the
# separator) depends on the sign, e and D's trailing zeros only, and is
# read off small tables; one mask compacts the slots.

_POW10 = np.array([float(10**k) for k in range(22)])  # exact: 5**21 < 2**53
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_FMT_ROWS = 2048  # rows per sub-block, so the temporaries stay small
_LAYOUTS = 21 * 17  # (e, trailing zeros) pairs, per sign


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _digits17(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x * 10**(16 - e) rounded half to even, as int64, for 0 <= 16 - e <= 21.

    Dekker's product gives x * 10**k = p + err exactly (10**k is a double
    here). Where the result reaches 10**16 > 2**53, p is an integer, so the
    rounding reads the exact remainder err - floor(err). Below that the
    result is not exact, but below 10**16 all the same.
    """
    c = _POW10[16 - e]
    p = x * c
    x_hi, x_lo = _split(x)
    c_hi, c_lo = _split(c)
    # err = ((x_hi c_hi - p) + x_hi c_lo + x_lo c_hi) + x_lo c_lo, in place
    err = x_hi * c_hi
    err -= p
    err += np.multiply(x_hi, c_lo, out=x_hi)
    err += np.multiply(x_lo, c_hi, out=c_hi)
    err += np.multiply(x_lo, c_lo, out=c_lo)
    whole = np.floor(err, out=x_lo)
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    frac = np.subtract(err, whole, out=err)
    d += (frac > 0.5) | ((frac == 0.5) & (d & 1 == 1))
    return d


@functools.cache
def _fmt_tables():
    """The four-digit ASCII groups, their trailing zeros, and the slot
    layout of each (e, trailing zeros) pair, e in [-4, 16], zeros in
    [0, 16]: bytes taken from S, bytes taken from S shifted, the constant
    bytes (sign, point and separator: "," then "\\n", unsigned, then both
    again with a "-") and the bytes kept (unsigned, then signed).

    Built on first use, from Python bytes into read-only arrays, so that a
    process that renders no table holds none of it, and one that does keeps
    no array temporaries of it.
    """

    def run(lo, hi, value):
        slot = bytearray(32)
        slot[lo:hi] = bytes([value]) * max(hi - lo, 0)
        return slot

    ascii4, zeros4 = bytearray(40_000), bytearray(10_000)
    for col, place in enumerate((1000, 100, 10, 1)):
        ascii4[col::4] = b"".join(bytes([c]) * place for c in b"0123456789") * (
            1000 // place
        )
    for tz, place in enumerate((10, 100, 1000, 10_000), 1):
        zeros4[::place] = bytes([tz]) * (10_000 // place)
    from_s, from_shifted = bytearray(), bytearray()
    fixed = {(sign, sep): bytearray() for sign in (0, 1) for sep in b",\n"}
    keep = {sign: bytearray() for sign in (0, 1)}
    for e in range(-4, 17):
        point, start = e + 8, min(e, 0) + 7
        for tz in range(17):
            last = 24 - tz if 23 - tz >= point else point - 1  # last byte written
            from_s += run(start, point, 0xFF)
            from_shifted += run(point + 1, last + 1, 0xFF)
            for (sign, sep), table in fixed.items():
                slot = run(last + 1, last + 2, sep)
                if point < last:  # a fraction is left
                    slot[point] = ord(".")
                if sign:
                    slot[start - 1] = ord("-")
                table += slot
            for sign, table in keep.items():
                table += run(start - sign, last + 2, 1)
    return (
        np.frombuffer(bytes(ascii4), "<u4"),
        np.frombuffer(bytes(zeros4), np.uint8),
        *(
            np.frombuffer(bytes(t), "<u8").reshape(-1, 4)
            for t in (
                from_s, from_shifted, b"".join(fixed.values()), b"".join(keep.values())
            )
        ),
    )


def _fmt_block(x: np.ndarray, last_col: np.ndarray) -> bytes:
    """The "%.17g" text of the flat values x, each followed by "," or, where
    last_col is 1, by "\\n"."""
    ascii4, zeros4, from_s, from_shifted, fixed, keep = _fmt_tables()
    n = x.size
    neg = np.signbit(x).astype(np.intp)
    mag = np.abs(x)
    fast = (mag >= 1e-5) & (mag < 1e17)
    zero = mag == 0.0
    x_fast = np.where(fast, mag, 1.0)
    e = np.floor(np.log10(x_fast)).astype(np.intp)
    e.clip(-5, 16, out=e)
    d = _digits17(x_fast, e)
    # log10 can be off by one next to a power of ten, and D can round up to
    # 10**17: step e to where D has 17 digits
    up, down = d >= 10**17, d < 10**16
    redo = np.flatnonzero(up | down)
    if redo.size:
        e[redo] += up[redo].astype(np.intp) - down[redo]
        redo = redo[(e[redo] >= -4) & (e[redo] <= 16)]
        d[redo] = _digits17(x_fast[redo], e[redo])
    fast &= (e >= -4) & (d >= 10**16) & (d < 10**17)
    d[zero] = 0  # e is 0 there: lays out as "0"
    fast |= zero
    e.clip(-4, 16, out=e)

    # D's digits in four-digit groups: h, then g1 .. g4
    hi = d // 10**8
    lo = d - hi * 10**8
    top = hi // 10_000
    h = top // 10_000
    g3 = lo // 10_000
    g1, g2, g4 = top - h * 10_000, hi - top * 10_000, lo - g3 * 10_000
    # one spare slot in front, so that the view of S shifted by one byte
    # stays inside the buffer; no byte of it is kept
    words = np.empty((n + 1, 8), "<u4")
    words[1:, 0] = ascii4[0]
    for col, group in enumerate((h, g1, g2, g3, g4), 1):
        words[1:, col] = ascii4[group]
    tz = zeros4[g4] + (g4 == 0) * (
        zeros4[g3] + (g3 == 0) * (zeros4[g2] + (g2 == 0) * zeros4[g1])
    )
    layout = (e + 4) * 17 + tz
    flat = words.view(np.uint8).ravel()
    s, shifted = flat[32:].view("<u8"), flat[31:-1].view("<u8")
    out = np.empty_like(s)  # "<u8" as s is, so its bytes are the text on any host
    np.bitwise_and(s, np.take(from_s, layout, axis=0).ravel(), out=out)
    out |= shifted & np.take(from_shifted, layout, axis=0).ravel()
    out |= np.take(fixed, layout + _LAYOUTS * (last_col + 2 * neg), axis=0).ravel()

    text = out.view(np.uint8).reshape(n, 32)
    kept = np.take(keep, layout + _LAYOUTS * neg, axis=0).view(bool).reshape(n, 32)
    for v in np.flatnonzero(~fast):
        slot = (_fmt(x[v]) + ("\n" if last_col[v] else ",")).encode()
        text[v, : len(slot)] = np.frombuffer(slot, np.uint8)
        kept[v] = np.arange(32) < len(slot)
    return text[kept].tobytes()


def _fmt_rows(columns) -> bytes:
    """Rows of equal-length float columns as CSV bytes: exactly the text of
    "%.17g" (that is, of :func:`_fmt`) for each value, "," between columns
    and "\\n" after each row, rendered in sub-blocks of _FMT_ROWS rows."""
    table = np.column_stack(columns).astype(float, copy=False)
    rows, cols = table.shape
    last_col = np.tile(np.arange(cols) == cols - 1, min(rows, _FMT_ROWS))
    parts = []
    for r0 in range(0, rows, _FMT_ROWS):
        block = table[r0 : r0 + _FMT_ROWS].ravel()
        parts.append(_fmt_block(block, last_col[: block.size]))
    return b"".join(parts)


def save_curve(curve: DiscreteCurve, path: str | Path) -> None:
    """Write a curve as JSON ({"vertices": [[x, y], ...]}) or two-column CSV.

    Format chosen by extension (.json or .csv); floats carry 17 significant
    digits, each value the text of _fmt, rendered by :func:`_fmt_rows`.
    """
    path = Path(path)
    if path.suffix not in (".json", ".csv"):
        raise CurveFormatError(f"unsupported curve file extension: {path.suffix}")
    text = _fmt_rows(curve.vertices.T)
    if path.suffix == ".json":
        # rows "[x, y]" joined by ",\n    ": no value's text holds "," or "\n"
        sep = b"],\n    ["
        rows = text.replace(b",", b", ").replace(b"\n", sep)[: -len(sep)]
        name_part = f',\n  "name": {json.dumps(curve.name)}' if curve.name else ""
        text = b'{\n  "vertices": [\n    [%s]\n  ]%s\n}\n' % (rows, name_part.encode())
    path.write_bytes(text)


def load_curve(path: str | Path) -> DiscreteCurve:
    """Read a curve file (JSON or headerless two-column CSV).

    Clockwise input is reversed so the result is positively oriented
    whenever its signed area is nonzero.
    """
    path = Path(path)
    if not path.exists():
        raise CurveFormatError(f"curve file not found: {path}")
    if path.suffix == ".json":
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CurveFormatError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, dict) or "vertices" not in data:
            raise CurveFormatError(f'{path}: expected an object with a "vertices" key')
        return DiscreteCurve.from_vertices(data["vertices"], name=data.get("name"))
    if path.suffix == ".csv":
        rows = []
        for line_no, row in enumerate(csv.reader(path.read_text().splitlines()), 1):
            if not row:
                continue
            if len(row) != 2:
                raise CurveFormatError(f"{path}:{line_no}: expected two columns")
            try:
                rows.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise CurveFormatError(f"{path}:{line_no}: {exc}") from exc
        return DiscreteCurve.from_vertices(rows, name=path.stem)
    raise CurveFormatError(f"unsupported curve file extension: {path.suffix}")
