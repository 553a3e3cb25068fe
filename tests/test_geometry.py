"""Discrete curve representation, frames, chord/arc queries, and file I/O."""

import itertools
import json
import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ellipe

import csflow.geometry as geometry
from csflow.errors import CurveFormatError, DegenerateCurve
from csflow.geometry import (
    EMBED_TOL,
    DiscreteCurve,
    _is_embedded_all_pairs,
    all_pairs_chord_arc,
    build_frame,
    canonical_scale,
    cyclic_shift,
    is_embedded,
    load_curve,
    polygon_length,
    resample_uniform,
    save_curve,
)
from csflow.harness import gen_circle, gen_dumbbell, gen_ellipse, gen_fourier

TWO_PI = 2.0 * math.pi

# perimeter of the (2,1) ellipse: 4*a*E(m), m = 1 - b^2/a^2, cross-checked
# against adaptive quadrature of the speed (agreement 3.6e-16 relative)
ELL_PERIMETER = 8.0 * float(ellipe(0.75))


def circle(n, r=1.0, center=(0.0, 0.0)):
    th = TWO_PI * np.arange(n) / n
    return DiscreteCurve.from_vertices(
        np.column_stack([center[0] + r * np.cos(th), center[1] + r * np.sin(th)])
    )


def ellipse_theta(a, b, n):
    """Ellipse sampled at uniform parameter angle (not uniform arclength)."""
    th = TWO_PI * np.arange(n) / n
    return DiscreteCurve.from_vertices(np.column_stack([a * np.cos(th), b * np.sin(th)]))


def figure_eight(n=64):
    th = TWO_PI * np.arange(n) / n
    return DiscreteCurve(np.column_stack([np.sin(2 * th), np.sin(th)]))


# -- curve construction -------------------------------------------------------


def test_from_vertices_reverses_clockwise_input():
    cw = circle(32).vertices[::-1]
    curve = DiscreteCurve.from_vertices(cw)
    assert geometry.signed_area(curve.vertices) > 0.0
    # same point set, opposite traversal
    assert np.allclose(np.sort(curve.vertices[:, 0]), np.sort(cw[:, 0]))


def test_constructor_rejects_degenerate_input():
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(np.zeros((4, 2)))
    bad = circle(16).vertices.copy()
    bad[3] = bad[4]
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(bad)
    nonfinite = circle(16).vertices.copy()
    nonfinite[0, 0] = np.nan
    with pytest.raises(DegenerateCurve):
        DiscreteCurve(nonfinite)


@pytest.mark.parametrize("count", [0, 1, 3, 7])
def test_from_vertices_rejects_short_arrays(count):
    # the orientation test must not see an empty array: cyclic_shift would
    # divide by its length
    with pytest.raises(DegenerateCurve):
        DiscreteCurve.from_vertices(circle(16).vertices[:count])


def test_vertices_are_immutable():
    curve = circle(16)
    with pytest.raises(ValueError):
        curve.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        curve.edge_lengths[0] = 5.0


@pytest.mark.parametrize("k", [-9, -1, 0, 1, 2, 8])
def test_cyclic_shift_matches_np_roll(k):
    a = np.arange(16.0).reshape(8, 2)
    assert np.array_equal(cyclic_shift(a, k), np.roll(a, k, axis=0))
    assert np.array_equal(cyclic_shift(a[:, 1], k), np.roll(a[:, 1], k))


def test_edge_lengths_are_measured_once_per_curve():
    curve = ellipse_theta(2.0, 1.0, 64)
    v = curve.vertices
    edges = np.roll(v, -1, axis=0) - v
    assert np.array_equal(curve.edge_lengths, np.hypot(edges[:, 0], edges[:, 1]))
    frame = build_frame(curve)
    assert frame.edge_lengths is curve.edge_lengths
    assert polygon_length(curve) == float(np.sum(curve.edge_lengths))
    assert frame.k_max == float(np.max(np.abs(frame.curvature)))
    assert frame.k_min == float(np.min(frame.curvature))


# -- frames -------------------------------------------------------------------


def test_frame_regular_polygon_is_exact():
    """Every frame quantity has a closed form on the regular N-gon."""
    n = 256
    frame = build_frame(circle(n))
    edge = 2.0 * math.sin(math.pi / n)
    sigma = math.pi / (n * math.sin(math.pi / n))
    np.testing.assert_allclose(frame.edge_lengths, edge, rtol=1e-12)
    np.testing.assert_allclose(frame.length, n * edge, rtol=1e-14)
    np.testing.assert_allclose(frame.turning, TWO_PI / n, rtol=1e-9)
    np.testing.assert_allclose(frame.dual_weights, edge, rtol=1e-12)
    np.testing.assert_allclose(frame.curvature, sigma, rtol=1e-9)
    np.testing.assert_allclose(frame.avg_k2, sigma * sigma, rtol=1e-9)
    np.testing.assert_allclose(frame.area, 0.5 * n * math.sin(TWO_PI / n), rtol=1e-13)
    # tangents and normals are unit and orthogonal, normals point outward
    np.testing.assert_allclose(np.hypot(*frame.tangents.T), 1.0, rtol=1e-14)
    np.testing.assert_allclose(np.hypot(*frame.normals.T), 1.0, rtol=1e-14)
    assert np.all(np.einsum("ij,ij->i", frame.normals, frame.vertices) > 0.9)
    assert abs(np.einsum("ij,ij->i", frame.normals, frame.tangents)).max() < 1e-14


def test_total_turning_is_two_pi():
    for curve in (circle(64), ellipse_theta(2, 1, 128), ellipse_theta(3, 1, 96)):
        frame = build_frame(curve)
        assert abs(float(np.sum(frame.turning)) - TWO_PI) < 1e-10


def test_discrete_curvature_converges_at_second_order():
    errs = {}
    for n in (64, 128, 256, 512):
        th = TWO_PI * np.arange(n) / n
        frame = build_frame(ellipse_theta(2.0, 1.0, n))
        analytic = 2.0 / (4.0 * np.sin(th) ** 2 + np.cos(th) ** 2) ** 1.5
        errs[n] = float(np.max(np.abs(frame.curvature - analytic)))
    orders = [math.log2(errs[n] / errs[2 * n]) for n in (64, 128, 256)]
    assert min(orders) > 1.8
    assert errs[512] < 2e-4


def test_polygon_perimeter_approaches_elliptic_integral():
    assert abs(build_frame(ellipse_theta(2, 1, 1024)).length - ELL_PERIMETER) < 3e-5
    assert abs(polygon_length(ellipse_theta(2, 1, 4096)) - ELL_PERIMETER) < 2e-6


def test_arclength_starts_at_zero_and_increases():
    frame = build_frame(ellipse_theta(2, 1, 64))
    assert frame.arclength[0] == 0.0
    assert np.all(np.diff(frame.arclength) > 0.0)
    assert frame.arclength[-1] < frame.length


# -- chord / arc queries ------------------------------------------------------


def chord_arc(frame, i, j):
    """Per-pair oracle of all_pairs_chord_arc: the chord length and the
    shorter arc length of the vertex pair (i, j)."""
    diff = frame.vertices[j] - frame.vertices[i]
    d = float(np.hypot(diff[0], diff[1]))
    arc = abs(frame.arclength[j] - frame.arclength[i])
    return d, float(min(arc, frame.length - arc))


def test_chord_arc_minor_axis_of_ellipse():
    """Minor-axis endpoints: chord exactly 2, arc = half perimeter."""
    n = 1024
    frame = build_frame(ellipse_theta(2.0, 1.0, n))
    d, ell = chord_arc(frame, n // 4, 3 * n // 4)
    assert d == pytest.approx(2.0, abs=1e-12)
    assert ell == pytest.approx(ELL_PERIMETER / 2.0, abs=2e-5)


def test_chord_arc_symmetry_and_bounds():
    frame = build_frame(ellipse_theta(2.0, 1.0, 48))
    rng = np.random.default_rng(7)
    for _ in range(50):
        i, j = rng.choice(48, size=2, replace=False)
        d_ij, ell_ij = chord_arc(frame, int(i), int(j))
        d_ji, ell_ji = chord_arc(frame, int(j), int(i))
        assert d_ij == d_ji and ell_ij == ell_ji
        assert d_ij <= ell_ij + 1e-14  # chord never beats the arc
        assert ell_ij <= frame.length / 2 + 1e-14


def test_all_pairs_matches_single_pair_queries():
    frame = build_frame(ellipse_theta(2.0, 1.0, 24))
    i_idx, j_idx, d, ell = all_pairs_chord_arc(frame)
    assert i_idx.size == 24 * 23 // 2
    for k in range(0, i_idx.size, 17):
        d1, ell1 = chord_arc(frame, int(i_idx[k]), int(j_idx[k]))
        assert d[k] == pytest.approx(d1, rel=1e-15)
        assert ell[k] == pytest.approx(ell1, rel=1e-15)


@pytest.mark.parametrize("n", [8, 9, 64, 301])
def test_all_pairs_row_blocks_concatenate_to_whole_range(n):
    frame = build_frame(canonical_scale(gen_fourier(n, 4, n)))
    whole = all_pairs_chord_arc(frame)
    ii, jj = np.triu_indices(n, k=1)
    assert np.array_equal(whole[0], ii) and np.array_equal(whole[1], jj)
    assert whole[0].dtype == ii.dtype and whole[1].dtype == jj.dtype
    # the (N, 2) gather of the vertex rows, bit for bit, in the sqrt form
    diff = frame.vertices[jj] - frame.vertices[ii]
    dx, dy = diff[:, 0], diff[:, 1]
    assert np.array_equal(whole[2], np.sqrt(dx * dx + dy * dy))
    # which lies within one ulp of hypot on a canonical curve
    hyp = np.hypot(dx, dy)
    assert np.all(np.abs(whole[2] - hyp) <= np.spacing(hyp))
    rng = np.random.default_rng(n)
    tilings = [
        list(range(n + 1)),  # one row per block, and the empty last row
        [0, *sorted(rng.choice(np.arange(1, n), size=min(5, n - 1), replace=False)), n],
        [0, n - 1],  # the last row has no pair
    ]
    for cuts in tilings:
        parts = [all_pairs_chord_arc(frame, a, b) for a, b in zip(cuts[:-1], cuts[1:])]
        for got, want in zip(zip(*parts), whole):
            assert np.array_equal(np.concatenate(got), want)


# -- embeddedness -------------------------------------------------------------


def test_embeddedness_detection():
    assert is_embedded(circle(64))
    assert not is_embedded(figure_eight())
    # adjacent edges share a vertex but must not count as crossing
    assert is_embedded(circle(8))


def test_near_touching_curve_is_still_embedded():
    from csflow.harness import gen_dumbbell

    # waist half-width 5% of the lobe scale: close, but no contact
    assert is_embedded(gen_dumbbell(neck=0.05, n=256))


def slot(k, factor, rng=None):
    """Thin rectangle: two chains of k edges at distance ``factor`` times the
    touch tolerance (EMBED_TOL x mean edge length), joined by two short
    edges. Interior vertices of the top chain are jittered when ``rng`` is
    given, so facing edges do not line up.
    """
    length = 1.0
    # gap = factor * EMBED_TOL * (2 * length + 2 * gap) / (2 * k + 2)
    gap = factor * EMBED_TOL * length / (k + 1 - factor * EMBED_TOL)
    bottom_x = length * np.arange(k + 1) / k
    top_x = bottom_x[::-1].copy()
    if rng is not None:
        top_x[1:-1] += rng.uniform(-0.4, 0.4, k - 1) * length / k
    x = np.concatenate([bottom_x, top_x])
    y = np.concatenate([np.zeros(k + 1), np.full(k + 1, gap)])
    return DiscreteCurve(np.column_stack([x, y]))


def half_disc(n):
    """Half circle closed by its diameter: one edge far longer than the rest,
    whose bounding box spans every other edge along x."""
    t = np.linspace(0.0, math.pi, n)
    return DiscreteCurve(np.column_stack([np.cos(t), np.sin(t)]))


@st.composite
def embed_cases(draw):
    """Closed polygons on both sides of the embeddedness test."""
    kind = draw(
        st.sampled_from(
            ["random", "star", "perturbed-circle", "slot", "uneven", "crowded"]
        )
    )
    n = draw(st.integers(8, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    th = TWO_PI * np.arange(n) / n
    if kind == "random":
        v = rng.uniform(-1.0, 1.0, (n, 2))
    elif kind == "star":
        t = np.sort(rng.uniform(0.0, TWO_PI, n))
        r = rng.uniform(0.2, 1.0, n)
        v = np.column_stack([r * np.cos(t), r * np.sin(t)])
    elif kind == "perturbed-circle":
        scale = 10.0 ** draw(st.floats(-4.0, -0.5))
        v = np.column_stack([np.cos(th), np.sin(th)]) + rng.normal(0.0, scale, (n, 2))
    elif kind == "slot":
        factor = draw(st.sampled_from([0.5, 0.9, 0.99, 1.01, 1.1, 2.0]))
        v = slot(n // 2 - 1, factor, rng).vertices
        angle = draw(st.floats(0.0, TWO_PI))
        rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
        v = v @ rot.T
    elif kind == "uneven":
        # angles bunched towards 0 by a power law: edge lengths span decades
        t = TWO_PI * np.sort(rng.uniform(0.0, 1.0, n) ** draw(st.floats(1.0, 8.0)))
        r = 1.0 + draw(st.floats(0.0, 0.5)) * rng.uniform(-1.0, 1.0, n)
        v = np.column_stack([r * np.cos(t), r * np.sin(t)])
    else:
        v = half_disc(n).vertices + rng.normal(0.0, 10.0 ** draw(st.floats(-6.0, -1.0)), (n, 2))
    edges = np.roll(v, -1, axis=0) - v
    if np.any(np.hypot(edges[:, 0], edges[:, 1]) == 0.0):
        v = v + 1e-9 * np.arange(n)[:, None]
    return DiscreteCurve(v)


@settings(max_examples=400, deadline=None)
@given(curve=embed_cases(), chunk=st.sampled_from([1, 3, 17, 500]))
def test_grid_embeddedness_matches_all_pairs_oracle(curve, chunk):
    expected = _is_embedded_all_pairs(curve)
    assert is_embedded(curve) == expected
    # pairs expanded and tested in small chunks, as when many boxes overlap
    with mock.patch.object(geometry, "_PAIR_CHUNK", chunk):
        assert is_embedded(curve) == expected


@settings(max_examples=200, deadline=None)
@given(curve=embed_cases())
def test_grid_sends_every_overlapping_pair_once(curve):
    """The segment test only reports pairs whose padded bounding boxes
    overlap; the sweep must send exactly those non-adjacent pairs, each once."""
    sent = []

    def record(v, edges_to, i, j, abs_tol):
        sent.extend(zip(i.tolist(), j.tolist()))
        return False

    with mock.patch.object(geometry, "_any_cross", record):
        assert is_embedded(curve)
    n = curve.n
    v = curve.vertices
    w = np.roll(v, -1, axis=0)
    pad = EMBED_TOL * float(np.mean(np.hypot(*(w - v).T)))
    lo, hi = np.minimum(v, w) - pad, np.maximum(v, w) + pad
    ii, jj = np.triu_indices(n, k=2)
    overlap = np.all((lo[ii] <= hi[jj]) & (lo[jj] <= hi[ii]), axis=1)
    overlap &= ~((ii == 0) & (jj == n - 1))
    assert len(sent) == len(set(sent))
    assert all(1 < j - i < n - 1 for i, j in sent)
    assert set(zip(ii[overlap].tolist(), jj[overlap].tolist())) == set(sent)


def vertical_slot(k, factor):
    """:func:`slot` turned upright: its long side runs along y."""
    return DiscreteCurve(slot(k, factor).vertices[:, ::-1].copy())


def test_slot_gap_straddles_the_touch_tolerance():
    for k in (4, 31):
        for factor, embedded in ((0.5, False), (0.99, False), (1.01, True), (2.0, True)):
            curve = slot(k, factor)
            assert _is_embedded_all_pairs(curve) is embedded
            assert is_embedded(curve) is embedded


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_circle(n=512),
        lambda: gen_ellipse(n=512),
        lambda: gen_dumbbell(neck=0.05, n=512),
        lambda: gen_dumbbell(neck=0.2, n=512),
        lambda: gen_fourier(seed=1, n=1024),
        lambda: gen_fourier(seed=2, n=1024),
        lambda: gen_fourier(seed=3, n=1024),
        lambda: gen_fourier(seed=4, n=1024),
        figure_eight,
        lambda: half_disc(1024),
        lambda: vertical_slot(511, 2.0),
    ],
    ids=[
        "circle", "ellipse", "dumbbell-0.05", "dumbbell-0.2",
        "fourier-1", "fourier-2", "fourier-3", "fourier-4", "figure-eight",
        "half-disc", "vertical-slot",
    ],
)
def test_grid_embeddedness_matches_oracle_on_stock_curves(make):
    curve = make()
    assert is_embedded(curve) == _is_embedded_all_pairs(curve)


def _pairs_per_call(monkeypatch, curve):
    sizes = []
    inner = geometry._segments_cross

    def spy(*args):
        sizes.append(args[0].size)
        return inner(*args)

    monkeypatch.setattr(geometry, "_segments_cross", spy)
    result = is_embedded(curve)
    monkeypatch.setattr(geometry, "_segments_cross", inner)
    return result, sizes


def test_grid_tests_few_pairs_on_uniform_curves(monkeypatch):
    curve = gen_fourier(seed=1, n=1024)
    result, sizes = _pairs_per_call(monkeypatch, curve)
    assert result
    # all pairs would be about n^2 / 2 = 523k
    assert sum(sizes) < 8 * curve.n


def test_crowded_cell_is_tested_in_bounded_chunks(monkeypatch):
    # the diameter's box spans every edge along x; few boxes overlap across
    curve = half_disc(400)
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 5000)
    result, sizes = _pairs_per_call(monkeypatch, curve)
    assert result == _is_embedded_all_pairs(curve)
    assert sum(sizes) < 8 * curve.n
    # facing chains send more pairs than one chunk holds
    curve = vertical_slot(511, 2.0)
    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 1000)
    result, sizes = _pairs_per_call(monkeypatch, curve)
    assert result == _is_embedded_all_pairs(curve)
    assert max(sizes) <= 1000 < sum(sizes) < 8 * curve.n


def test_sweep_runs_along_the_longer_side(monkeypatch):
    """Swept across its short side, the upright slot would pair every box
    with every other: several hundred batches of 1000 pairs, not a few."""
    calls = []
    inner = geometry._any_cross

    def spy(*args):
        calls.append(args[2].size)
        return inner(*args)

    monkeypatch.setattr(geometry, "_PAIR_CHUNK", 1000)
    monkeypatch.setattr(geometry, "_any_cross", spy)
    assert is_embedded(vertical_slot(511, 2.0))
    assert len(calls) < 8


# -- resampling and scaling ---------------------------------------------------


def test_resample_gives_nearly_uniform_edges():
    """Edge spread after resampling is the O(h^2 k^2) corner-cutting defect."""
    out = resample_uniform(ellipse_theta(2.0, 1.0, 64), 97)
    assert out.n == 97
    frame = build_frame(out)
    h = frame.length / 97
    assert np.ptp(frame.edge_lengths) / h < h * h * 4.0 / 8.0  # k_max = 2
    fine = build_frame(resample_uniform(ellipse_theta(2.0, 1.0, 2048), 512))
    assert np.ptp(fine.edge_lengths) / (fine.length / 512) < 5e-4


def test_resample_preserves_shape_and_length():
    src = ellipse_theta(2.0, 1.0, 256)
    out = resample_uniform(src, 256)
    # new vertices interpolate the old polygon, so length can only shrink,
    # and only by the O(n^-2) inscription defect
    assert polygon_length(out) <= polygon_length(src) + 1e-14
    assert polygon_length(src) - polygon_length(out) < 1e-3
    # repeated resampling is a contraction toward the uniform fixed point
    u1 = resample_uniform(src, 128)
    u2 = resample_uniform(u1, 128)
    u3 = resample_uniform(u2, 128)
    d12 = float(np.abs(u2.vertices - u1.vertices).max())
    d23 = float(np.abs(u3.vertices - u2.vertices).max())
    assert d12 < 1e-3
    assert d23 < 0.05 * d12


def test_resample_rejects_tiny_target():
    with pytest.raises(DegenerateCurve):
        resample_uniform(circle(64), 4)


def test_resample_leaves_embeddedness_to_the_caller():
    out = resample_uniform(figure_eight(64), 96)
    assert out.n == 96 and not is_embedded(out)


def test_canonical_scale_hits_two_pi_exactly():
    for curve in (circle(64, r=3.7), ellipse_theta(2, 1, 128)):
        scaled = canonical_scale(curve)
        assert abs(polygon_length(scaled) - TWO_PI) < 1e-12 * TWO_PI
        assert scaled.name == curve.name
    twice = canonical_scale(canonical_scale(circle(64)))
    assert abs(polygon_length(twice) - TWO_PI) < 1e-12 * TWO_PI


# -- file I/O -----------------------------------------------------------------


@pytest.mark.parametrize("ext", ["json", "csv"])
def test_save_load_round_trip_is_exact(tmp_path, ext):
    curve = DiscreteCurve(ellipse_theta(2.0, 1.0, 40).vertices, name="ell40")
    path = tmp_path / f"curve.{ext}"
    save_curve(curve, path)
    back = load_curve(path)
    # 17 significant digits round-trip doubles exactly
    np.testing.assert_array_equal(back.vertices, curve.vertices)
    assert back.name == ("ell40" if ext == "json" else "curve")


def _json_text_per_vertex(curve: DiscreteCurve) -> str:
    """save_curve's JSON text as first written, two _fmt calls per vertex."""
    rows = ",\n    ".join(
        f"[{geometry._fmt(x)}, {geometry._fmt(y)}]" for x, y in curve.vertices
    )
    name_part = f',\n  "name": {json.dumps(curve.name)}' if curve.name else ""
    return f'{{\n  "vertices": [\n    {rows}\n  ]{name_part}\n}}\n'


@pytest.mark.parametrize("name", [None, 'neck "0.2"'])
def test_json_writer_matches_per_vertex_writer_byte_for_byte(tmp_path, name):
    values = [-0.0, 5e-324, 1e300, -1e300, math.pi, -math.pi]
    curve = DiscreteCurve(np.array(list(itertools.product(values, values))), name=name)
    path = tmp_path / "curve.json"
    save_curve(curve, path)
    assert path.read_bytes() == _json_text_per_vertex(curve).encode()


def _csv_text_per_vertex(curve: DiscreteCurve) -> str:
    """save_curve's CSV text as first written, two _fmt calls per row."""
    fmt = geometry._fmt
    return "".join(f"{fmt(x)},{fmt(y)}\n" for x, y in curve.vertices)


@pytest.mark.parametrize("seed", range(4))
def test_curve_files_match_the_per_value_writer_on_random_curves(tmp_path, seed):
    # signs, magnitudes from 1e-8 to 1e20 and exact zeros of both signs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 600))
    v = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-8, 21, (n, 2))
    v[rng.random((n, 2)) < 0.05] = 0.0
    v[rng.random((n, 2)) < 0.05] = -0.0
    curve = DiscreteCurve(v, name=f"random {seed}" if seed % 2 else None)
    for ext, oracle in (("json", _json_text_per_vertex), ("csv", _csv_text_per_vertex)):
        path = tmp_path / f"curve.{ext}"
        save_curve(curve, path)
        assert path.read_bytes() == oracle(curve).encode()


def test_load_rejects_malformed_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(CurveFormatError):
        load_curve(missing)
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(CurveFormatError):
        load_curve(bad_json)
    no_key = tmp_path / "nokey.json"
    no_key.write_text('{"points": []}')
    with pytest.raises(CurveFormatError):
        load_curve(no_key)
    short_row = tmp_path / "short.csv"
    short_row.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(CurveFormatError):
        load_curve(short_row)
    with pytest.raises(CurveFormatError):
        save_curve(circle(16), tmp_path / "curve.txt")


def test_loaded_clockwise_csv_is_reoriented(tmp_path):
    path = tmp_path / "cw.csv"
    save_curve(DiscreteCurve(circle(32).vertices[::-1].copy()), path)
    assert geometry.signed_area(load_curve(path).vertices) > 0.0


def test_clockwise_curve_near_the_float_range_loads_counterclockwise(tmp_path):
    # the unscaled shoelace sum of radius 1e300 overflows to NaN
    ccw = circle(64, r=1e300).vertices
    path = tmp_path / "cw.json"
    save_curve(DiscreteCurve(ccw[::-1].copy()), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = load_curve(path)
    assert np.array_equal(back.vertices, ccw)


# -- "%.17g" for arrays -------------------------------------------------------


def _record_fallbacks(monkeypatch) -> list:
    """Record each value _fmt_rows hands to _fmt."""
    calls = []
    fmt = geometry._fmt

    def recording(x):
        calls.append(x)
        return fmt(x)

    monkeypatch.setattr(geometry, "_fmt", recording)
    return calls


def _check_fmt_rows(values, monkeypatch, widths=(1, 3)):
    """_fmt_rows against its oracle, "%.17g" of each value one at a time,
    with the values laid out in rows of each width."""
    values = np.asarray(values, dtype=float)
    texts = ["%.17g" % x for x in values.tolist()]
    # scientific notation, nan or inf, of either sign
    fallbacks = sum(1 for t in texts if "e" in t or "n" in t)
    for cols in widths:
        pad = -values.size % cols
        rows = np.concatenate([values, np.ones(pad)]).reshape(-1, cols)
        cells = texts + ["1"] * pad
        want = "".join(
            ",".join(cells[i : i + cols]) + "\n" for i in range(0, len(cells), cols)
        )
        calls = _record_fallbacks(monkeypatch)
        assert geometry._fmt_rows(list(rows.T)) == want.encode()
        # the array path renders every value in fixed notation itself
        assert len(calls) == fallbacks
        monkeypatch.undo()


@settings(max_examples=200, deadline=None)
@given(
    bits=st.lists(
        st.one_of(
            st.integers(0, 2**64 - 1),  # any double: +-0, subnormal, nan, +-inf
            st.floats(-2e17, 2e17).map(lambda x: int(np.float64(x).view(np.uint64))),
        ),
        min_size=1,
        max_size=40,
    ),
    cols=st.integers(1, 4),
)
def test_fmt_rows_matches_percent_17g_on_any_double(bits, cols):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_fmt_rows(values, monkeypatch, (cols,))


def test_fmt_rows_matches_percent_17g_at_ties_and_powers_of_ten(monkeypatch):
    # dyadic ties: for odd q, q / 2**k is an exact tie at 17 digits when the
    # integer q * 5**k (which ends in 5) has 18 digits; 281,921 of them for
    # q < 4e5, k < 30
    ties = []
    for k in range(30):
        lo = max(1, -(-(10**17) // 5**k))
        hi = min(4 * 10**5, (10**18 - 1) // 5**k + 1)
        ties.append(np.arange(lo | 1, hi, 2, dtype=float) / 2.0**k)
    ties = np.concatenate(ties)
    # the doubles nearest each power of ten and their neighbours
    exponents = np.arange(-324, 309).repeat(3)
    powers = np.array([float(f"1e{x}") for x in range(-324, 309)])
    powers = np.column_stack(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    ).ravel()
    # some lie below their power but round up to it at 17 digits
    round_up = [
        x
        for x, e in zip(powers, exponents)
        if 0.0 < x < Fraction(10) ** int(e)
        and re.fullmatch(r"(10*|0\.0*1)(e[-+]\d+)?", "%.17g" % x)
    ]
    assert len(round_up) == 14
    values = np.concatenate(
        [ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf), powers]
    )
    # and all of them negated: the array path writes the sign itself, also
    # of -0 and of the tiny and huge negatives it hands on
    extremes = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    extremes = np.array(extremes)
    _check_fmt_rows(np.concatenate([values, -values, extremes, -extremes]), monkeypatch)


def test_fmt_rows_of_no_rows_is_empty():
    assert geometry._fmt_rows([np.empty(0), np.empty(0)]) == b""
