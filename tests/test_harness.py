"""Generators, run specs, persistence, the identity suite, and the CLI."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from csflow import __version__, cli, comparison, geometry, harness
from csflow.dynamics import KIND_UNNORMALIZED, TERM_END, FlowConfig
from csflow.errors import ConfigError, DomainError, GenerationFailure, NotEmbedded
from csflow.geometry import (
    DiscreteCurve,
    all_pairs_chord_arc,
    build_frame,
    canonical_scale,
    is_embedded,
    load_curve,
    save_curve,
)
from csflow.harness import (
    ALL_CHECKS,
    SERIES_HEADER,
    RunSpec,
    execute,
    gen_circle,
    gen_dumbbell,
    gen_ellipse,
    gen_fourier,
    generate,
    materialize_curve,
    profile_curve,
    run_directory,
    verify_identities,
)

TWO_PI = 2.0 * math.pi

# frozen in test_comparison.py from a brute-force per-pair sweep
ELL512_ABAR = 2.0623351705740145


@pytest.fixture(scope="module")
def fig8_path(tmp_path_factory):
    u = TWO_PI * np.arange(64) / 64
    curve = DiscreteCurve(
        np.column_stack([np.sin(2.0 * u), np.sin(u)]), name="figure-eight"
    )
    path = tmp_path_factory.mktemp("curves") / "fig8.json"
    save_curve(curve, path)
    return path


@pytest.fixture(scope="module")
def ellipse_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("curves") / "ellipse.json"
    save_curve(gen_ellipse(2.0, 1.0, 512), path)
    return path


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("runs") / "circle-small"
    spec = RunSpec(
        generator="circle",
        flow=FlowConfig(n=64, t_end=0.3),
        outdir=str(outdir),
    )
    return execute(spec)


# -- generators -----------------------------------------------------------------


def test_unit_ellipse_is_a_circle():
    circle = gen_circle(1.0, 256)
    ellipse = gen_ellipse(1.0, 1.0, 256)
    assert np.max(np.abs(circle.vertices - ellipse.vertices)) < 1e-12


def test_fourier_curves_are_reproducible():
    one = gen_fourier(seed=3)
    two = gen_fourier(seed=3)
    other = gen_fourier(seed=4)
    assert np.array_equal(one.vertices, two.vertices)
    assert not np.array_equal(one.vertices, other.vertices)
    assert is_embedded(one)
    assert one.name == "fourier-3"


def test_dumbbell_is_nonconvex_but_embedded():
    curve = gen_dumbbell(neck=0.2, n=256)
    assert is_embedded(curve)
    assert build_frame(curve).k_min < 0.0


@pytest.mark.parametrize("neck", [1e-8, 1e-9])
def test_dumbbell_too_thin_to_sample_is_a_generation_failure(neck):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no sqrt of a negative radicand
        with pytest.raises(GenerationFailure) as info:
            gen_dumbbell(neck=neck, n=512)
    assert info.value.context == {"neck": neck, "n": 512}


@pytest.mark.parametrize(
    "bad",
    [
        lambda: gen_circle(r=-1.0),
        lambda: gen_ellipse(a=0.0),
        lambda: gen_dumbbell(neck=1.5),
        lambda: gen_fourier(modes=0),
        lambda: generate("heptagon"),
        lambda: generate("circle", {"radius": 1.0}),
    ],
)
def test_generator_rejects_bad_configuration(bad):
    with pytest.raises(ConfigError):
        bad()


@pytest.mark.parametrize("n", [4, 7, True, 64.5, "64"])
@pytest.mark.parametrize("name", ["circle", "ellipse", "dumbbell", "fourier"])
def test_generate_rejects_a_vertex_count_that_a_flow_rejects(name, n):
    # the same rule as FlowConfig.n, and the same error kind for every generator
    with pytest.raises(ConfigError):
        FlowConfig(n=n)
    with pytest.raises(ConfigError):
        generate(name, {"n": n})


# -- run specs ------------------------------------------------------------------


def test_run_spec_survives_json():
    spec = RunSpec(
        generator="fourier",
        params={"modes": 4},
        flow=FlowConfig(n=128, dt=5e-4, t_end=2.0),
        checks=("distance-comparison",),
        seed=9,
    )
    wire = json.loads(json.dumps(spec.to_json_dict()))
    assert RunSpec.from_json_dict(wire) == spec


def test_run_spec_validation():
    with pytest.raises(ConfigError):
        RunSpec(generator="circle", input_path="x.json")
    with pytest.raises(ConfigError):
        RunSpec(generator=None, input_path=None)
    with pytest.raises(ConfigError):
        RunSpec(generator="heptagon")
    with pytest.raises(ConfigError):
        RunSpec(checks=("distance-comparison", "vibes"))
    with pytest.raises(ConfigError):
        RunSpec.from_json_dict({"generator": "circle", "colour": "red"})


def test_materialize_fills_vertex_count_and_seed():
    spec = RunSpec(generator="fourier", flow=FlowConfig(n=96), seed=7)
    curve = materialize_curve(spec)
    assert curve.n == 96
    assert curve.name == "fourier-7"


# -- execution and persistence ----------------------------------------------------


def test_run_directory_layout(small_run):
    outdir = small_run.outdir
    assert outdir is not None and outdir.is_dir()

    config = json.loads((outdir / "config.json").read_text())
    assert set(config) == {
        "run_spec",
        "checks_run",
        "initial_curve_sha256",
        "version",
        "termination",
        "passed",
    }
    assert config["version"] == __version__
    assert config["termination"] == TERM_END
    assert config["passed"] is True
    assert RunSpec.from_json_dict(config["run_spec"]) == small_run.spec
    assert config["checks_run"] == list(ALL_CHECKS)
    assert len(config["initial_curve_sha256"]) == 64

    snaps = sorted((outdir / "snapshots").iterdir())
    assert len(snaps) == len(small_run.trajectory.snapshots)
    assert snaps[0].name == "curve_000000.json"
    first = load_curve(snaps[0])
    want = canonical_scale(gen_circle(1.0, 64))
    assert np.array_equal(first.vertices, want.vertices)

    report_names = {p.name for p in (outdir / "reports").iterdir()}
    assert report_names == {
        "distance-comparison.json",
        "abar-decay.json",
        "curvature-bound.json",
        "l2-curvature-bound.json",
    }
    for path in (outdir / "reports").iterdir():
        doc = json.loads(path.read_text())
        assert doc["pass"] is True


def test_series_csv_contents(small_run):
    lines = (small_run.outdir / "series.csv").read_text().splitlines()
    assert lines[0] == SERIES_HEADER
    assert len(lines) == 1 + len(small_run.trajectory.snapshots)

    first = lines[1].split(",")
    assert len(first) == 11
    assert first[0] == "0"
    assert float(first[1]) == 0.0
    assert abs(float(first[2]) - TWO_PI) < 1e-12
    assert float(first[7]) == 0.0  # sup a on a circle
    assert float(first[8]) == -math.inf
    assert math.isfinite(float(first[10]))


def test_execute_wires_results(small_run):
    assert small_run.passed
    assert set(small_run.reports) == {
        "distance-comparison",
        "abar-decay",
        "curvature-bound",
        "l2-curvature-bound",
    }
    assert small_run.checks == ALL_CHECKS
    assert not np.isnan(small_run.measures.l2_dev).any()
    assert len(small_run.measures.profiles) == len(small_run.trajectory.snapshots)


def test_report_names_are_the_check_names(small_run):
    config = json.loads((small_run.outdir / "config.json").read_text())
    stems = [p.stem for p in (small_run.outdir / "reports").iterdir()]
    assert list(small_run.reports) == list(small_run.checks)
    assert config["checks_run"] == list(small_run.reports)
    assert config["run_spec"]["checks"] == config["checks_run"]
    assert sorted(stems) == sorted(config["checks_run"])


def test_cli_check_flag_takes_the_report_name(tmp_path, capsys):
    outdir = tmp_path / "run"
    argv = ["run", "--n", "64", "--t-end", "0.1", "--outdir", str(outdir)]
    assert cli.main([*argv, "--check", "l2-curvature-bound"]) == 0
    out = capsys.readouterr().out
    assert "l2-curvature-bound: pass" in out
    assert "quadrature-identity: pass" in out
    assert [p.name for p in (outdir / "reports").iterdir()] == [
        "l2-curvature-bound.json"
    ]
    with pytest.raises(SystemExit) as exc:  # the old name is gone, no alias
        cli.main([*argv, "--check", "convergence"])
    assert exc.value.code == 2


def test_execute_without_checks_or_persistence():
    spec = RunSpec(generator="circle", flow=FlowConfig(n=64, t_end=0.05), checks=())
    res = execute(spec, persist=False)
    assert res.outdir is None
    assert res.reports == {} and res.measures.profiles is None
    assert np.isnan(res.measures.l2_dev).all()
    assert res.passed  # reduces to: the flow reached its end time


def test_unnormalized_runs_skip_bound_checks():
    spec = RunSpec(
        generator="circle",
        flow=FlowConfig(kind=KIND_UNNORMALIZED, n=64, dt=1e-4, t_end=0.05),
    )
    res = execute(spec, persist=False)
    assert res.passed
    assert res.checks == ()
    assert res.reports == {} and res.measures.profiles is None


def test_run_directory_roots(tmp_path, monkeypatch):
    explicit = RunSpec(generator="circle", outdir=str(tmp_path / "here"))
    assert run_directory(explicit) == tmp_path / "here"

    monkeypatch.setenv("CSFLOW_OUTPUT_ROOT", str(tmp_path / "root"))
    slugged = RunSpec(generator="circle")
    path = run_directory(slugged)
    assert path.parent == tmp_path / "root"
    assert path.name.startswith("circle-")
    # the slug is a stable function of the spec, and only of the spec
    assert run_directory(slugged) == path
    other = RunSpec(generator="circle", flow=FlowConfig(t_end=1.0))
    assert run_directory(other) != path


def test_identical_specs_persist_identical_bytes(tmp_path):
    def go(sub):
        spec = RunSpec(
            generator="ellipse",
            params={"a": 2.0, "b": 1.0},
            flow=FlowConfig(n=64, t_end=0.2),
            outdir=str(tmp_path / sub),
        )
        return execute(spec).outdir

    one, two = go("one"), go("two")
    assert (one / "series.csv").read_bytes() == (two / "series.csv").read_bytes()
    assert (one / "snapshots" / "curve_000200.json").read_bytes() == (
        two / "snapshots" / "curve_000200.json"
    ).read_bytes()


# -- identity suite, static profile ---------------------------------------------


def test_identity_suite_reports(coarse_identity_grid):
    reports = verify_identities()
    assert [r.name for r in reports] == [
        "L-tilde annihilates f",
        "L dominates L-tilde",
        "f shape (monotone/concave/symmetric)",
        "g positivity",
        "h convexity",
        "small-separation Taylor limit (circle)",
        "small-separation Taylor limit (ellipse pole, k=2)",
        "small-separation Taylor limit (ellipse flat, k=1/4)",
    ]
    assert all(r.passed for r in reports)


def test_identity_suite_catches_a_seeded_fault(
    coarse_identity_grid, seed_barrier_fault
):
    seed_barrier_fault(lambda x: 1e-6 * x)
    reports = verify_identities()
    by_name = {r.name: r for r in reports}
    assert not by_name["L-tilde annihilates f"].passed
    assert not by_name["f shape (monotone/concave/symmetric)"].passed
    assert by_name["g positivity"].passed
    assert by_name["h convexity"].passed


def test_profile_curve_writes_pair_table(ellipse_path, tmp_path):
    out = tmp_path / "pairs.csv"
    summary, out_csv = profile_curve(ellipse_path, out)
    assert out_csv == out
    assert summary.a_bar == pytest.approx(ELL512_ABAR, rel=1e-12)
    assert summary.attained == (256, 256)

    lines = out.read_text().splitlines()
    assert lines[0] == "l,d,a"
    assert len(lines) == 1 + 512 * 511 // 2
    # adjacent vertices: chord equals arc, so the ratio clamps to zero
    first = lines[1].split(",")
    assert float(first[2]) == 0.0
    assert float(first[0]) == pytest.approx(TWO_PI / 512, rel=1e-2)


# 7: one row per block, but the last rows (under 7 pairs each) grouped
@pytest.mark.parametrize("block_pairs", [None, 7])
def test_profile_curve_csv_matches_whole_text_writer(
    ellipse_path, tmp_path, monkeypatch, block_pairs
):
    # the block-by-block writer emits exactly the text of one join over the
    # rows of a whole-range sweep with a_solve over every pair
    if block_pairs is not None:
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
    summary, out_csv = profile_curve(ellipse_path, tmp_path / "pairs.csv")
    frame = build_frame(canonical_scale(load_curve(ellipse_path)))
    _, _, d, ell = all_pairs_chord_arc(frame)
    ell = np.minimum(ell, math.pi)
    a = comparison.a_solve(d, ell)
    rows = [",".join(geometry._fmt(v) for v in row) for row in zip(ell, d, a)]
    lines = ["l,d,a", *rows]
    assert out_csv.read_text() == "\n".join(lines) + "\n"
    want = comparison.profile(frame)
    assert summary == dataclasses.replace(want, min_z=None, min_z_pair=None)


def test_profile_curve_default_output_path(ellipse_path):
    _, out_csv = profile_curve(ellipse_path)
    assert out_csv == ellipse_path.with_suffix(".profile.csv")
    assert out_csv.exists()


def test_profile_curve_sweeps_the_pairs_once(ellipse_path, tmp_path, monkeypatch):
    # count guard, no timing: the summary and the pair table share one
    # sweep, whose row ranges tile [0, n - 1) exactly once. The calls are
    # counted in this process, so one usable core keeps the table here.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    sweeps = []

    def counting(frame, i0=0, i1=None):
        sweeps.append((frame.n, i0, i1))
        return all_pairs_chord_arc(frame, i0, i1)

    for mod in (geometry, comparison, harness):
        if getattr(mod, "all_pairs_chord_arc", None) is all_pairs_chord_arc:
            monkeypatch.setattr(mod, "all_pairs_chord_arc", counting)
    summary, _ = profile_curve(ellipse_path, tmp_path / "pairs.csv")
    assert {n for n, _, _ in sweeps} == {512}
    bounds = [(i0, i1) for _, i0, i1 in sweeps]
    assert [i0 for i0, _ in bounds] == [0] + [i1 for _, i1 in bounds[:-1]]
    assert bounds[-1][1] == 511
    assert all(i0 < i1 for i0, i1 in bounds)
    assert summary.a_bar == pytest.approx(ELL512_ABAR, rel=1e-12)


def _profile_both_ways(path, tmp_path, monkeypatch, pool_starts):
    """profile_curve on one usable core and through the forked workers: the
    two summaries and CSV texts."""
    with monkeypatch.context() as serial:
        serial.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        want, serial_csv = profile_curve(path, tmp_path / "serial.csv")
    assert pool_starts == []
    got, pooled_csv = profile_curve(path, tmp_path / "pooled.csv")
    assert pool_starts == [2]
    assert multiprocessing.active_children() == []
    return (want, serial_csv.read_bytes()), (got, pooled_csv.read_bytes())


@pytest.mark.parametrize("block_pairs", [None, 7])
def test_pooled_table_equals_serial_table(
    ellipse_path, tmp_path, monkeypatch, pool_starts, block_pairs
):
    if block_pairs is not None:
        monkeypatch.setattr(comparison, "_BLOCK_PAIRS", block_pairs)
    serial, pooled = _profile_both_ways(
        ellipse_path, tmp_path, monkeypatch, pool_starts
    )
    assert pooled == serial


def test_pooled_table_equals_serial_table_at_n_1024(tmp_path, monkeypatch, pool_starts):
    path = tmp_path / "fourier4.json"
    save_curve(gen_fourier(4, 6, 1024), path)
    serial, pooled = _profile_both_ways(path, tmp_path, monkeypatch, pool_starts)
    assert pooled == serial
    assert serial[1].count(b"\n") == 1 + 1024 * 1023 // 2


@pytest.mark.parametrize("cores", [{0}, {0, 1}])
def test_failed_profile_deletes_its_partial_table(
    ellipse_path, tmp_path, monkeypatch, pool_starts, fault_on_blocks, cores
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)

    def fail():
        raise DomainError("seeded table failure")

    frame = build_frame(canonical_scale(load_curve(ellipse_path)))
    fault_on_blocks(frame, {2: fail})  # the third block
    out = tmp_path / "pairs.csv"
    with pytest.raises(DomainError, match="seeded table failure"):
        profile_curve(ellipse_path, out)
    assert not out.exists()
    assert pool_starts == ([2] if len(cores) > 1 else [])
    assert multiprocessing.active_children() == []


def test_failed_profile_leaves_a_device_in_place(ellipse_path, monkeypatch):
    def failing_table(frame, render, write):
        write(b"partial\n")  # the table is written through a binary handle
        raise DomainError("seeded table failure")

    unlinked = []
    monkeypatch.setattr(harness, "ratio_table", failing_table)
    monkeypatch.setattr(Path, "unlink", lambda self, *a, **k: unlinked.append(self))
    with pytest.raises(DomainError, match="seeded table failure"):
        profile_curve(ellipse_path, "/dev/null")
    assert unlinked == []


def test_cli_profile_exits_2_on_a_dead_table_worker(
    ellipse_path, tmp_path, pool_starts, deadline, fault_on_blocks, die_in_worker,
    capsys,
):
    frame = build_frame(canonical_scale(load_curve(ellipse_path)))
    fault_on_blocks(frame, {3: die_in_worker})
    out = tmp_path / "pairs.csv"
    assert cli.main(["profile", str(ellipse_path), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {
        "kind": "Error",
        "message": "profile worker exited without a result",
        "context": {"task": 3, "exitcode": 3},
    }
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_profile_rejects_self_intersection(fig8_path):
    with pytest.raises(NotEmbedded):
        profile_curve(fig8_path)


# -- command line ----------------------------------------------------------------


def test_cli_run_passes_and_persists(tmp_path, capsys):
    rc = cli.main(
        [
            "run",
            "--generator",
            "circle",
            "--n",
            "64",
            "--t-end",
            "0.3",
            "--outdir",
            str(tmp_path / "out"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "termination: reached-end-time" in out
    assert "distance-comparison: pass" in out
    assert "quadrature-identity: pass" in out
    assert (tmp_path / "out" / "series.csv").exists()


def test_cli_run_exit_one_when_run_fails(capsys):
    # past the extinction time with a fixed step: curvature blow-up
    rc = cli.main(
        [
            "run",
            "--kind",
            "unnormalized",
            "--n",
            "64",
            "--dt",
            "1e-3",
            "--t-end",
            "0.6",
            "--snapshot-every",
            "50",
            "--no-persist",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "termination: curvature-blow-up" in out


def test_cli_names_the_checks_an_unnormalized_run_skips(tmp_path, capsys):
    outdir = tmp_path / "run"
    argv = ["run", "--kind", "unnormalized", "--n", "64", "--dt", "1e-4"]
    rc = cli.main([*argv, "--t-end", "0.05", "--outdir", str(outdir)])
    out = capsys.readouterr().out
    assert rc == 0
    skipped = [line for line in out.splitlines() if "skipped" in line]
    assert skipped == [
        "checks skipped (they need a normalized run): " + ", ".join(ALL_CHECKS)
    ]
    config = json.loads((outdir / "config.json").read_text())
    assert config["run_spec"]["checks"] == list(ALL_CHECKS)
    assert config["checks_run"] == []
    assert not any((outdir / "reports").iterdir())


def test_cli_error_contract(fig8_path, capsys):
    rc = cli.main(["run", "--input", str(fig8_path), "--no-persist"])
    captured = capsys.readouterr()
    assert rc == 2
    assert json.loads(captured.err) == {
        "kind": "NotEmbedded",
        "message": "initial curve self-intersects",
        "context": {},
    }


@pytest.mark.parametrize("bad_row", [["a", 1.0], [0.5, 1.0, 2.0]], ids=["string", "ragged"])
@pytest.mark.parametrize("command", ["profile", "run"])
def test_cli_reports_bad_numbers_in_a_curve_file(bad_row, command, tmp_path, capsys):
    rows = gen_circle(1.0, 16).vertices.tolist()
    rows[3] = bad_row
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": rows}))
    if command == "profile":
        argv = ["profile", str(path), "--out", str(tmp_path / "t.csv")]
    else:
        argv = ["run", "--input", str(path), "--no-persist"]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2  # not 1: no check failed
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert json.loads(captured.err)["kind"] == "CurveFormatError"


def test_reused_run_directory_keeps_no_stale_files(tmp_path, capsys):
    outdir = tmp_path / "run"
    argv = ["run", "--n", "64", "--snapshot-every", "100", "--outdir", str(outdir)]
    assert cli.main([*argv, "--t-end", "0.5"]) == 0
    assert len(list((outdir / "reports").iterdir())) == len(ALL_CHECKS)
    assert len(list((outdir / "snapshots").iterdir())) == 6
    (outdir / "reports" / "notes.json").write_text("{}\n")
    (outdir / "snapshots" / "curve_final.json").write_text("{}\n")
    assert cli.main([*argv, "--t-end", "0.2", "--check", "none"]) == 0
    capsys.readouterr()
    config = json.loads((outdir / "config.json").read_text())
    assert config["checks_run"] == []
    assert [p.name for p in (outdir / "reports").iterdir()] == ["notes.json"]
    snaps = sorted(p.name for p in (outdir / "snapshots").iterdir())
    assert snaps == [
        "curve_000000.json", "curve_000100.json", "curve_000200.json", "curve_final.json"
    ]


def test_cli_run_reports_an_unwritable_run_directory(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    outdir = blocker / "run"
    rc = cli.main(["run", "--n", "64", "--t-end", "0.01", "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2  # not 1: no check failed
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "kind": "NotADirectoryError",
        "message": "Not a directory",
        "context": {"path": str(outdir)},
    }
    assert blocker.read_text() == "a regular file\n"


def test_cli_profile_reports_an_unwritable_table(ellipse_path, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    out = blocker / "pairs.csv"
    rc = cli.main(["profile", str(ellipse_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "kind": "NotADirectoryError",
        "message": "Not a directory",
        "context": {"path": str(out)},
    }
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "a regular file\n"


@pytest.mark.parametrize(
    "flag", [["--t-end", "nan"], ["--t-end", "inf"], ["--snapshot-every", "0"]]
)
def test_cli_rejects_bad_flow_config(flag, capsys):
    rc = cli.main(
        ["run", "--generator", "ellipse", "--n", "64", "--no-persist", *flag]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "ConfigError"


def test_cli_rejects_a_bad_fourier_seed(capsys):
    # NumPy's generators reject a negative seed with a bare ValueError
    argv = ["run", "--generator", "fourier", "--n", "64", "--no-persist"]
    rc = cli.main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert json.loads(captured.err)["kind"] == "ConfigError"
    for seed in (1.5, True, "1"):
        with pytest.raises(ConfigError):
            gen_fourier(seed=seed, n=64)


def _option_strings(parser):
    return [s for action in parser._actions for s in action.option_strings]


def test_settings_are_the_listed_ones():
    """Each settable value is a configuration to test: a new one is added
    here on purpose, with the workload that needs it."""
    fields = list(FlowConfig.__dataclass_fields__)
    assert fields == [
        "kind", "n", "scheme", "dt", "adaptive", "safety", "t_end",
        "resample_every", "snapshot_every",
    ]
    parser = cli._build_parser()
    commands = parser._subparsers._group_actions[0].choices
    run_options = _option_strings(commands["run"])
    assert run_options == [
        "-h", "--help", "--generator", "--input", "--r", "--a", "--b", "--neck",
        "--modes", "--seed", "--n", "--kind", "--scheme", "--dt", "--adaptive",
        "--safety", "--t-end", "--resample-every", "--snapshot-every", "--check",
        "--outdir", "--no-persist",
    ]
    assert _option_strings(commands["verify-identities"]) == ["-h", "--help"]
    # _cmd_run builds FlowConfig from the flags named after its fields
    dests = {a.dest: a.option_strings for a in commands["run"]._actions}
    for name in fields:
        assert dests[name] == ["--" + name.replace("_", "-")]
    # a stored config.json naming a removed field is refused, not read
    with pytest.raises(ConfigError, match="embed_check_every"):
        FlowConfig.from_json_dict({"embed_check_every": 10})


def test_mistyped_flow_fields_are_config_errors(capsys):
    # a JSON spec reaches FlowConfig with whatever types it carries
    for field, value in (("n", "64"), ("n", 64.5), ("dt", "0.001")):
        wire = {
            "generator": "circle",
            "flow": {**FlowConfig().to_json_dict(), field: value},
        }
        with pytest.raises(ConfigError):
            RunSpec.from_json_dict(wire)
    # the CLI parses its flags to the right types, and rejects the rest
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--generator", "ellipse", "--n", "64.5", "--no-persist"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_verify_identities(capsys, coarse_identity_grid, seed_barrier_fault):
    rc = cli.main(["verify-identities"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("pass") >= 8

    seed_barrier_fault(lambda x: 1e-6 * x)
    rc = cli.main(["verify-identities"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


# sha256 of the outputs below, produced with numpy 2.4.6 and scipy 1.17.1. A
# change that alters the numerics on purpose updates these and says so.
_UNNORMALIZED_SERIES_SHA256 = (
    "1080d5b8ec73417724006ca0ec301f6fb380ad5bc4202e6808a3316f913e0054"
)
_VERIFY_IDENTITIES_STDOUT_SHA256 = (
    "56b07f6291d562395936a5ddd546fff02fda474b344676b36e4445b5be66f4fc"
)


def test_unnormalized_series_bytes_are_pinned(tmp_path, capsys):
    """An explicit adaptive un-normalized run: the flow path that the
    flagship pins, semi-implicit and normalized, leave out."""
    outdir = tmp_path / "run"
    argv = ["run", "--generator", "ellipse", "--kind", "unnormalized"]
    argv += ["--scheme", "explicit", "--adaptive", "--n", "128", "--t-end", "0.3"]
    assert cli.main([*argv, "--outdir", str(outdir)]) == 0
    digest = hashlib.sha256((outdir / "series.csv").read_bytes()).hexdigest()
    assert digest == _UNNORMALIZED_SERIES_SHA256


def test_verify_identities_stdout_is_pinned(capsys):
    assert cli.main(["verify-identities"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _VERIFY_IDENTITIES_STDOUT_SHA256


def test_cli_profile_prints_summary(ellipse_path, tmp_path, capsys):
    rc = cli.main(["profile", str(ellipse_path), "--out", str(tmp_path / "t.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "a_bar = 2.06233517057" in out
    assert "pair table:" in out


def test_cli_profile_prints_the_round_circle_lines(tmp_path, capsys):
    path = tmp_path / "circle.json"
    save_curve(gen_circle(1.0, 64), path)
    rc = cli.main(["profile", str(path), "--out", str(tmp_path / "t.csv")])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[:2] == [
        "a_bar = 0 (round-circle: every chord at or above 2 sin(l/2))",
        "t_bar = -inf",
    ]


def test_cli_run_without_flow_flags_builds_default_flow_config(monkeypatch):
    specs = []

    def capture(spec, persist=True):
        specs.append(spec)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "execute", capture)
    assert cli.main(["run", "--no-persist"]) == 2
    assert specs[0].flow == FlowConfig()
    assert specs[0].generator == "circle"


@pytest.mark.parametrize("name", ["circle", "ellipse", "dumbbell", "fourier"])
def test_cli_run_without_shape_flags_builds_the_generator_defaults(name, monkeypatch):
    specs = []

    def capture(spec, persist=True):
        specs.append(spec)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "execute", capture)
    assert cli.main(["run", "--generator", name, "--n", "64", "--no-persist"]) == 2
    assert specs[0].seed == RunSpec().seed
    curve = materialize_curve(specs[0])
    assert np.array_equal(curve.vertices, harness._GENERATORS[name](n=64).vertices)
