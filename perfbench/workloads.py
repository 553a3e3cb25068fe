"""The benchmark's workloads: set-up, one timed repetition, output checks.

Every workload drives csflow through its public entry points only
(``harness.execute`` and ``cli.main``). A repetition is a list of
operations; each operation is timed on its own and then checked. An
operation fails when it raises a ``CsflowError``, when the flow stops
before its end time, when its verdict is not the expected one, when its
output breaks an invariant, when it differs from the same operation in the
first repetition (which also catches a wrapper that changed a result), or,
where a reference is stored for the inputs, when it differs from that
reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from csflow import cli
from csflow.dynamics import TERM_END, FlowConfig
from csflow.errors import CsflowError
from csflow.geometry import save_curve
from csflow.harness import (
    SERIES_HEADER,
    RunSpec,
    execute,
    gen_fourier,
    materialize_curve,
    write_series_csv,
)

DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TWO_PI = 2.0 * math.pi

# A stored reference matches when every value agrees to this relative
# tolerance (absolute 1e-12 near zero). It admits a change in the order of
# floating-point sums, not a change in the numerics.
REF_RTOL = 1e-9
REF_ATOL = 1e-12


@dataclass
class Outcome:
    """One timed operation: its time, its output digest, and why it failed
    (``None`` when every check held)."""

    op: str
    seconds: float
    digest: str
    failure: str | None


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


class _Workload:
    name = ""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self._first: dict[str, str] = {}  # op -> digest in the first repetition

    @property
    def reference_path(self) -> Path | None:
        """Stored reference that applies to these inputs, if any."""
        return None

    def _same_as_first(self, op: str, digest: str) -> str | None:
        first = self._first.setdefault(op, digest)
        if digest != first:
            return "output differs from the first repetition"
        return None


# -- flows through harness.execute ---------------------------------------------

class _FlowWorkload(_Workload):
    persist = False

    def spec(self, size: str) -> RunSpec:
        raise NotImplementedError

    def setup(self) -> None:
        """Generate the initial curve and warm up on a tiny run."""
        materialize_curve(self.spec(self.size))
        execute(self.spec("tiny"), persist=self.persist)
        self._remove_run_dir()

    def _remove_run_dir(self) -> None:
        shutil.rmtree(self.workdir / "run", ignore_errors=True)

    def _expected_rows(self, flow: FlowConfig) -> int:
        steps = round(flow.t_end / flow.dt)
        extra = 1 if steps % flow.snapshot_every else 0
        return steps // flow.snapshot_every + 1 + extra

    def _series_text(self, result) -> str:
        series = self.workdir / "run" / "series.csv"
        if not self.persist:
            series.parent.mkdir(parents=True, exist_ok=True)
            write_series_csv(result, series)
        return series.read_text()

    def rep(self) -> list[Outcome]:
        spec = self.spec(self.size)
        self._remove_run_dir()
        t0 = time.perf_counter()
        try:
            result = execute(spec, persist=self.persist)
        except CsflowError as exc:
            seconds = time.perf_counter() - t0
            return [Outcome("execute", seconds, "", f"{exc.kind}: {exc.message}")]
        seconds = time.perf_counter() - t0

        text = self._series_text(result)
        digest = _sha(text.encode(), str(result.passed).encode())
        failure = (
            self._check_result(result, spec, text)
            or self._same_as_first("execute", digest)
        )
        return [Outcome("execute", seconds, digest, failure)]

    def _check_result(self, result, spec: RunSpec, text: str) -> str | None:
        if result.trajectory.termination != TERM_END:
            return f"flow ended early: {result.trajectory.termination}"
        if not result.passed:
            return "verdict is fail, expected pass"
        lines = text.splitlines()
        if lines[0] != SERIES_HEADER:
            return "series.csv header changed"
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        rows = self._expected_rows(spec.flow)
        if data.shape[0] != rows:
            return f"series.csv has {data.shape[0]} rows, expected {rows}"
        if abs(data[-1, 1] - spec.flow.t_end) > 1e-9:
            return f"series ends at t = {data[-1, 1]!r}, expected {spec.flow.t_end}"
        drift = float(np.max(np.abs(data[:, 2] - TWO_PI)))
        if drift > 1e-9 * TWO_PI:
            return f"length drifted off 2*pi by {drift:.3e}"
        if self.reference_path is not None:
            ref_lines = self.reference_path.read_text().splitlines()
            ref = np.array([[float(x) for x in line.split(",")] for line in ref_lines[1:]])
            if ref.shape != data.shape:
                return f"series shape {data.shape} differs from reference {ref.shape}"
            close = np.isclose(data, ref, rtol=REF_RTOL, atol=REF_ATOL, equal_nan=True)
            if not np.all(close):
                r, c = np.argwhere(~close)[0]
                col = SERIES_HEADER.split(",")[c]
                return (
                    f"series.csv differs from reference at row {r}, {col}: "
                    f"{data[r, c]!r} vs {ref[r, c]!r}"
                )
        return None

    def write_reference(self) -> Path:
        self._remove_run_dir()
        result = execute(self.spec(self.size), persist=self.persist)
        REFERENCE_DIR.mkdir(exist_ok=True)
        self.reference_path.write_text(self._series_text(result))
        return self.reference_path


class FlagshipDumbbell(_FlowWorkload):
    """Dumbbell neck 0.2, N = 512, t_end = 1, all checks, persisted: the
    run-and-verdict path, and the only workload where every module works."""

    name = "flagship-dumbbell"
    persist = True

    def spec(self, size: str) -> RunSpec:
        n, t_end = (512, 1.0) if size == "full" else (128, 0.05)
        return RunSpec(
            generator="dumbbell",
            params={"neck": 0.2},
            flow=FlowConfig(n=n, t_end=t_end),
            outdir=str(self.workdir / "run"),
        )

    @property
    def reference_path(self) -> Path | None:
        # the dumbbell does not depend on the seed, so its reference always applies
        if self.size != "full":
            return None
        return REFERENCE_DIR / "flagship-dumbbell.series.csv"


class FlowN1024(_FlowWorkload):
    """Seeded fourier curve, N = 1024, t_end = 0.5, no checks, not persisted:
    only geometry and dynamics work, mostly the embeddedness test."""

    name = "flow-n1024"

    def spec(self, size: str) -> RunSpec:
        n, t_end = (1024, 0.5) if size == "full" else (128, 0.05)
        return RunSpec(
            generator="fourier",
            params={"modes": 6},
            seed=self.seed,
            flow=FlowConfig(n=n, t_end=t_end),
            checks=(),
            outdir=str(self.workdir / "run"),
        )

    @property
    def reference_path(self) -> Path | None:
        if self.size != "full" or self.seed != DEFAULT_SEED:
            return None
        return REFERENCE_DIR / f"flow-n1024.seed{DEFAULT_SEED}.series.csv"


# -- csflow profile through cli.main -------------------------------------------

_FLOAT = r"([-+0-9.eE]+|inf|-inf|nan)"


def _parse_profile_stdout(out: str) -> dict:
    a_bar = 0.0 if "a_bar = 0 (round-circle" in out else float(
        re.search(r"^a_bar = " + _FLOAT, out, re.M).group(1)
    )
    return {
        "a_bar": a_bar,
        "offdiagonal_max": float(
            re.search(r"^off-diagonal max = " + _FLOAT, out, re.M).group(1)
        ),
        "n_active": int(re.search(r"^active pairs: (\d+)", out, re.M).group(1)),
    }


def _table_digest(csv_path: Path) -> dict:
    table = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    ell, d, a = table[:, 0], table[:, 1], table[:, 2]
    return {
        "rows": int(table.shape[0]),
        "sum_l": float(np.sum(ell)),
        "sum_d": float(np.sum(d)),
        "sum_a": float(np.sum(a)),
        "max_a": float(np.max(a)),
        "nonzero_a": int(np.count_nonzero(a)),
    }


class ProfileTable(_Workload):
    """``csflow profile`` on 4 seeded fourier curves, N = 1024: the full
    per-pair ratio solve and a 523k-row CSV, the write side of comparison."""

    name = "profile-table"
    curves = 4

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        self._digests: dict[str, dict] = {}  # op -> printed summary + table digest

    def _n(self, size: str) -> int:
        return 1024 if size == "full" else 128

    def _curve_path(self, k: int) -> Path:
        return self.workdir / f"curve_{k}.json"

    def setup(self) -> None:
        """Generate and write the curve files, and warm up on a tiny one."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        n = self._n(self.size)
        for k in range(self.curves):
            save_curve(gen_fourier(self.curves * self.seed + k, 6, n), self._curve_path(k))
        warm = self.workdir / "warmup.json"
        save_curve(gen_fourier(self.seed, 6, self._n("tiny")), warm)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["profile", str(warm), "--out", str(self.workdir / "warmup.csv")])

    @property
    def reference_path(self) -> Path | None:
        if self.size != "full" or self.seed != DEFAULT_SEED:
            return None
        return REFERENCE_DIR / f"profile-table.seed{DEFAULT_SEED}.json"

    def _run_one(self, k: int):
        # A fresh file each time: rewriting the old one would truncate it, and
        # on ext4 a truncate waits for the last write-back of that file, so
        # the timing would follow the host's disk instead of csflow.
        out_csv = self.workdir / f"curve_{k}.profile.csv"
        out_csv.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(["profile", str(self._curve_path(k)), "--out", str(out_csv)])
        return time.perf_counter() - t0, status, stdout.getvalue(), stderr.getvalue(), out_csv

    def rep(self) -> list[Outcome]:
        reference = (
            json.loads(self.reference_path.read_text()) if self.reference_path else None
        )
        outcomes = []
        for k in range(self.curves):
            op = f"curve-{k}"
            seconds, status, out, err, out_csv = self._run_one(k)
            if status != 0:
                outcomes.append(Outcome(op, seconds, "", f"exit status {status}: {err.strip()}"))
                continue
            digest = _sha(out.encode(), out_csv.read_bytes())
            failure = self._same_as_first(op, digest)
            if op not in self._digests:
                # first sight of this curve: read the whole table once
                got = {**_parse_profile_stdout(out), **_table_digest(out_csv)}
                self._digests[op] = got
                failure = failure or self._check_table(got)
                if reference is not None:
                    failure = failure or _compare_reference(got, reference[op])
            # deleted while its pages are still unwritten, it never reaches the disk
            out_csv.unlink()
            outcomes.append(Outcome(op, seconds, digest, failure))
        return outcomes

    def _check_table(self, got: dict) -> str | None:
        n = self._n(self.size)
        if got["rows"] != n * (n - 1) // 2:
            return f"pair table has {got['rows']} rows, expected {n * (n - 1) // 2}"
        if got["nonzero_a"] != got["n_active"]:
            return f"table has {got['nonzero_a']} active pairs, stdout says {got['n_active']}"
        # stdout prints 12 significant digits
        if not math.isclose(got["max_a"], got["offdiagonal_max"], rel_tol=1e-11, abs_tol=1e-12):
            return f"table max a {got['max_a']!r} != off-diagonal max {got['offdiagonal_max']!r}"
        if got["a_bar"] < got["offdiagonal_max"] * (1.0 - 1e-11):
            return "a_bar below the off-diagonal max"
        return None

    def write_reference(self) -> Path:
        digests = {}
        for k in range(self.curves):
            _, status, out, _, out_csv = self._run_one(k)
            if status != 0:
                raise RuntimeError(f"curve {k} failed with exit status {status}")
            digests[f"curve-{k}"] = {**_parse_profile_stdout(out), **_table_digest(out_csv)}
        REFERENCE_DIR.mkdir(exist_ok=True)
        self.reference_path.write_text(json.dumps(digests, indent=2) + "\n")
        return self.reference_path


def _compare_reference(got: dict, ref: dict) -> str | None:
    for key, want in ref.items():
        have = got[key]
        if isinstance(want, int):
            if have != want:
                return f"{key} = {have}, reference {want}"
        elif not math.isclose(have, want, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
            return f"{key} = {have!r}, reference {want!r}"
    return None


WORKLOADS = {w.name: w for w in (FlagshipDumbbell, FlowN1024, ProfileTable)}
