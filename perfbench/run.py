#!/usr/bin/env python3
"""Benchmark of ``lcmteval run`` end to end, with an optional traced run.

    python3 perfbench/run.py --workload fixture --seed 0 --seconds 40 --trace 0

Workloads (perfbench/README.md says why each was chosen):

* ``fixture``: the frozen ``tests/fixtures/campaign`` at CLI defaults
  (K = R = B = 1000, one thread).  The seed does not change it.  One more
  run per invocation, at the flags of ``tests/goldens/fixture_manifest.json``,
  must reproduce every golden digest.
* ``pool``: a generated campaign with 5 systems and 40 segments per
  direction (200 pooled cells per task), ``--hybrids 0 --level segment
  --permutations 20``: the pairwise work of the permutation test dominates.
* ``sweep``: a generated campaign with 2 systems, 12 segments per direction,
  a 24-variant metric and a single-variant metric, ``--hybrids 300
  --permutations 10 --threads 2``: hybrid BLEU and variant selection
  dominate.

Every run is a fresh child process (``perfbench/child.py``) that imports
the package from ``src/`` and times one ``lcmteval.cli.main`` call.  Runs
repeat while the next one is expected to end within ``--seconds`` of run
time; at least ``MIN_RUNS`` runs are made.  Each run process first takes one
``setup_s`` sample (import, load and validate the campaign) before the timed
call; when the window holds fewer runs than ``SETUP_SAMPLES``, set-up-only
processes after the last run make up the rest.
Each run's outputs are checked (see ``check_run``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the untraced
runs take the first half of the time, one traced run follows, and the JSON
holds the per-layer metrics instead.  All files are written under
``.perfbench_work/`` in the checkout and removed at the end.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
WORK_ROOT = ROOT / ".perfbench_work"
FIXTURE_CONFIG = ROOT / "tests" / "fixtures" / "campaign" / "campaign.conf"
GOLDENS = ROOT / "tests" / "goldens" / "fixture_manifest.json"
REFERENCE = BENCH_DIR / "reference_digests.json"

# Report tables that no resampling draw touches; they are compared with
# pinned digests on every run.
RESAMPLING_FREE = (
    "agreement.csv",
    "correlations_segment.csv",
    "length_deviation.csv",
    "qc_timing.csv",
    "qc_traps.csv",
)
# Runs made even when the window is spent.  Otherwise a first run longer
# than half the window would be the only one, and a slow invocation would
# report one slow run where a fast one reports the median of two.
MIN_RUNS = 2
# setup_s is the median of at least this many samples per untimed invocation.
SETUP_SAMPLES = 5
# Every child is stopped by then, so one invocation ends within 180 s.
INVOCATION_LIMIT_S = 170.0
# One BLAS thread in every child.  OpenBLAS otherwise starts one thread per
# core and spins them between calls, so a run would occupy every core and
# time the other tenants of a shared machine more than the program.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    run_flags: tuple[str, ...]
    # campaign_gen.py arguments; None means the frozen fixture campaign
    generator: tuple[str, ...] | None


WORKLOADS = {
    "fixture": Workload("fixture", (), None),
    "pool": Workload(
        "pool",
        ("--hybrids", "0", "--level", "segment", "--permutations", "20"),
        ("--segments", "40", "--systems", "5",
         "--variants", "neuralA=3", "--variants", "neuralB=1"),
    ),
    "sweep": Workload(
        "sweep",
        ("--hybrids", "300", "--permutations", "10", "--threads", "2"),
        ("--segments", "12", "--systems", "2",
         "--variants", "layerSweep=24", "--variants", "neuralB=1"),
    ),
}


@dataclass
class RunRecord:
    run_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)
    manifest: dict[str, str] = field(default_factory=dict)
    trace: dict | None = None  # per-layer summary of a traced run
    setup: dict | None = None  # the set-up sample the run process took first
    bytes_written: int = 0


def permutations_of(flags: tuple[str, ...]) -> int:
    if "--permutations" in flags:
        return int(flags[flags.index("--permutations") + 1])
    return 1000  # the CLI default


def sha256_file(path: Path) -> str:
    # Not lcmteval.reports.sha256_file: the check must not rely on the code
    # it checks, and this process never imports the package.
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(
    out: Path, permutations: int, expected: dict[str, str], exact: bool
) -> tuple[dict, list]:
    """Check one run's output directory.

    * every file listed in manifest.json exists and has the listed digest;
    * every name in ``expected`` has that digest (goldens, reference
      digests or the first run's manifest); with ``exact`` no other file
      may be listed;
    * segment-level p-values lie in [1/(R+1), 1] and system-level
      intervals have lower <= upper.

    Returns the manifest as {name: digest} and a list of problems.
    """
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        files = {f["name"]: f["sha256"] for f in manifest["files"]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, [f"manifest.json unreadable: {exc}"]
    problems = []
    for name, digest in sorted(files.items()):
        path = out / name
        if not path.is_file() or sha256_file(path) != digest:
            problems.append(f"{name}: content differs from manifest.json")
    for name, digest in sorted(expected.items()):
        if files.get(name) != digest:
            problems.append(f"{name}: digest {files.get(name)} != expected {digest}")
    if exact and set(files) - set(expected):
        problems.append(f"unexpected files {sorted(set(files) - set(expected))}")
    p_floor = 1.0 / (permutations + 1) - 0.5e-4  # p is printed to 4 decimals
    for name in sorted(files):
        if not (name.startswith("sig_") and name.endswith(".csv")):
            continue
        with (out / name).open(encoding="utf-8", newline="") as fh:
            try:
                for row in csv.DictReader(fh):
                    where = f"{name} {row['row_metric']}>{row['col_metric']}"
                    p = row["p_value"]
                    if p and not p_floor <= float(p) <= 1.0:
                        problems.append(f"{where}: p-value {p} outside [1/(R+1), 1]")
                    lo, hi = row["lower"], row["upper"]
                    if (lo or hi) and not float(lo) <= float(hi):
                        problems.append(f"{where}: interval {lo} > {hi}")
            except (KeyError, ValueError) as exc:
                problems.append(f"{name}: unreadable cell: {exc}")
    return files, problems


class Session:
    """The scratch directory, input campaign and time limit of one invocation.

    ``pinned`` holds the digests of the resampling-free tables known in
    advance for this input: from the goldens for the fixture, from
    reference_digests.json for a generated campaign whose seed is listed.
    """

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.log = work / "stderr.log"
        self.deadline = time.monotonic() + INVOCATION_LIMIT_S
        self._count = 0
        if workload.generator is None:
            goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))["files"]
            self.config = FIXTURE_CONFIG
            self.pinned = {name: goldens[name] for name in RESAMPLING_FREE}
        else:
            out = work / "campaign"
            self._subprocess(
                [str(BENCH_DIR / "campaign_gen.py"), str(out), *workload.generator,
                 "--seed", str(seed)]
            )
            self.config = out / "campaign.conf"
            table = json.loads(REFERENCE.read_text(encoding="utf-8"))
            self.pinned = table.get(workload.name, {}).get(str(seed), {})

    def _subprocess(self, args: list[str]) -> int:
        """Run a Python child to completion (killed at the deadline)."""
        with self.log.open("ab") as err:
            try:
                return subprocess.run(
                    [sys.executable, *args],
                    stdout=subprocess.DEVNULL,
                    stderr=err,
                    timeout=max(1.0, self.deadline - time.monotonic()),
                    cwd=ROOT,
                    env={**os.environ, **BLAS_ENV},
                ).returncode
            except subprocess.TimeoutExpired:
                return -1

    def _next(self, stem: str) -> Path:
        self._count += 1
        return self.work / f"{stem}{self._count}"

    def setup_sample(self) -> dict | None:
        result = self._next("setup").with_suffix(".json")
        code = self._subprocess(
            [str(BENCH_DIR / "child.py"), "setup", str(self.config), str(result)]
        )
        if code != 0 or not result.is_file():
            return None
        sample = json.loads(result.read_text(encoding="utf-8"))
        return sample if sample["valid"] else None

    def run(self, first: RunRecord | None = None, trace: bool = False) -> RunRecord:
        """One run of the workload, checked against the pinned digests and
        the manifest of the ``first`` run."""
        if first is not None and first.manifest:
            expected, exact = {**first.manifest, **self.pinned}, True
        else:
            expected, exact = self.pinned, False
        return self._run(self.workload.run_flags, expected, exact, trace)

    def golden_run(self) -> RunRecord:
        """One run at the goldens' flags, checked against every golden digest."""
        goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        return self._run(golden_flags(goldens), goldens["files"], True, False)

    def _run(
        self, flags: tuple[str, ...], expected: dict[str, str], exact: bool, trace: bool
    ) -> RunRecord:
        """One ``lcmteval run`` in a fresh process, checked."""
        out = self._next("out")
        result = out.with_suffix(".json")
        summary = out.with_suffix(".trace.json")
        head = [str(result)] + (["--trace", str(summary)] if trace else [])
        t0 = time.perf_counter()
        code = self._subprocess(
            [str(BENCH_DIR / "child.py"), "run", *head, "--",
             "run", str(self.config), "--out", str(out), *flags]
        )
        wall = time.perf_counter() - t0

        if result.is_file():
            measured = json.loads(result.read_text(encoding="utf-8"))
            record = RunRecord(measured["run_s"], measured["peak_rss_mb"])
            record.setup = measured["setup"]
        else:  # the child died before writing its result
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            record = RunRecord(wall, peak)
        if code != 0:
            record.problems.append("timed out" if code == -1 else f"exit code {code}")
        else:
            record.manifest, record.problems = check_run(
                out, permutations_of(flags), expected, exact
            )
        if trace:
            if summary.is_file():
                record.trace = json.loads(summary.read_text(encoding="utf-8"))
            else:
                record.problems.append("traced run wrote no trace summary")
        if out.is_dir():
            record.bytes_written = sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
        return record

    def repeat(self, seconds: float) -> list[RunRecord]:
        """Untraced runs while the next is expected to end within ``seconds``."""
        runs: list[RunRecord] = []
        spent = 0.0
        while True:
            t0 = time.monotonic()
            runs.append(self.run(runs[0] if runs else None))
            last = time.monotonic() - t0
            spent += last
            if len(runs) >= MIN_RUNS and spent + last > seconds:
                return runs


def golden_flags(goldens: dict) -> tuple[str, ...]:
    flags: list[str] = []
    for key, value in sorted(goldens["flags"].items()):
        flags += [f"--{key.replace('_', '-')}", str(value)]
    return tuple(flags)


def environment(workload: str, seed: int, versions: dict | None) -> dict:
    src = ROOT / "src" / "lcmteval"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    versions = versions or {}
    return {
        "workload": workload,
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "blas": versions.get("blas"),
        "blas_threads": BLAS_ENV,
        "git_commit": commit,
        "src_sha256": h.hexdigest(),
    }


def measure(session: Session, seed: int, seconds: float, trace: bool) -> dict:
    """Run one invocation; return the result object of the last output line."""
    workload = session.workload
    problems: list[str] = []
    runs = session.repeat(seconds / 2 if trace else seconds)
    setups = [r.setup for r in runs if r.setup is not None]
    attempts = len(runs)
    while not trace and attempts < SETUP_SAMPLES:
        attempts += 1
        sample = session.setup_sample()
        if sample is None:
            problems.append(f"setup sample {attempts} failed")
        else:
            setups.append(sample)
    if not all(s["valid"] for s in setups):
        problems.append("campaign failed validation in a set-up sample")
    checked = list(runs)
    if trace:
        traced = session.run(runs[0], trace=True)
        if traced.trace and traced.trace["missing"]:
            # Code moved by a later change: its layer would read 0, so the
            # trace must be brought up to date before it counts.
            traced.problems.append(
                f"trace lookups not found: {', '.join(traced.trace['missing'])}"
            )
        checked.append(traced)
    if workload.generator is None:
        checked.append(session.golden_run())
    failed = 0
    for i, record in enumerate(checked):
        failed += bool(record.problems)
        problems += [f"run {i}: {p}" for p in record.problems]

    run_s = statistics.median(r.run_s for r in runs)
    setup_s = statistics.median(s["setup_s"] for s in setups) if setups else 0.0
    if trace:
        values = dict(traced.trace["metrics"]) if traced.trace else {}
        values.update({
            "reports.bytes_written": traced.bytes_written,
            "trace.run_s": traced.run_s,
            "trace.untraced_run_s": run_s,
            "trace.overhead_s": traced.run_s - run_s,
        })
    else:
        values = {
            "run_s": run_s,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "ok_ratio": (len(checked) - failed) / len(checked),
        }

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        if metric["name"] not in values:
            problems.append(f"metric {metric['name']} not measured")
        value = values.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if trace:
            print(f"# {metric['name']:40s} {value:>16.6g} {metric['unit']}")

    env = environment(workload.name, seed, setups[0] if setups else None)
    print("# env " + json.dumps(env, sort_keys=True))
    print(
        f"# {workload.name} seed {seed}: run_s median {run_s:.3f} s (n={len(runs)}), "
        f"setup_s median {setup_s:.3f} s (n={len(setups)}), "
        f"fail_ratio {failed}/{len(checked)}; runs "
        + " ".join(f"{r.run_s:.3f}" for r in runs)
    )
    for p in problems:
        print(f"# FAIL {p}")
    return {
        "correct": not problems,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark `lcmteval run`.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: generated campaigns derive from it")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measurement window per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "lcmteval", ROOT / "BENCHMARK.json"]
    if workload.generator is None:
        needed += [FIXTURE_CONFIG, GOLDENS]
    missing = [p for p in needed if not p.exists()]
    if missing:
        print(f"error: not a lcmteval checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        session = Session(workload, args.seed, work)
        if not session.config.is_file():
            print(f"error: campaign generation failed:\n"
                  f"{session.log.read_text(errors='replace')}", file=sys.stderr)
            return 1
        result = measure(session, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
