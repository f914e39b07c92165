"""One measured process of the benchmark.

    python3 perfbench/child.py setup CONFIG RESULT_JSON
    python3 perfbench/child.py run RESULT_JSON [--trace SUMMARY_JSON] -- run CONFIG [OPTIONS...]

``setup`` times what every invocation of the tool pays before it computes
anything: importing ``lcmteval`` and loading and validating the campaign.
It also records the library versions and the BLAS build.

``run`` first takes the same set-up sample for the campaign named in the
tool arguments (``run CONFIG ...``), drops the loaded campaign, and then
times one ``lcmteval.cli.main`` call with the given arguments; that call
loads the campaign again, as every run of the tool does.  With ``--trace``
the wrappers of ``perfbench/tracing.py`` are installed before the call and
their per-layer summary is written after it.  The result file holds the
set-up sample, the exit code, the wall time of the call and the process's
peak resident set size.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_sample(config: str) -> dict:
    """Import the package, load and validate ``config``; must run first."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import lcmteval

    campaign = lcmteval.load_campaign(config)
    report = lcmteval.validate_campaign(campaign)
    elapsed = time.perf_counter() - t0

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": elapsed,
        "valid": report.ok,
        "lcmteval": lcmteval.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup(config: str, result: str) -> int:
    sample = _setup_sample(config)
    Path(result).write_text(json.dumps(sample), encoding="utf-8")
    return 0 if sample["valid"] else 1


def run(result: str, trace_out: str | None, argv: list[str]) -> int:
    sample = _setup_sample(argv[1])  # argv is ["run", CONFIG, ...]
    gc.collect()  # the loaded campaign is garbage now
    import lcmteval.cli

    tracer = None
    if trace_out is not None:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import tracing

        tracer = tracing.install()
    t0 = time.perf_counter()
    code = lcmteval.cli.main(argv)
    elapsed = time.perf_counter() - t0
    peak = _peak_rss_mb()
    if tracer is not None:
        Path(trace_out).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    Path(result).write_text(
        json.dumps(
            {"exit_code": code, "run_s": elapsed, "peak_rss_mb": peak, "setup": sample}
        ),
        encoding="utf-8",
    )
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 3:
        return setup(argv[1], argv[2])
    if argv[:1] == ["run"] and "--" in argv:
        sep = argv.index("--")
        head, tool_args = argv[1:sep], argv[sep + 1 :]
        if tool_args[:1] != ["run"] or len(tool_args) < 2:
            head = []
        if len(head) == 1:
            return run(head[0], None, tool_args)
        if len(head) == 3 and head[1] == "--trace":
            return run(head[0], head[2], tool_args)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
