"""Benchmark entry point.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Run from the repository root.  The inputs are generated from ``--seed`` in a
child process (so its memory does not count toward this process's peak
RSS), written under ``.perfbench_work/`` and removed at the end.  The
workload's operation then repeats until ``--seconds`` have passed, each
output checked, and set-up repeats after it.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``run_s`` is the mean operation time and ``setup_s`` the median set-up
time.  With ``--trace 1`` the first half of the time runs untraced
operations and the second half traced set-up + operation units; the
per-layer metrics come from the median traced unit.  The line
before the result describes the inputs (sha256s) and the platform.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "f_mean": "%",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the smoke tests",
    )
    parser.add_argument("--generate-into", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    if not (SRC / "incongruity" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'incongruity'}")
    sys.path.insert(0, str(SRC))
    import incongruity

    if Path(incongruity.__file__).resolve().parent != SRC / "incongruity":
        raise SystemExit(f"perfbench: imported incongruity from {incongruity.__file__}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def _repeat(operation, seconds: float, min_reps: int, after=None):
    """Time ``operation`` at least ``min_reps`` times, then while another
    repetition of median length still fits in ``seconds``.  ``after`` gets
    each result outside the timed region."""
    walls, cpus, results = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        wall, cpu = time.perf_counter(), time.process_time()
        result = operation()
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
        if after is not None:
            result = after(result)
        results.append(result)
        if len(walls) >= min_reps and (
            time.perf_counter() + statistics.median(walls) > deadline
        ):
            return walls, cpus, results


def _median_index(values):
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


class _Checker:
    """Checks every operation's outputs against the first one's."""

    def __init__(self, impl, size):
        self.impl, self.size = impl, size
        self.attempted = 0
        self.failures: list[str] = []
        self.first = None

    def __call__(self, state, result):
        outcome = self.impl.inspect(state, self.size, result)
        self.attempted += 1
        problems = list(outcome.failures)
        if self.first is None:
            self.first = outcome
        elif outcome.fingerprint != self.first.fingerprint:
            problems.append("output differs from the first repetition")
        if problems:
            self.failures.append(f"rep {self.attempted}: " + "; ".join(problems))


def measure(workload: str, inputs: Path, seconds: float, trace: bool, size_name: str):
    import tracing
    import workloads

    impl = workloads.WORKLOAD_IMPL[workload]
    size = workloads.SIZES[workload][size_name]
    checker = _Checker(impl, size)

    def repeat_operation(state, seconds, min_reps):
        return _repeat(
            lambda: impl.operate(state, size), seconds, min_reps,
            after=lambda result: checker(state, result),
        )

    if not trace:
        def timed_setup():
            start = time.perf_counter()
            state = impl.setup(inputs)
            setup_walls.append(time.perf_counter() - start)
            return state

        # The operations run on the first set-up; the others come after them,
        # so peak RSS is one set-up plus the operations, as in a user's
        # process, and not the allocator's leftovers from repeated set-ups.
        setup_walls = []
        walls, _, _ = repeat_operation(timed_setup(), seconds, 2)
        for _ in range(workloads.SETUP_REPS[workload] - 1):
            timed_setup()
        metrics = {
            "setup_s": statistics.median(setup_walls),
            # The mean over the window: repetition times swing by up to 25%
            # from one to the next, and the mean of a few is steadier than
            # their median.
            "run_s": statistics.fmean(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "f_mean": checker.first.metrics["f_mean"],
        }
        units = END_TO_END_UNITS
    else:
        state = impl.setup(inputs)
        walls, cpus, _ = repeat_operation(state, seconds / 2, 1)
        del state

        def traced_unit():
            with tracing.Tracer() as tracer:
                start = time.perf_counter()
                unit_state = impl.setup(inputs)
                op_start = time.perf_counter()
                result = impl.operate(unit_state, size)
                end = time.perf_counter()
            return tracer.metrics(), end - start, end - op_start, unit_state, result

        def check_unit(unit):
            *summary, unit_state, result = unit
            checker(unit_state, result)
            return summary

        _, _, units_run = _repeat(traced_unit, seconds / 2, 1, after=check_unit)
        layer, unit_wall, op_wall = units_run[_median_index([u[2] for u in units_run])]
        metrics = {
            **layer,
            "process.cpu_s": statistics.fmean(cpus),
            "trace.wall_s": unit_wall,
            "trace.overhead_s": op_wall - statistics.fmean(walls),
        }
        units = {name: _layer_unit(name) for name in metrics}
    info = {k: v for k, v in checker.first.metrics.items() if k not in metrics}
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, info, checker.failures


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOAD_IMPL:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    if args.generate_into is not None:
        workloads.generate(args.workload, args.seed, args.size, args.generate_into)
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--size", args.size,
             "--generate-into", str(work)],
            check=True, timeout=170,
        )
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        result, info, failures = measure(
            args.workload, work, args.seconds, bool(args.trace), args.size
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    import numpy

    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "inputs_sha256": manifest, "outputs": info, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
