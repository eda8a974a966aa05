"""End-to-end benchmark of the ``causalgeo`` CLI, with a traced mode for per-layer numbers.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
One closed-loop client runs one subcommand at a time, each in its own child
process, one after another.  A run:

1. imports causalgeo once untimed, so byte-compilation is not timed;
2. sets up the workload's inputs, repeated and reported as a median;
3. runs whole rounds of the workload's subcommands until the rounds add up
   to ``--seconds``, checking every round's outputs (see ``workloads.py``);
4. prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
   end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

With ``--trace 1`` untraced and traced rounds alternate (see ``tracer.py``),
and ``trace.overhead_s`` is the difference of their median wall times.
Outputs and traces go to ``perfbench/runs/WORKLOAD/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import tracer
from workloads import WORKLOADS, CheckError, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The run must end within 180 s; no child is started that could outlive this.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
                    "setup_rss_mb": "MB", "items_per_s": "1/s"}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crash, timeout)."""


@dataclass
class Usage:
    """Wall time, CPU time and peak RSS of children run one after another."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0

    def add(self, other):
        self.wall += other.wall
        self.cpu += other.cpu
        self.rss_mb = max(self.rss_mb, other.rss_mb)


class Runner:
    def __init__(self, workload, seed, run_dir, deadline):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = deadline
        self.log_path = os.path.join(run_dir, "children.log")
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        # Children cache bytecode as an installed program does, whatever the
        # caller's environment says; the untimed warm-up import writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, argv, exits=(0,)):
        """Run one child to completion and return its Usage.

        ``exits`` lists the exit codes that are not an error of the benchmark.
        """
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget spent before the run finished")
        with open(self.log_path, "ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            reaped = False
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    finished, _, _ = select.select([pidfd], [], [], remaining)
                finally:
                    os.close(pidfd)
                if not finished:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                if not reaped:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not finished:
            raise BenchError(f"child timed out: {' '.join(argv)}")
        if proc.returncode not in exits:
            raise BenchError(f"child exited {proc.returncode}: {' '.join(argv)} "
                             f"(see {self.log_path})")
        return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def cli(self, args, trace_path=None, kind="spans"):
        # Exit 1 means a certificate failed; the checks count that operation.
        if trace_path is None:
            return self.child(["-m", "causalgeo.cli"] + args, exits=(0, 1))
        return self.child([os.path.join(HERE, "tracer.py"), kind, trace_path] + args,
                          exits=(0, 1))

    def setup(self, trace_path=None):
        """One set-up: the workload's ``causalgeo causet`` step, then ``prepare.py``."""
        total = Usage()
        for args in self.workload.setup_cli(self.run_dir):
            total.add(self.cli(args, trace_path))
        total.add(self.child([os.path.join(HERE, "prepare.py"), self.workload.name,
                              str(self.seed), self.run_dir]))
        return total

    def round(self, trace_path=None, kind="spans"):
        """One round, traced into ``trace_path.<step>`` if given.

        Returns its Usage, its checked Outcome and the trace files written.
        """
        steps = self.workload.round(self.run_dir)
        for _, out_dir in steps:
            shutil.rmtree(out_dir, ignore_errors=True)
        total = Usage()
        paths = [] if trace_path is None else [f"{trace_path}.{i}" for i in range(len(steps))]
        for index, (args, _) in enumerate(steps):
            total.add(self.cli(args, paths[index] if paths else None, kind))
        return total, self.workload.check(self.run_dir), paths


def _merge_traces(paths):
    """Concatenate the step traces of one round into one payload."""
    spans, counts = [], {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        offset = len(spans)
        spans.extend([name, start, end, parent + offset if parent >= 0 else -1]
                     for name, start, end, parent in payload["spans"])
        for key, value in payload["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"spans": spans, "counts": counts}


def run(workload, seed, seconds, trace):
    run_dir = os.path.join(HERE, "runs", workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(workload, seed, run_dir, time.monotonic() + RUN_BUDGET_S)
    runner.child(["-c", "import causalgeo.cli"])

    outcome = Outcome()
    plain, traced, layer_values = [], [], []
    if trace:
        # Only the causal-set workloads run (and so trace) a CLI step in set-up.
        path = os.path.join(run_dir, "trace-setup.json")
        runner.setup(path)
        setup_trace = _merge_traces([path]) if os.path.exists(path) else None
    else:
        setups = [runner.setup() for _ in range(workload.setup_repeats)]

    measured = cycle = 0.0
    while not plain or measured < seconds:
        # Stop early rather than start a cycle that could overrun the budget.
        if time.monotonic() + 1.5 * cycle > runner.deadline:
            break
        started = time.monotonic()
        usage, checked, _ = runner.round()
        plain.append(usage)
        items = checked.items
        outcome.merge(checked)
        measured += usage.wall
        if trace:
            path = os.path.join(run_dir, f"trace-{len(traced)}")
            usage, checked, span_files = runner.round(path + "-spans", "spans")
            traced.append(usage)
            outcome.merge(checked)
            measured += usage.wall
            usage, checked, count_files = runner.round(path + "-counts", "counts")
            outcome.merge(checked)
            measured += usage.wall
            layer_values.append(tracer.layer_metrics(
                _merge_traces(span_files + count_files), setup_trace))
        cycle = time.monotonic() - started

    if trace:
        # median_low keeps counts whole: it picks one cycle's value.
        metrics = {name: statistics.median_low([values[name] for values in layer_values])
                   for name in tracer.LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median([u.wall for u in traced])
                                       - statistics.median([u.wall for u in plain]))
        units = tracer.LAYER_UNITS
    else:
        wall = statistics.median([u.wall for u in plain])
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median([u.cpu for u in plain]),
            "peak_rss_mb": statistics.median([u.rss_mb for u in plain]),
            "setup_s": statistics.median([u.wall for u in setups]),
            "setup_rss_mb": statistics.median([u.rss_mb for u in setups]),
            "items_per_s": items / wall,
        }
        units = END_TO_END_UNITS
    print(f"{workload.name}: {len(plain)} untraced and {len(traced)} traced rounds, "
          f"round walls {[round(u.wall, 3) for u in plain + traced]}", file=sys.stderr)
    return {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "causalgeo", "cli.py")):
        print(f"causalgeo sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, CheckError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
