"""heckelab benchmark: cold CLI runs of one workload, untraced or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measurement happens in a fresh
interpreter (`worker.py`), one at a time, so each pays for exactly one field
build the way a CLI call does.

--trace 0 repeats cold `run(config)` calls for S seconds (at least three) and
reports, over those runs, the mean wall_s, the mean setup_s (the part of a run
before its first suite: the cold `TorusCtx(FieldCtx(...))` build) and the
median peak_rss_mb.  Means, not medians, because the speed of a shared host
drifts by up to 2x over seconds to minutes: the time average over the whole
run varies less between runs than the median of a dozen samples does, and a
single disturbed sample moves it by under a tenth.  The raw samples, and the
suites' own share of each run (verify_s), go to the record line.

--trace 1 alternates an untraced and a traced run for S seconds (at least one
pair), and reports the medians of the per-layer span metrics of the traced
runs and of trace.wall_s, and trace.overhead_frac (traced over untraced wall
time, minus one, from the medians).

Every report is checked against reference.json.  `attempted` counts suites
run, `failed` those that failed, raised, or disagreed with the reference.  The
line before the last holds the full record (seed, machine, raw samples, absent
spans, failures); the last line is the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_kwargs, failed_suites, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Wall-clock ceiling for one benchmark run, children included.
HARD_LIMIT_S = 170.0
# Cold runs per untraced benchmark run: at least MIN_REPS, then more while the
# median one still fits in --seconds.
MIN_REPS = 3
# Fixed hash seed so set iteration order, and with it the work done, is the
# same in every child.
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
# Samples listed one by one in the record line.
RAW_SAMPLES = ("setup_s", "wall_s", "verify_s", "peak_rss_mb", "untraced_wall_s", "trace.wall_s")


class ChildFailed(Exception):
    pass


def git_revision(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(ROOT),
    }


def child(mode, kwargs, hard_deadline):
    """Run one worker to completion and return its JSON result."""
    timeout = hard_deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left for another measurement")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, json.dumps(kwargs)],
            cwd=ROOT,
            env=CHILD_ENV,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_unit(name):
    return "s" if name.endswith("_s") else "count"


class Run:
    """The samples and failure counts of one benchmark run."""

    def __init__(self, workload, seed, seconds):
        self.seed = seed
        self.kwargs = config_kwargs(workload, seed)
        self.reference = load_reference()[workload]
        self.seconds = seconds
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        self.samples = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.absent = {}

    def add(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def require(self, key):
        if key not in self.samples:
            raise ChildFailed(f"no run completed: {self.errors}")

    @staticmethod
    def another(durations, deadline, minimum):
        """Whether to start one more measurement: yes until `minimum` are
        made, then while the median one still ends before `deadline`."""
        if len(durations) < minimum:
            return True
        return time.monotonic() + statistics.median(durations) <= deadline

    def cli_run(self, mode):
        """One cold run(config); returns the worker result, or None if it failed."""
        names = [s["name"] for s in self.reference["suites"]]
        self.attempted += len(names)
        try:
            out = child(mode, self.kwargs, self.hard_deadline)
        except ChildFailed as exc:
            self.failed += len(names)
            self.errors.append(str(exc))
            return None
        bad = failed_suites(self.reference, out["report"], self.seed)
        if bad:
            self.failed += len(bad)
            self.errors.append(f"{mode} run: suites {bad} failed or disagree with reference")
        return out

    def untraced(self):
        deadline = time.monotonic() + self.seconds
        durations = []
        while self.another(durations, deadline, MIN_REPS):
            started = time.monotonic()
            out = self.cli_run("run")
            durations.append(time.monotonic() - started)
            if out is None:
                break
            for key in ("wall_s", "setup_s", "verify_s", "peak_rss_mb"):
                self.add(key, out[key])
        self.require("wall_s")
        return {
            "wall_s": metric(statistics.fmean(self.samples["wall_s"]), "s"),
            "setup_s": metric(statistics.fmean(self.samples["setup_s"]), "s"),
            "peak_rss_mb": metric(statistics.median(self.samples["peak_rss_mb"]), "MB"),
        }

    def traced(self):
        deadline = time.monotonic() + self.seconds
        durations = []
        while self.another(durations, deadline, 1):
            started = time.monotonic()
            plain = self.cli_run("run")
            traced = self.cli_run("trace")
            durations.append(time.monotonic() - started)
            if plain is None or traced is None:
                break
            self.add("untraced_wall_s", plain["wall_s"])
            self.add("trace.wall_s", traced["wall_s"])
            self.absent.update(traced["absent"])
            for name, value in traced["layers"].items():
                self.add(name, value)
        self.require("trace.wall_s")
        untraced = statistics.median(self.samples["untraced_wall_s"])
        out = {
            name: metric(statistics.median(values), layer_unit(name))
            for name, values in self.samples.items()
            if name != "untraced_wall_s"
        }
        out["trace.overhead_frac"] = metric(
            out["trace.wall_s"]["value"] / untraced - 1, "frac"
        )
        return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "heckelab" / "__init__.py").is_file():
        print(f"error: no heckelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        metrics = run.traced() if args.trace else run.untraced()
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": run.kwargs,
        "machine": provenance(),
        "samples": {k: v for k, v in run.samples.items() if k in RAW_SAMPLES},
        "absent": run.absent,
        "errors": run.errors,
    }
    print(json.dumps(record, sort_keys=True))
    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
