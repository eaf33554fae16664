"""shrinktarget benchmark: a seeded stream of CLI jobs per workload.

    python3 perfbench/run.py --workload approx --seed 1 --seconds 24 --trace 0

One closed-loop client calls ``shrinktarget.cli.main([...])`` in-process,
one job after the other, with the default ``--threads 1``.  The job list
(one *pass*) comes from ``gen.py``; passes repeat while another one fits in
``--seconds`` (at least one runs).  Artifacts are checked after each pass,
outside the timed region.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the median
traced pass.  The last stdout line is the JSON result; the exit code is 0
whenever a result is printed, also when jobs failed (they count in
``failed``).  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import check_job
from spans import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5


class HostSpeed:
    """Samples the host's CPU speed while a run goes on.

    On a shared 2-core VM the host slows every process by up to 1.5x for
    seconds at a time, which repetition within a 30 s run does not average
    out.  Every INTERVAL seconds SIGALRM runs a fixed pure-Python loop and
    records its duration.  ``corrected(t0, t1)`` is the time of the interval
    [t0, t1] at a fixed reference speed: its wall time minus the loops run
    inside it, times REFERENCE / (mean loop time from t0 - WINDOW to
    t1 + WINDOW).  REFERENCE is the loop's median time on the 2-core Xeon VM
    the benchmark was defined on, so there corrected times read like typical
    wall times.  Raw wall times stay in the run record.
    """

    LOOP = 3000
    INTERVAL = 0.1
    WINDOW = 0.5
    REFERENCE = 2.9e-4

    def __init__(self):
        self.at = []
        self.cost = []
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        s = 0
        for i in range(self.LOOP):
            s += i * i % 7
        self.at.append(t0)
        self.cost.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def corrected(self, t0: float, t1: float) -> float:
        if not self.cost:
            return t1 - t0
        a = bisect.bisect_left(self.at, t0)
        b = bisect.bisect_left(self.at, t1)
        lo = min(bisect.bisect_left(self.at, t0 - self.WINDOW), a - 1)
        hi = max(bisect.bisect_right(self.at, t1 + self.WINDOW), b + 1)
        around = self.cost[max(lo, 0):hi]
        return (t1 - t0 - sum(self.cost[a:b])) * self.REFERENCE / statistics.fmean(around)


class Run:
    """Job outcomes of one benchmark run, across all of its passes."""

    def __init__(self, jobs, inputs: Path, work: Path, expected: dict | None):
        self.jobs = jobs
        self.inputs = inputs
        self.work = work
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None   # digests of the first checked pass, by job id

    def check_pass(self, label: str, codes: list) -> None:
        found = {}
        for job, code in zip(self.jobs, codes):
            out = self.work / label / job["id"]
            got, problems = check_job(job, self.inputs, out, code)
            found[job["id"]] = got
            if self.expected is not None and got != self.expected.get(job["id"]):
                problems.append("artifact digests differ from the recorded default-seed digests")
            if self.first is not None and got != self.first[job["id"]]:
                problems.append("artifact digests differ from the first pass")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{label}/{job['id']}: " + "; ".join(problems))
            shutil.rmtree(out, ignore_errors=True)
        if self.first is None:
            self.first = found


def call_job(main, argv) -> int:
    """cli.main's exit code; an escaped exception or SystemExit is a failed
    job, not a failed run."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 -- the run records and counts it
        traceback.print_exc()
        return -1


def run_pass(cli, jobs, inputs: Path, out: Path, before=None):
    """Run the job list once, calling cli.main as looked up at each call.

    Returns (per-job (start, end) times, exit codes); before(job_id) runs
    ahead of each job, outside its time.
    """
    argvs = [[j["command"], "--config", j["config"], "--out", str(out / j["id"])]
             for j in jobs]
    spans, codes = [], []
    cwd = os.getcwd()
    os.chdir(inputs)
    try:
        for job, argv in zip(jobs, argvs):
            if before is not None:
                before(job["id"])
            t0 = time.perf_counter()
            codes.append(call_job(cli.main, argv))
            spans.append((t0, time.perf_counter()))
    finally:
        os.chdir(cwd)
    return spans, codes


def tail(values):
    """(value, percentile): the highest order statistic with at least ten
    values beyond it, and the percentile it sits at."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def same_tree(a: Path, b: Path) -> bool:
    fa = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    fb = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return fa == fb and all((a / p).read_bytes() == (b / p).read_bytes() for p in fa)


def environment() -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_files = sorted((SRC / "shrinktarget").glob("*.py"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit or None,
            "src_loc": sum(len(p.read_text().splitlines()) for p in src_files)}


def load_expected(workload: str, seed: int):
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def another_pass_fits(started: float, pass_walls: list, seconds: float) -> bool:
    return time.perf_counter() - started + statistics.median(pass_walls) <= seconds


def untraced(args, cli, work: Path, speed: HostSpeed):
    setups = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(work / f"setup{k}")],
                       check=True, timeout=120)
        setups.append((t0, time.perf_counter()))
    inputs = work / "setup0"
    jobs = json.loads((inputs / "jobs.json").read_text())["jobs"]
    run = Run(jobs, inputs, work, load_expected(args.workload, args.seed))
    if not all(same_tree(inputs, work / f"setup{k}") for k in range(1, SETUP_REPEATS)):
        run.problems.append("generator output differs between set-ups of one seed")
    passes = []
    started = time.perf_counter()
    while True:
        label = f"p{len(passes)}"
        spans, codes = run_pass(cli, jobs, inputs, work / label)
        passes.append(spans)
        run.check_pass(label, codes)
        if not another_pass_fits(started, [s[-1][1] - s[0][0] for s in passes], args.seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    job_s = [statistics.median(speed.corrected(*p[i]) for p in passes)
             for i in range(len(jobs))]
    tail_s, tail_pct = tail(job_s)
    metrics = {"setup_s": (statistics.median(t1 - t0 for t0, t1 in setups), "s"),
               "batch_s": (sum(job_s), "s"),
               "job_p50_s": (statistics.median(job_s), "s"),
               "job_tail_s": (tail_s, "s"),
               "peak_rss_mb": (rss_mb, "MB")}
    detail = {"passes": len(passes), "jobs": len(jobs), "job_tail_pct": tail_pct,
              "fail_ratio": run.failed / max(run.attempted, 1),
              "raw_setup_s": [t1 - t0 for t0, t1 in setups],
              "raw_pass_s": [s[-1][1] - s[0][0] for s in passes],
              "speed_samples": len(speed.cost)}
    return run, metrics, detail


def traced(args, cli, st, work: Path, speed: HostSpeed):
    from gen import generate
    setup = Tracer("setup")
    setup.install(st)
    try:
        setup.job = "setup"
        generate(args.workload, args.seed, work / "inputs")
    finally:
        setup.uninstall()
    inputs = work / "inputs"
    jobs = json.loads((inputs / "jobs.json").read_text())["jobs"]
    run = Run(jobs, inputs, work, load_expected(args.workload, args.seed))
    plain, traced_passes = [], []
    started = time.perf_counter()
    while True:
        label = f"p{len(plain) + len(traced_passes)}"
        if len(plain) <= len(traced_passes):
            spans, codes = run_pass(cli, jobs, inputs, work / label)
            plain.append(spans)
        else:
            tr = Tracer(label)
            tr.install(st)
            try:
                spans, codes = run_pass(cli, jobs, inputs, work / label,
                                        before=lambda job_id: setattr(tr, "job", job_id))
            finally:
                tr.uninstall()
            traced_passes.append((spans, tr, _inconclusive(work / label, jobs)))
        run.check_pass(label, codes)
        walls = [s[-1][1] - s[0][0] for s in plain + [t[0] for t in traced_passes]]
        if traced_passes and not another_pass_fits(started, walls, args.seconds):
            break
    counts = [_work_counts(tr) for _s, tr, _i in traced_passes]
    if any(c != counts[0] for c in counts):
        run.problems.append("work counts differ between traced passes")

    def batch(spans):
        return sum(speed.corrected(*s) for s in spans)
    ranked = sorted(traced_passes, key=lambda t: batch(t[0]))
    spans, tr, inconclusive = ranked[(len(ranked) - 1) // 2]
    layer = layer_metrics(tr, spans[-1][1] - spans[0][0], setup)
    layer["orbit.inconclusive"] = inconclusive
    # the first pass of a process also pays its warm-up
    baseline = plain[1:] or plain
    layer["trace.overhead_ratio"] = batch(spans) / statistics.median(batch(p) for p in baseline)
    with open(work.parent / f"{work.name}.spans.jsonl", "w") as fh:
        setup.write_jsonl(fh)
        for _s, t, _i in traced_passes:
            t.write_jsonl(fh)
    detail = {"passes_untraced": len(plain), "passes_traced": len(traced_passes),
              "fail_ratio": run.failed / max(run.attempted, 1)}
    return run, {k: (layer.get(k, 0.0), _unit(k)) for k in PER_LAYER}, detail


def _work_counts(tr):
    return [(s[0], s[1], s[5]) for s in tr.spans] + sorted(
        (name, tr.spans[p][1] if p >= 0 else None, calls)
        for (p, name), (calls, _busy) in tr.leaves.items())


def _inconclusive(out: Path, jobs) -> int:
    total = 0
    for j in jobs:
        census, window = out / j["id"] / "summary.json", out / j["id"] / "window_estimate.json"
        if census.exists():
            total += json.loads(census.read_text())["aggregates"]["inconclusive_total"]
        if window.exists():
            total += json.loads(window.read_text())["inconclusive"]
    return total


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shrinktarget benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("approx", "transfer", "census", "window"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record this run's artifact digests as the reference "
                         f"for --seed {DEFAULT_SEED} (untraced runs only)")
    args = ap.parse_args(argv)
    if not (SRC / "shrinktarget" / "cli.py").is_file():
        print(f"perfbench: no shrinktarget sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shrinktarget
    from shrinktarget import _scan, bestapprox, cli, construct, criteria, exact, orbit
    if Path(shrinktarget.__file__).resolve().parent != (SRC / "shrinktarget").resolve():
        print(f"perfbench: imported shrinktarget from {shrinktarget.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    st = {"cli": cli, "bestapprox": bestapprox, "criteria": criteria,
          "construct": construct, "orbit": orbit, "_scan": _scan, "exact": exact}

    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = RUNS / tag
    work.mkdir(parents=True)
    try:
        with HostSpeed() as speed:
            if args.trace:
                run, metrics, detail = traced(args, cli, st, work, speed)
            else:
                run, metrics, detail = untraced(args, cli, work, speed)
        if args.write_digests:
            _write_digests(args, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment(), "detail": detail,
              "problems": run.problems, "result": result}
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for p in run.problems:
        print("problem:", p)
    print("detail:", json.dumps(detail))
    print("env:", json.dumps(record["env"]))
    print(json.dumps(result))
    return 0


def _write_digests(args, run: Run) -> None:
    if args.seed != DEFAULT_SEED or args.trace or run.failed or run.problems:
        raise SystemExit("perfbench: digests are recorded only from a clean untraced "
                         f"--seed {DEFAULT_SEED} run")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[args.workload] = run.first
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
