"""Benchmark of the ssets command line, end to end and layer by layer.

    python3 bench/run.py --workload homology --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --compare before.jsonl after.jsonl

Each job is a real ``python -m ssets.cli --format structured ...``
subprocess run against this checkout's own ``src`` (via PYTHONPATH), so
two commits are each measured from their own tree with no install step.
One client runs one ``ssets`` process at a time in a closed loop.  Every
answer is checked against a known mathematical result (``workloads.py``).

A run writes the seeded inputs several times (``setup_s`` is the median),
then repeats passes over the workload's job list for ``--seconds``;
``wall_s`` and ``cpu_s`` are medians over passes, ``job_p50_ms`` over all
invocations.  Every job follows a run of a fixed reference workload, and
the end-to-end times are scaled by it (see REFERENCE below); the unscaled
times are printed and recorded beside them.  Per-layer span times are
unscaled.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one set-up and one pass
run under ``trace_shim.py``, and the tracing overhead: the median traced
pass minus the median untraced pass, the two kinds alternating.
``--out FILE`` appends the full record of the run (environment, seed,
passes, every job) to FILE as one JSON line; ``--compare`` reads two such
files and reports each end-to-end metric against the bounds in
BENCHMARK.json.  It only reports.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# A run sets up at least SETUPS_MIN times and, while under SETUP_BUDGET_S
# seconds, up to SETUPS_MAX times; setup_s is the median.
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 15, 3.0
JOB_CAP_S = 60.0  # a job running longer is killed and counted as failed

# Other tenants of a shared machine slow every process down by up to ~1.7x
# for seconds to minutes at a time, more than any bound a benchmark can keep.
# So a fixed pure-Python workload that does not touch ssets runs as its own
# process right before every job, and each job's times are scaled by
# REFERENCE_S / (that reference's time): seconds at the machine speed at which
# the reference takes REFERENCE_S.  Unscaled times are printed and recorded.
REFERENCE = (
    "d = {}\n"
    "for i in range(20000):\n"
    "    t = (i % 97, i % 89, (i * 7) % 101, str(i % 13))\n"
    "    d[t] = d.get(t, 0) + 1\n"
    "s = sorted(d.items())\n"
    "z = {k[0] for k in s}\n"
)
REFERENCE_S = 0.075
RUN_DEADLINE_S = 150.0  # no job starts later than this into a run


# -- one invocation ------------------------------------------------------------


@dataclass
class Raw:
    """What one child process did, before its answer is checked."""

    job: workloads.Job
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: Path
    stderr: Path
    killed: bool
    scale: float
    cpu_scale: float


@dataclass
class Outcome:
    name: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    failure: str | None
    scale: float  # REFERENCE_S over the wall time of the reference run before the job
    cpu_scale: float  # the same for CPU time


class Runner:
    """Starts ssets processes one at a time and counts attempts and failures."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.serial = 0
        self.attempted = 0
        self.failures: list[str] = []

    def spawn(self, argv: list[str], cap: float) -> tuple[int, float, float, float, Path, Path, bool]:
        """Run argv to completion; return exit code, wall, cpu, peak RSS and output files.

        The child is waited for without being reaped first (WNOWAIT), so the
        time-cap watchdog can never signal a reused pid; os.wait4 then reaps
        it and returns its own resource usage.
        """
        self.serial += 1
        out = self.work / "io" / f"{self.serial}.out"
        err = out.with_suffix(".err")
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(cap, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf_counter() - t0
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = ru.ru_utime + ru.ru_stime
        return proc.returncode, wall, cpu, ru.ru_maxrss / 1024.0, out, err, state["killed"]

    def reference(self) -> tuple[float, float]:
        """Wall and CPU seconds of one run of the reference workload."""
        argv = [sys.executable, "-S", "-c", REFERENCE]
        code, wall, cpu, *_ = self.spawn(argv, 100 * REFERENCE_S)
        if code != 0:
            raise RuntimeError(f"the reference workload exited {code}")
        return wall, max(cpu, 1e-3)

    def launch(self, job: workloads.Job, prefix: list[str]) -> Raw | None:
        if self.deadline - perf_counter() <= 0:
            return None
        ref_wall, ref_cpu = self.reference()
        remaining = self.deadline - perf_counter()
        argv = prefix + ["--format", "structured"] + job.args
        code, wall, cpu, rss, out, err, killed = self.spawn(argv, max(0.1, min(JOB_CAP_S, remaining)))
        return Raw(job, code, wall, cpu, rss, out, err, killed,
                   REFERENCE_S / ref_wall, REFERENCE_S / ref_cpu)

    def judge(self, job: workloads.Job, raw: Raw | None) -> Outcome:
        """Check one answer and count it."""
        self.attempted += 1
        if raw is None:
            failure = "not started: run deadline passed"
            outcome = Outcome(job.name, 0.0, 0.0, 0.0, -1, failure, 0.0, 0.0)
        else:
            failure = self._failure(raw)
            outcome = Outcome(job.name, raw.wall_s, raw.cpu_s, raw.rss_mb, raw.code, failure,
                              raw.scale, raw.cpu_scale)
        if failure:
            self.failures.append(f"{job.name}: {failure}")
        return outcome

    @staticmethod
    def _failure(raw: Raw) -> str | None:
        if raw.killed:
            return f"killed at the time cap after {raw.wall_s:.1f} s"
        try:
            doc = json.loads(raw.stdout.read_text())
        except ValueError:
            doc = None
        try:
            reason = raw.job.check(raw.code, doc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed answer: {exc!r}"
        if reason and raw.code not in (0, 1):
            tail = raw.stderr.read_text(errors="replace").strip().splitlines()[-1:]
            reason += f" ({tail[0]})" if tail else ""
        return reason


# -- passes and set-up -------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float  # unscaled; the jobs only, not the reference runs between them
    cpu_s: float
    scaled_wall_s: float
    scaled_cpu_s: float
    rss_mb: float
    outcomes: list[Outcome]
    traced: bool = False


def cli_prefix() -> list[str]:
    return [sys.executable, "-m", "ssets.cli"]


def traced_prefix(trace_dir: Path):
    """A prefix maker that gives every traced job its own trace file."""
    serial = itertools.count()

    def prefix() -> list[str]:
        path = trace_dir / f"{next(serial)}.json"
        return [sys.executable, str(BENCH / "trace_shim.py"), str(path)]

    return prefix


def run_jobs(runner: Runner, jobs: list[workloads.Job], prefix) -> Pass:
    """Run the jobs one after another, each after a reference run, then check them."""
    raws = [runner.launch(job, prefix()) for job in jobs]
    outcomes = [runner.judge(job, raw) for job, raw in zip(jobs, raws)]
    ran = [o for o in outcomes if o.code != -1]
    return Pass(
        sum(o.wall_s for o in ran),
        sum(o.cpu_s for o in ran),
        sum(o.wall_s * o.scale for o in ran),
        sum(o.cpu_s * o.cpu_scale for o in ran),
        max((o.rss_mb for o in ran), default=0.0),
        outcomes,
    )


def set_up(runner: Runner, w: workloads.Workload, inputs: Path, prefix) -> Pass:
    """Write the seeded tables and build the workload's presentations from scratch."""
    t0 = perf_counter()
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    for t in w.setup_tables:
        (inputs / f"{t.group.label}.table").write_text(t.text)
    tables_s = perf_counter() - t0
    p = run_jobs(runner, w.setup, prefix)
    p.wall_s += tables_s
    p.scaled_wall_s += tables_s * median([o.scale for o in p.outcomes if o.code != -1])
    return p


# -- metrics ------------------------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setups: list[Pass], passes: list[Pass], runner: Runner) -> dict:
    """The run's end-to-end metrics; every time is scaled by the reference runs."""
    job_walls = [o.wall_s * o.scale for p in passes for o in p.outcomes if o.code != -1]
    ok = runner.attempted - len(runner.failures)
    return {
        "wall_s": (median([p.scaled_wall_s for p in passes]), "s"),
        "cpu_s": (median([p.scaled_cpu_s for p in passes]), "s"),
        "job_p50_ms": (median(job_walls) * 1000.0, "ms"),
        "peak_rss_mb": (median([p.rss_mb for p in passes]), "MB"),
        "ok_ratio": (ok / runner.attempted, "1"),
        "setup_s": (median([s.scaled_wall_s for s in setups]), "s"),
    }


def read_traces(trace_dir: Path) -> tuple[dict, dict]:
    """Sum span durations, self times, maxima and calls per span name, and counters."""
    spans: dict[str, dict[str, float]] = {}
    counts: dict[str, float] = {}
    for path in sorted(trace_dir.glob("*.json")):
        doc = json.loads(path.read_text())
        child = [0.0] * len(doc["spans"])
        for name, parent, start, end in doc["spans"]:
            if parent >= 0:
                child[parent] += end - start
        for (name, parent, start, end), inner in zip(doc["spans"], child):
            s = spans.setdefault(name, {"total": 0.0, "self": 0.0, "max": 0.0, "calls": 0})
            s["total"] += end - start
            s["self"] += end - start - inner
            s["max"] = max(s["max"], end - start)
            s["calls"] += 1
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return spans, counts


def per_layer(spans: dict, counts: dict, import_ms: float, overhead_s: float) -> dict:
    def span(name, kind="total"):
        return spans.get(name, {}).get(kind, 0)

    def count(key):
        return counts.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "homology.snf_s": (span("homology.snf"), "s"),
        "homology.snf_max_s": (span("homology.snf", "max"), "s"),
        "homology.matrix_cells": (count("homology.matrix_cells"), "count"),
        "homology.matrix_nnz": (count("homology.matrix_nnz"), "count"),
        "homology.snf_rank": (count("homology.snf_rank"), "count"),
        "homology.complex_s": (span("homology.complex"), "s"),
        "kan.kan_check_s": (span("kan.kan_check"), "s"),
        "kan.horns_checked": (count("kan.horns_checked"), "count"),
        "kan.fill_s": (span("kan.fill"), "s"),
        "kan.fill_calls": (span("kan.fill", "calls"), "count"),
        "kan.candidates_scanned": (count("kan.candidates"), "count"),
        "kan.filler_yield": (ratio(count("kan.fillers"), count("kan.candidates")), "1"),
        "homotopy.witness_s": (span("homotopy.witness"), "s"),
        "homotopy.witness_calls": (span("homotopy.witness", "calls"), "count"),
        "homotopy.witness_yield": (
            ratio(count("homotopy.witness_found"), span("homotopy.witness", "calls")),
            "1",
        ),
        "homotopy.pi_self_s": (span("homotopy.pi", "self"), "s"),
        "homotopy.homotopic_s": (span("homotopy.homotopic"), "s"),
        "core.face_calls": (count("core.face_calls"), "count"),
        "core.degenerate_calls": (count("core.degenerate_calls"), "count"),
        "core.simplices_s": (span("core.simplices"), "s"),
        "core.simplices_built": (count("core.simplices_built"), "count"),
        "core.simplices_hit_ratio": (
            ratio(count("core.simplices_hits"), count("core.simplices_calls")),
            "1",
        ),
        "product.product_s": (span("product.product"), "s"),
        "product.cells": (count("product.cells"), "count"),
        "io.parse_s": (span("io.parse"), "s"),
        "io.parse_bytes": (count("io.parse_bytes"), "B"),
        "io.write_s": (span("io.write"), "s"),
        "io.write_bytes": (count("io.write_bytes"), "B"),
        "constructions.nerve_s": (span("constructions.nerve"), "s"),
        "constructions.nerve_generators": (count("constructions.nerve_generators"), "count"),
        "groups.table_s": (span("groups.table"), "s"),
        "report.s": (span("report"), "s"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_s": (span("cli.main"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def start_ms(runner: Runner, argv: list[str], repeats: int = 5) -> float:
    """Median wall time of a short interpreter command, in milliseconds."""
    walls = []
    for _ in range(repeats):
        code, wall, *_ = runner.spawn(argv, JOB_CAP_S)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv[1:])} exited {code}")
        walls.append(wall)
    return median(walls) * 1000.0


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(runner: Runner) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": commit(),
        "python_start_ms": start_ms(runner, [sys.executable, "-c", "pass"]),
        "python_start_no_site_ms": start_ms(runner, [sys.executable, "-S", "-c", "pass"]),
        "cpu_pinning": "none",
        "isolation": "none; machine settings were left as found",
    }


# -- a run ------------------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    trace: int
    seconds: int
    env: dict = field(default_factory=dict)
    setups: list[Pass] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def measure(args, work: Path) -> tuple[Run, Runner]:
    start = perf_counter()
    runner = Runner(work, start + RUN_DEADLINE_S)
    run = Run(args.workload, args.seed, args.trace, args.seconds)
    inputs, out = work / "inputs", work / "out"
    out.mkdir(parents=True)
    w = workloads.build(args.workload, args.seed, ROOT, str(inputs), str(out))
    run.env = environment(runner)
    # compiles the package's bytecode so that no timed step pays for it
    runner.spawn(cli_prefix() + ["--help"], JOB_CAP_S)

    def time_for(since: float, step_s: float) -> bool:
        """Whether one more step of step_s still ends within --seconds of since."""
        return perf_counter() - since + step_s <= args.seconds and perf_counter() < runner.deadline

    if not args.trace:
        t0 = perf_counter()
        while len(run.setups) < SETUPS_MIN or (
            len(run.setups) < SETUPS_MAX and perf_counter() - t0 < SETUP_BUDGET_S
        ):
            run.setups.append(set_up(runner, w, inputs, cli_prefix))
        t0 = perf_counter()
        took = []
        while True:
            start = perf_counter()
            run.passes.append(run_jobs(runner, w.jobs, cli_prefix))
            took.append(perf_counter() - start)
            if not time_for(t0, median(took)):
                break
        run.metrics = end_to_end(run.setups, run.passes, runner)
        return run, runner

    # The per-layer sample is one traced set-up and one traced pass.  Then
    # untraced and traced passes alternate for the rest of the run, and the
    # difference of their medians is the tracing overhead.
    trace_dir = work / "trace"
    trace_dir.mkdir()
    sample = traced_prefix(trace_dir)
    run.setups.append(set_up(runner, w, inputs, sample))
    traced = [run_jobs(runner, w.jobs, sample)]
    spans, counts = read_traces(trace_dir)
    spare = work / "spare.json"  # traces of the later passes are not kept

    def spare_prefix() -> list[str]:
        return [sys.executable, str(BENCH / "trace_shim.py"), str(spare)]

    untraced: list[Pass] = []
    t0 = perf_counter()
    took = []
    while True:
        start = perf_counter()
        untraced.append(run_jobs(runner, w.jobs, cli_prefix))
        traced.append(run_jobs(runner, w.jobs, spare_prefix))
        took.append(perf_counter() - start)
        if not time_for(t0, median(took)):
            break
    for p in traced:
        p.traced = True
    run.passes = untraced + traced
    overhead = median([p.scaled_wall_s for p in traced]) - median([p.scaled_wall_s for p in untraced])
    bare = start_ms(runner, [sys.executable, "-c", "pass"], 9)
    import_ms = start_ms(runner, [sys.executable, "-c", "import ssets.cli"], 9) - bare
    run.metrics = per_layer(spans, counts, import_ms, overhead)
    run.extra = {"spans": spans, "counts": counts}
    return run, runner


def report(run: Run, runner: Runner) -> dict:
    """Print the human-readable report; return the record of the run."""
    env = run.env
    print(f"ssets benchmark: workload {run.workload}, seed {run.seed}, trace {run.trace}, "
          f"{run.seconds} s, one client in a closed loop")
    print(f"environment: Python {env['python']}, nproc {env['nproc']}, {env['platform']}, "
          f"commit {env['commit']}, python -c pass {env['python_start_ms']:.1f} ms "
          f"(-S {env['python_start_no_site_ms']:.1f} ms), no CPU pinning or isolation")
    print("times below: unscaled, then scaled by the reference runs (the metrics)")
    for k, s in enumerate(run.setups, 1):
        print(f"setup {k}: {s.wall_s:.3f} s, scaled {s.scaled_wall_s:.3f} s")
    for k, p in enumerate(run.passes, 1):
        print(f"pass {k}{' (traced)' if p.traced else ''}: wall {p.wall_s:.3f} s, "
              f"cpu {p.cpu_s:.3f} s, scaled wall {p.scaled_wall_s:.3f} s, "
              f"scaled cpu {p.scaled_cpu_s:.3f} s, peak rss {p.rss_mb:.1f} MB, "
              f"{len(p.outcomes)} jobs")
    scales = [o.scale for p in run.passes for o in p.outcomes if o.code != -1]
    print(f"reference runs: median {REFERENCE_S / median(scales) * 1000:.1f} ms "
          f"(scale {median(scales):.3f}, nominal {REFERENCE_S * 1000:.0f} ms)")
    failed = len(runner.failures)
    print(f"invocations: {runner.attempted} attempted, {failed} failed, "
          f"failed_ratio {failed / runner.attempted:.4f}")
    for line in runner.failures:
        print(f"  FAILED {line}")
    job_count = sum(1 for p in run.passes for o in p.outcomes if o.code != -1)
    for name, (value, unit) in run.metrics.items():
        note = f"  (median of {job_count} invocations)" if name == "job_p50_ms" else ""
        print(f"  {name:32s} {value:>14.6g} {unit}{note}")
    return {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "seconds": run.seconds,
        "environment": env,
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
        "setups": [{"wall_s": s.wall_s, "scaled_wall_s": s.scaled_wall_s} for s in run.setups],
        "passes": [
            {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "scaled_wall_s": p.scaled_wall_s,
             "scaled_cpu_s": p.scaled_cpu_s, "peak_rss_mb": p.rss_mb, "traced": p.traced,
             "jobs": [o.__dict__ for o in p.outcomes]}
            for p in run.passes
        ],
        **run.extra,
    }


# -- compare mode ---------------------------------------------------------------------------


def _load_runs(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before: list[float], after: list[float], better: str, bound: float) -> str:
    """better / same / worse / unresolved for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = _quartiles(before)
    b1, bm, b3 = _quartiles(after)
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    worse_by = sign * (bm - am) / am if am else 0.0
    if better == "lower":
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if spread > bound:
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if sign * (am - bm) > a3 - a1:
        return "better"
    return "same"


def compare(before_path: str, after_path: str) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = _load_runs(before_path), _load_runs(after_path)
    for name in [w for w in before if w in after]:
        print(f"{name}: {len(before[name])} runs before, {len(after[name])} runs after")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in before[name]]
            b = [r["metrics"][m["name"]]["value"] for r in after[name]]
            a1, am, a3 = _quartiles(a)
            b1, bm, b3 = _quartiles(b)
            ratio = bm / am if am else float("nan")
            before_s = f"{am:.4g} [{a1:.4g}, {a3:.4g}]"
            after_s = f"{bm:.4g} [{b1:.4g}, {b3:.4g}]"
            print(f"  {m['name']:12s} {before_s:>26s} -> {after_s:<26s} {m['unit']:3s} "
                  f"x{ratio:.3f}  {verdict(a, b, m['better'], m['bound'])} (bound {m['bound']})")
    return 0


# -- entry point ------------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record of the run to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "ssets" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print("error: no ssets source tree (src/ssets, fixtures) next to bench/", file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run, runner = measure(args, work)
        record = report(run, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    failed = len(runner.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
