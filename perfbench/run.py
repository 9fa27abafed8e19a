"""Benchmark of the aggtree command line, run the way users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Run from the root of a checkout; the program is the checkout's own ``src/``
(put on ``PYTHONPATH`` of every child), so nothing needs installing.

One client in a closed loop: each CLI call is a fresh interpreter
(``child.py``) started only after the previous one ended. The loop keeps
starting calls while the next one is expected to end within ``--seconds``,
and, untraced, until at least three calls were made. Before it, one untimed
process imports ``aggtree.cli`` to warm the file cache; import cost stays
inside ``setup_s`` because users pay it on every run.

End-to-end metrics (``--trace 0``), medians over the calls of the run:
``wall_s`` spawn to exit, ``setup_s`` spawn until ``main`` can be called,
``rows_per_s`` output rows over the time in ``main`` and ``peak_rss_mb``
from ``os.wait4`` on that child. ``--trace 1`` alternates untraced and
traced calls and reports the per-layer metrics of ``layers.py``.

Every output is checked (``check.py``); a call that exits nonzero or fails
its check counts in ``failed``. The last line of standard output is the
JSON result; a copy with the environment and every sample goes to
``.perfbench-out/``.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench-out"
MODELS = BENCH / "models"
CHILD_TIMEOUT_S = 150.0
IMPORTTIME_RUNS = 3
DEFAULT_SEED = 42  # the seed whose outputs expected.json records
MIN_CALLS = 3  # untraced, so that one slow call cannot move a run's median


@dataclass(frozen=True)
class Workload:
    model: str = ""
    algorithm: str = ""
    n: int = 0
    tiny_n: int = 0

    @property
    def sampling(self):
        return bool(self.model)

    def argv(self, seed, out_dir, n=None, grid=None):
        """The aggtree command line; ``n`` or ``grid`` shrink it for tests.

        Paths are relative to the checkout root, the children's directory.
        """
        out_dir = out_dir.relative_to(ROOT)
        if not self.sampling:
            extra = ["--rho-grid", grid] if grid else []
            return ["experiment", "exp-5.sym8", "--out-dir", str(out_dir / "sym8")] + extra
        model = (MODELS / self.model).relative_to(ROOT)
        return ["sample", str(model), "--algorithm", self.algorithm,
                "--n", str(n or self.n), "--seed", str(seed),
                "--out", str(out_dir / "sample.csv")]

    def outputs(self, out_dir):
        if self.sampling:
            return [out_dir / "sample.csv"]
        return [out_dir / "sym8" / "symmetric.csv", out_dir / "sym8" / "summary.txt"]


# Why each workload exists is recorded in BENCHMARK.json, which lists every
# one but sample-discrete: that one covers the same layers as sample-reorder,
# so it is left to runs by name, which keeps the recorded set to three
# workloads of 40 s. Sizes keep one call at 2-7 s on a 2-CPU machine, so that
# a run holds at least four calls and its medians are steady.
WORKLOADS = {
    "sample-reorder": Workload("four_leaf_normal.json", "reorder", n=200_000, tiny_n=2_000),
    "sample-discrete": Workload("six_leaf_discrete.json", "reorder", n=200_000, tiny_n=2_000),
    "sample-mra": Workload("four_leaf_normal.json", "mra", n=100, tiny_n=12),
    "extremal-sym8": Workload(),
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


# One BLAS thread: with two, OpenBLAS's spinning worker doubled the CPU time
# of extremal-sym8 on a 2-CPU machine, gained no wall time and made the
# calls' wall times spread more.
BLAS_THREADS = 1


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Call:
    rc: int
    wall_s: float
    setup_s: float = 0.0
    main_s: float = 0.0
    peak_rss_mb: float = 0.0
    spans: list = None
    missing: list = field(default_factory=list)
    digest: str = ""
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return self.rc == 0 and not self.problems


def spawn(argv, out_dir, trace):
    """Run one CLI call in a fresh interpreter and time it from the outside."""
    result_path = out_dir / "child.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), str(int(trace)),
           "--", *argv]
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    call = Call(rc=proc.returncode, wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024)
    if call.rc == 0:
        result = json.loads(result_path.read_text())
        call.setup_s = result["ready"] - start
        call.main_s = result["end"] - result["ready"]
        call.spans = result["spans"]
        call.missing = result["missing"]
    return call


def run_quiet(cmd):
    """Run a helper process to the end; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def environment(workload, argv):
    code, out, err = run_quiet([sys.executable, str(BENCH / "child.py"), "--env"])
    if code != 0:
        raise RuntimeError(f"cannot import aggtree.cli from {ROOT / 'src'}:\n{err}")
    env = json.loads(out)
    commit = None
    if (ROOT / ".git").exists():
        code, out, _ = run_quiet(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
        commit = out.strip() if code == 0 else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env.update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "argv": ["aggtree"] + argv,
    })
    return env


def check_outputs(name, work, out_dir, seed, n, grid):
    try:
        if work.sampling:
            return check.check_sample(name, out_dir / "sample.csv",
                                      MODELS / work.model, n, seed)
        return check.check_sym8(out_dir / "sym8", full_grid=grid is None)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def output_rows(work, out_dir, n):
    if work.sampling:
        return n
    return check.csv_rows(out_dir / "sym8" / "symmetric.csv")


def percentile_note(count):
    """The guide's rule: the highest percentile with >= 10 samples beyond it."""
    for pct in (99.9, 99, 95, 90, 75, 50):
        if count * (100 - pct) / 100 >= 10:
            return f"p{pct:g} reportable"
    return "no tail percentile (fewer than 20 samples)"


def measure(name, seed, seconds, trace, n=None, grid=None):
    """Run one workload for ``seconds``; returns the full result record."""
    work = WORKLOADS[name]
    n = n or work.n
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    argv = work.argv(seed, out_dir, n=n, grid=grid)
    env = environment(name, argv)  # also the untimed warm-up run

    imports = []
    if trace:
        for _ in range(IMPORTTIME_RUNS):
            code, _, err = run_quiet([sys.executable, "-X", "importtime", "-c",
                                      "import aggtree.cli"])
            if code == 0:
                imports.append(layers.import_times(err))

    plain, traced = [], []
    reference = None  # the first call that exited 0; its output is checked fully
    start = time.monotonic()
    min_calls = 1 if trace else MIN_CALLS
    round_s = 0.0  # the last round's length, taken as the next one's
    while len(plain) < min_calls or time.monotonic() - start + round_s <= seconds:
        round_start = time.monotonic()
        for calls in (plain, traced) if trace else (plain,):
            call = spawn(argv, out_dir, trace=calls is traced)
            calls.append(call)
            if call.rc != 0:
                continue
            try:
                call.digest = check.sha256(work.outputs(out_dir))
            except OSError as exc:
                call.problems = [f"output missing: {exc}"]
                continue
            if reference is None:
                reference = call
                call.problems = check_outputs(name, work, out_dir, seed, n, grid)
            elif call.digest != reference.digest:
                call.problems = ["output differs from the run's first call"]
            else:
                call.problems = reference.problems
        round_s = time.monotonic() - round_start

    calls = plain + traced
    # timings of every call that exited 0; a wrong output still counts in failed
    timed = [c for c in plain if c.rc == 0]
    failed = sum(not c.ok for c in calls)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "attempted": len(calls), "failed": failed,
        "fail_ratio": failed / len(calls),
        "problems": sorted({p for c in calls for p in c.problems}),
        "exit_codes": [c.rc for c in calls],
        "samples": {key: [getattr(c, key) for c in timed]
                    for key in ("wall_s", "setup_s", "main_s", "peak_rss_mb")},
        "metrics": {},
    }
    if not timed:
        return record
    rows = output_rows(work, out_dir, n)
    record["samples"]["rows_per_s"] = [rows / c.main_s for c in timed]
    if trace:
        record["metrics"] = traced_metrics(record, traced, imports, out_dir, work)
    else:
        record["metrics"] = {key: {"value": statistics.median(record["samples"][key]),
                                   "unit": unit}
                             for key, unit in END_TO_END.items()}
    return record


def traced_metrics(record, traced, imports, out_dir, work):
    timed = [c for c in traced if c.rc == 0]
    if not timed:
        return {}
    out_bytes = sum(path.stat().st_size for path in work.outputs(out_dir))
    per_call = []
    residuals = []
    for call in timed:
        metrics, residual = layers.call_metrics(call.spans, out_bytes)
        per_call.append(metrics)
        residuals.append(residual)
    for sample in imports:
        per_call.append(sample)
    values = {}
    for metrics in per_call:
        for key, value in metrics.items():
            values.setdefault(key, []).append(value)
    values["trace.overhead_s"] = [statistics.median(c.wall_s for c in timed)
                                  - statistics.median(record["samples"]["wall_s"])]
    record["self_time_residual_s"] = max(residuals, key=abs)
    record["self_times_s"] = layers.self_table(timed[-1].spans)
    record["missing_boundaries"] = timed[-1].missing
    return {key: {"value": statistics.median(values.get(key, [0])),
                  "unit": unit}
            for key, unit in layers.PER_LAYER.items()}


def report(record):
    """Human-readable lines, then the JSON result as the last line."""
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['attempted']} calls, "
          f"{record['failed']} failed, fail_ratio {record['fail_ratio']:g}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    count = len(record["samples"]["wall_s"])
    for key, metric in record["metrics"].items():
        note = f"median of {count}, {percentile_note(count)}" if key in END_TO_END else ""
        print(f"  {key:34s} {metric['value']:14.6g} {metric['unit']:6s} {note}")
    if "self_times_s" in record:
        print("  self time by span (last traced call): " + ", ".join(
            f"{k} {v:.4f}s" for k, v in record["self_times_s"].items()))
        print(f"  self times minus cli.main: {record['self_time_residual_s']:.3g} s")
        if record["missing_boundaries"]:
            print(f"  not traced, absent: {record['missing_boundaries']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    (OUT / f"{record['workload']}-trace{record['trace']}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0 and bool(record["metrics"]),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "aggtree" / "cli.py").is_file():
        print(f"error: no aggtree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        if not record["metrics"]:
            print(f"error: no call of {name} exited 0: {record['problems']} "
                  f"exit codes {record['exit_codes']}", file=sys.stderr)
            return 1
        report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
