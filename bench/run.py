"""Benchmark of the gslogic command: rank-width, MBQC simulation, C2MS checks.

Usage (from the repository root):

    python3 bench/run.py --workload {rankwidth,mbqc,logic} --seed N \
        --seconds S --trace {0,1}

Each query is one in-process ``gslogic.cli.main([..., "--format", "json"])``
call with stdout captured; a run repeats whole rounds of the workload's
queries (see workloads.py) until ``--seconds`` have passed and at least
MIN_ROUNDS rounds ran, then checks every output against oracles.py. All
times are reported in seconds at the reference speed, t * R0 / R, where R
is the time of refkernel.kernel measured around each query (SpeedMeter).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run alternates untraced and traced
rounds and reports the per-layer metrics of tracing.py, plus the tracing
overhead. Exit status 0 with a result; 2 when the program or the inputs
cannot be set up (no result is printed).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

sys.path.insert(0, str(HERE))

import refkernel  # noqa: E402
import test_oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2
TAIL_PERCENTILE = 75
SETUP_SPAWNS = 9
IMPORT_SPAWNS = 5


def fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import gslogic from this checkout's src/, and nowhere else."""
    if not (SRC / "gslogic" / "cli.py").is_file():
        fail(f"no gslogic package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gslogic
    import gslogic.cli

    if Path(gslogic.__file__).resolve().parent != (SRC / "gslogic").resolve():
        fail(f"imported gslogic from {gslogic.__file__}, not from {SRC}")
    return gslogic


def self_test_oracles() -> None:
    """Run test_oracles.py's hand-known cases; a broken oracle stops the run."""
    for name in sorted(dir(test_oracles)):
        if name.startswith("test_"):
            try:
                getattr(test_oracles, name)()
            except AssertionError as exc:
                fail(f"oracle self-test {name} failed: {exc}")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (no git)"
    return res.stdout.strip() or "unknown"


def _spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class SpeedMeter:
    """Reference-kernel timings taken just before and just after each timed
    operation, in run order.

    The host's speed drifts within a run, so an operation is normalised by
    the speed around it: R is the median of the six kernel timings next to
    it (its own two and those of its neighbours in run order).
    """

    def __init__(self):
        self.samples: list = []

    def around(self, fn) -> tuple:
        """Run ``fn`` between two kernel timings: (result, seconds, mark)."""
        mark = len(self.samples)
        self.samples.append(refkernel.time_kernel())
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self.samples.append(refkernel.time_kernel())
        return result, seconds, mark

    def scale(self, mark: int) -> float:
        """R0 / R at the operation whose first kernel timing is ``mark``."""
        return refkernel.R0_SECONDS / statistics.median(self.samples[max(0, mark - 2):mark + 4])

    def median(self) -> float:
        return statistics.median(self.samples)


# Run in each spawned interpreter: report when gslogic.cli is imported, then
# the interpreter's own reference-kernel time (the spawn may run on another
# CPU than this process, at another speed).
_SPAWN_CODE = """
import time
import gslogic.cli
done = time.perf_counter()
import statistics, refkernel
print(done, statistics.median(refkernel.time_kernel() for _ in range(5)))
"""


def time_spawns(count: int) -> tuple:
    """Seconds from spawning a fresh interpreter until it has imported
    gslogic.cli: raw, and at the reference speed."""
    argv = [sys.executable, "-c", _SPAWN_CODE]
    env = _spawn_env()
    env["PYTHONPATH"] += os.pathsep + str(HERE)
    raw, norm = [], []
    for i in range(count + 1):
        t0 = time.perf_counter()
        res = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=120)
        done, r = map(float, res.stdout.split())
        if i:  # the first spawn warms the file cache
            raw.append(done - t0)
            norm.append((done - t0) * refkernel.R0_SECONDS / r)
    return raw, norm


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(count: int) -> dict:
    """Median cumulative import seconds of gslogic and gslogic.dense, from
    ``python -X importtime``."""
    argv = [sys.executable, "-X", "importtime", "-c", "import gslogic.cli"]
    samples: dict = {"gslogic": [], "gslogic.dense": []}
    for _ in range(count):
        res = subprocess.run(argv, env=_spawn_env(), cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=120)
        for line in res.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    if not all(samples.values()):
        fail("python -X importtime did not report gslogic and gslogic.dense")
    return {name: statistics.median(vals) for name, vals in samples.items()}


class Runner:
    """Calls the CLI in-process, timing each call between kernel timings."""

    def __init__(self, main):
        self.main = main
        self.meter = SpeedMeter()

    def call(self, argv: list) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.main(argv)
        return code, out.getvalue(), err.getvalue()

    def timed_call(self, argv: list) -> tuple:
        """(exit code, stdout, stderr, seconds, kernel mark)."""
        (code, out, err), seconds, mark = self.meter.around(lambda: self.call(argv))
        return code, out, err, seconds, mark

    def rerun(self, argv: list) -> dict:
        code, out, err = self.call(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()}")
        return json.loads(out)


def run_rounds(runner: Runner, queries: list, seconds: float, tracer) -> dict:
    """Repeat whole rounds until ``seconds`` passed and MIN_ROUNDS ran.

    With a tracer, odd rounds are traced. Every time is recorded with its
    kernel mark, to be normalised once the run's kernel timings are in.
    """
    times: dict = {i: [] for i in range(len(queries))}  # untraced (seconds, mark)
    rounds_run: dict = {False: [], True: []}  # (seconds, mark) of each round's queries
    other = 0.0                # traced query seconds outside every span
    first: dict = {}           # query index -> stdout of its first call
    failures: dict = {}        # query index -> message of its first failure
    changed: set = set()       # queries whose output differed between rounds
    attempted = failed = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < MIN_ROUNDS * len(queries):
        traced = tracer is not None and len(rounds_run[False]) > len(rounds_run[True])
        if tracer is not None:
            tracer.enabled = traced
        this_round = []
        for i, q in enumerate(queries):
            gc.collect()
            if traced:
                tracer.top_level_seconds()
            code, out, err, t, mark = runner.timed_call(q.argv)
            attempted += 1
            this_round.append((t, mark))
            if traced:
                other += t - tracer.top_level_seconds()
            else:
                times[i].append((t, mark))
            if code != 0:
                failed += 1
                failures.setdefault(i, f"exit {code}: {err.strip()}")
            elif i not in first:
                first[i] = out
            elif out != first[i]:
                changed.add(i)
        rounds_run[traced].append(this_round)
    if tracer is not None:
        tracer.enabled = False
    return {"times": times, "rounds": rounds_run, "other": other,
            "first": first, "failures": failures, "changed": changed,
            "attempted": attempted, "failed": failed}


def check_outputs(runner: Runner, queries: list, first: dict) -> list:
    errors = []
    for i, q in enumerate(queries):
        if i not in first:
            continue
        try:
            found = q.check(json.loads(first[i]), runner.rerun)
        except (ValueError, KeyError, TypeError, RuntimeError) as exc:
            found = [f"unreadable output: {exc!r}"]
        errors.extend(f"{q.kind} query {i} ({' '.join(q.argv[:2])}): {e}" for e in found)
    return errors


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    gslogic = load_program()
    self_test_oracles()
    input_dir = RUNS / "inputs" / f"{args.workload}-{args.seed}"
    shutil.rmtree(input_dir, ignore_errors=True)
    queries = workloads.build(args.workload, args.seed, input_dir)
    runner = Runner(gslogic.cli.main)

    if args.trace:
        imports = import_times(IMPORT_SPAWNS)
    else:
        spawns = time_spawns(SETUP_SPAWNS)

    # warm up: the interpreter's specialisation, lazy imports, the kernel
    for q in queries[:3]:
        runner.call(q.argv)
    for _ in range(20):
        refkernel.time_kernel()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    result = run_rounds(runner, queries, args.seconds, tracer)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = check_outputs(runner, queries, result["first"])
    errors += [f"query {i}: output differs between rounds" for i in sorted(result["changed"])]
    for msg in errors[:20]:
        print(f"check failed: {msg}")
    for i, msg in sorted(result["failures"].items()):
        print(f"query failed: {queries[i].kind} {' '.join(queries[i].argv[:2])}: {msg}")
    failed = result["failed"]

    meter = runner.meter
    rounds = len(result["rounds"][False]) + len(result["rounds"][True])
    print(f"python {platform.python_version()}; commit {git_commit()}; "
          f"gslogic.kernel_backend() = {gslogic.kernel_backend()}")
    print(f"workload {args.workload}, seed {args.seed}: {len(queries)} queries a round, "
          f"{rounds} rounds, {result['attempted']} attempted, {failed} failed")
    print(f"reference kernel R = {meter.median() * 1e3:.4f} ms (median of "
          f"{len(meter.samples)}), R0 = {refkernel.R0_SECONDS * 1e3:.4f} ms")

    if args.trace:
        metrics = layer_metrics(tracer, result, meter, imports)
    else:
        metrics = end_to_end_metrics(result, meter, spawns, peak_rss_mb)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def quantiles(per_query: list) -> tuple:
    """Median and tail over the round's queries, each query taken at its
    median over the rounds.

    The tail is the mean of the five queries ranked nearest the 75th
    percentile: neighbouring queries there differ by about 10%, and a
    single order statistic moved by as much between runs.
    """
    ranked = sorted(per_query)
    at = round((len(ranked) - 1) * TAIL_PERCENTILE / 100)
    return statistics.median(ranked), statistics.mean(ranked[at - 2:at + 3])


def end_to_end_metrics(result: dict, meter: SpeedMeter, spawns: tuple,
                       peak_rss_mb: float) -> dict:
    times = result["times"].values()
    raw_p50, raw_tail = quantiles([statistics.median(t for t, _ in ts) for ts in times])
    p50, tail = quantiles([statistics.median(t * meter.scale(m) for t, m in ts) for ts in times])
    count = sum(len(ts) for ts in times)
    raw_loop = sum(t for ts in times for t, _ in ts)
    loop = sum(t * meter.scale(m) for ts in times for t, m in ts)
    raw_spawns, spawns = spawns
    print(f"raw seconds: query p50 {raw_p50:.6f}, p{TAIL_PERCENTILE} {raw_tail:.6f}, "
          f"{count} queries in {raw_loop:.3f}, setup {statistics.median(raw_spawns):.4f} "
          f"(spawns {', '.join(f'{s:.4f}' for s in raw_spawns)})")
    return {
        "setup_s": metric(statistics.median(spawns), "s"),
        "query_p50_s": metric(p50, "s"),
        "query_tail_s": metric(tail, "s"),
        "queries_per_s": metric(count / loop, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def layer_metrics(tracer, result: dict, meter: SpeedMeter, imports: dict) -> dict:
    """Per-layer seconds (at the run's median speed) and counts, per traced
    round; the overhead compares traced with untraced rounds."""
    traced_rounds = len(result["rounds"][True])
    scale = refkernel.R0_SECONDS / meter.median()
    per_round = scale / traced_rounds
    out = {
        "import.gslogic_s": metric(imports["gslogic"] * scale, "s"),
        "import.dense_s": metric(imports["gslogic.dense"] * scale, "s"),
        "cli.other_s": metric(result["other"] * per_round, "s"),
    }
    for name, key in tracing.LAYER_TIMES.items():
        out[name] = metric(tracer.inclusive[key] * per_round, "s")
    out["rankwidth.witness_s"] = metric(tracer.self_time["rankwidth.exact"] * per_round, "s")
    out["graphs.vertices"] = metric(tracer.counts["graphs.vertices"] / traced_rounds, "count")
    for name, key in tracing.LAYER_CALLS.items():
        out[name] = metric(tracer.calls[key] / traced_rounds, "count")

    def mean_round(traced: bool) -> float:
        rounds = result["rounds"][traced]
        return sum(t * meter.scale(m) for r in rounds for t, m in r) / len(rounds)

    plain, traced = mean_round(False), mean_round(True)
    out["trace.overhead_pct"] = metric((traced / plain - 1) * 100, "%")
    print(f"seconds a round at the reference speed: untraced {plain:.4f}, traced {traced:.4f}")
    return out


if __name__ == "__main__":
    sys.exit(main())
