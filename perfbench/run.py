"""Closed-loop benchmark of the hdrflow command line.

One client sends seeded job documents to the program one at a time, in one
process and one thread: the next job starts only after the previous report
is rendered.  A job is what a user of the CLI pays for, the calls
`hdrflow.cli.run(RunConfig)` and `hdrflow.cli.render`: parse, compute,
re-check the certificate, render.  Every report is checked against the
answer its generator planted.  Interpreter start and the import of the
package are not part of a job; they are measured as `setup_s`.

On a shared host the speed of a CPU drifts by 20% and more, over periods
of seconds to minutes, as other tenants load it.  So a short pure-Python
calibration loop runs before every job, and each job's time is scaled by
how long the loop took around it (median of five neighbouring loops)
against the reference time REF_CAL_NS.  All end-to-end times are given at
that reference speed, and the raw wall-clock figures are printed next to
them.  The loop runs no code of the program, so a change to the program
shows in full.

    python3 perfbench/run.py --workload split --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
`src/`.  `--trace 0` measures the end-to-end metrics.  `--trace 1` measures
the per-layer metrics instead: it wraps the program's public functions from
outside (see tracing.py) on a fixed set of jobs, so the call counts repeat
exactly for a seed, and writes the spans to `perfbench/out/`.
`--workload all` runs the four workloads one after another, each in its own
process.  The last line of the output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import gen  # noqa: E402  (next to this file)
from check import UNDECIDED, check  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = tuple(gen.DECKS)
DEFAULT_SEED = 1
# p90 needs at least 10 samples beyond it
MIN_JOBS = 100
# no new deck starts after this much wall time, so a run ends well within
# 180 s even if the program gets much slower
HARD_CAP_S = 120.0
SETUP_PROCS = 7
# the calibration loop: CAL_ITERS additions take REF_CAL_NS at the
# reference speed, about the typical speed of a 2 vCPU Intel Xeon host
# running Python 3.11.7
CAL_ITERS, REF_CAL_NS = 10000, 750_000
# the CLI's own defaults for --guard-enum and --guard-iter
GUARD_ENUM, GUARD_ITER = 200000, 10


def calibrate() -> int:
    """Nanoseconds the calibration loop takes now."""
    t0 = perf_counter_ns()
    s = 0
    for i in range(CAL_ITERS):
        s += i * i
    return perf_counter_ns() - t0


def speed_scaled(raw, cal) -> list[float]:
    """raw[i] at the reference speed, judged by the calibration loops
    cal[i-2..i+2]; the median ignores a loop hit by a lone interrupt."""
    return [r * REF_CAL_NS / statistics.median(cal[max(0, i - 2):i + 3])
            for i, r in enumerate(raw)]


class Tally:
    """Latencies, outcomes and the report digest of a series of jobs."""

    def __init__(self):
        self.lat_ns: list[int] = []
        self.cal_ns: list[int] = []
        self.failed = 0
        self.undecided = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.digest_jobs = 0

    @property
    def jobs(self) -> int:
        return len(self.lat_ns)

    def scaled_ns(self) -> list[float]:
        return speed_scaled(self.lat_ns, self.cal_ns)

    def run(self, cli, job: gen.Job, in_digest: bool):
        cfg = cli.RunConfig(command=job.command, source=job.doc, p=None,
                            guard_enum=GUARD_ENUM, guard_iter=GUARD_ITER,
                            seed=0, fmt="json")
        gc.collect()  # start from a clean heap, as a fresh CLI process does
        self.cal_ns.append(calibrate())
        t0 = perf_counter_ns()
        try:
            report, code = cli.run(cfg)
            text = cli.render(report, "json")
        except Exception:  # a job that raises is a failed job
            self.lat_ns.append(perf_counter_ns() - t0)
            self._fail(job, traceback.format_exc(limit=-1).strip())
            return
        self.lat_ns.append(perf_counter_ns() - t0)
        if in_digest:
            self.digest.update(text.encode())
            self.digest_jobs += 1
        try:
            why = check(job.expect, code, text)
        except (KeyError, TypeError, ValueError) as e:
            why = f"unreadable report: {e!r}"
        if why is not None:
            self._fail(job, why)
        elif code == UNDECIDED:
            self.undecided += 1

    def _fail(self, job, why: str):
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{job.command} {job.doc[:120]}: {why}")


def measure_setup() -> tuple[float, float]:
    """Median time, scaled and raw, of a fresh interpreter importing
    hdrflow.cli, after one warm import so byte-code compilation is not
    counted."""
    cmd = [sys.executable, "-c",
           f"import sys; sys.path.insert(0, {str(SRC)!r}); import hdrflow.cli"]
    # the warm import must leave byte code behind even where the
    # environment asks Python not to write it
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)
    raw, cal = [], []
    for _ in range(SETUP_PROCS):
        cal.append(statistics.median(calibrate() for _ in range(5)))
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        raw.append(perf_counter() - t0)
    return (statistics.median(r * REF_CAL_NS / c for r, c in zip(raw, cal)),
            statistics.median(raw))


def import_cli():
    if not (SRC / "hdrflow" / "cli.py").is_file():
        sys.exit(f"run.py: no hdrflow sources at {SRC}; run it from the root "
                 f"of a source checkout")
    sys.path.insert(0, str(SRC))
    import hdrflow.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"run.py: hdrflow was imported from {cli.__file__}, "
                 f"not from {SRC}")
    return cli


def prefix_decks(deck_len: int) -> int:
    """The first decks that hold at least MIN_JOBS jobs: the digest covers
    them and the traced run runs exactly them."""
    return math.ceil(MIN_JOBS / deck_len)


def timed_run(cli, workload: str, seed: int, seconds: float) -> Tally:
    """Whole decks until the speed-scaled job time reaches `seconds` and
    MIN_JOBS jobs are done.  Whole decks keep the mix the same on every
    seed, and counting scaled time keeps the number of decks the same when
    the machine's speed drifts."""
    stream = gen.Stream(workload, seed)
    tally = Tally()
    start = perf_counter()
    k = 0
    while True:
        deck = stream.next_deck()
        for job in deck:
            tally.run(cli, job, in_digest=k < prefix_decks(len(deck)))
        k += 1
        if ((sum(tally.scaled_ns()) >= seconds * 1e9
             and tally.jobs >= MIN_JOBS)
                or perf_counter() - start >= HARD_CAP_S):
            return tally


def traced_run(cli, workload: str, seed: int):
    """The digest decks, each run once traced and once untraced.  The ratio
    of the two job times is the tracing overhead.  The order alternates from
    deck to deck, because a cache keyed by input would favour whichever run
    comes second.  Like a timed run, it starts no deck after HARD_CAP_S."""
    stream = gen.Stream(workload, seed)
    traced, plain, tracer = Tally(), Tally(), Tracer()
    start = perf_counter()
    k, n = 0, 1
    while k < n and perf_counter() - start < HARD_CAP_S:
        deck = stream.next_deck()
        n = prefix_decks(len(deck))
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if not on:
                for job in deck:
                    plain.run(cli, job, in_digest=False)
                continue
            tracer.install()
            try:
                for job in deck:
                    tracer.job = traced.jobs
                    traced.run(cli, job, in_digest=True)
            finally:
                tracer.uninstall()
        k += 1
    return traced, plain, tracer


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def emit(workload: str, seed: int, tallies, metrics: dict,
         notes: list[str]) -> int:
    """Print the notes, the failures, the digest of the first tally and the
    result line."""
    jobs = sum(t.jobs for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(f"workload {workload}, seed {seed}: {jobs} jobs in a closed loop "
          f"(1 client, 1 process, 1 thread)")
    for line in notes:
        print(line)
    for t in tallies:
        for line in t.failures:
            print(f"FAILED {line}")
    print(f"report_digest sha256:{tallies[0].digest.hexdigest()} over the "
          f"first {tallies[0].digest_jobs} reports")
    print(json.dumps({"correct": failed == 0, "attempted": jobs,
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(cli, workload: str, seed: int, seconds: float) -> int:
    setup, setup_raw = measure_setup()
    tally = timed_run(cli, workload, seed, seconds)
    n = tally.jobs
    rows = []
    for label, ns in (("", tally.scaled_ns()), ("raw ", tally.lat_ns)):
        lat_ms = [t / 1e6 for t in ns]
        rows.append([
            ("jobs_per_s", n / (sum(ns) / 1e9), "jobs/s",
             f"{label}{n} jobs in {sum(ns) / 1e9:.2f} s of job time"),
            ("latency_p50_ms", statistics.median(lat_ms), "ms",
             f"{label}{n} samples"),
            ("latency_p90_ms", statistics.quantiles(lat_ms, n=10)[8], "ms",
             f"{label}{n} samples, {n - math.ceil(0.9 * n)} beyond it")])
    scaled, raw = rows
    scaled += [
        ("decided_ratio", (n - tally.undecided) / n, "ratio",
         "1 - undecided_ratio"),
        ("setup_s", setup, "s", f"median of {SETUP_PROCS} fresh interpreters "
         f"importing hdrflow.cli"),
        ("peak_rss_mb", peak_rss_mb(), "MiB", "ru_maxrss of this process")]
    raw.append(("setup_s", setup_raw, "s", "raw wall clock"))
    notes = [f"{name} {value} {unit} ({about})"
             for name, value, unit, about in scaled]
    notes += [f"failed_ratio {tally.failed / n} failed/attempted "
              f"({tally.failed} of {n})",
              f"undecided_ratio {tally.undecided / n} undecided/attempted "
              f"({tally.undecided} of {n}; exit 3 is an answer, not a "
              f"failure)"]
    notes += [f"  {name} {value} {unit} ({about})"
              for name, value, unit, about in raw]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in scaled}
    return emit(workload, seed, [tally], metrics, notes)


def per_layer(cli, workload: str, seed: int) -> int:
    traced, plain, tracer = traced_run(cli, workload, seed)
    values = tracer.metrics()
    values["trace.overhead_ratio"] = (sum(traced.scaled_ns())
                                      / sum(plain.scaled_ns()))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-{seed}.json"
    tracer.write(path, workload=workload, seed=seed, jobs=traced.jobs)
    metrics = {}
    for name, value in values.items():
        unit = ("count" if name.endswith((".calls", ".cells")) else
                "s" if name.endswith("_s") else "ratio")
        metrics[name] = {"value": value, "unit": unit}
    notes = [f"{name} {m['value']} {m['unit']}" for name, m in metrics.items()]
    notes += [f"absent (reads 0): {name}" for name in tracer.absent]
    notes += ["self and total times are raw wall clock; the overhead ratio "
              "compares speed-scaled job times",
              "no layer queues work or retries it, so there is no wait time "
              "to report: every span is busy time",
              f"{len(tracer.spans)} spans written to "
              f"{path.relative_to(ROOT)}",
              f"the same {plain.jobs} jobs untraced are the reference for "
              f"trace.overhead_ratio"]
    return emit(workload, seed, [traced, plain], metrics, notes)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v
                                  for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="job time a timed run measures (whole decks)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = import_cli()
    if args.trace:
        return per_layer(cli, args.workload, args.seed)
    return end_to_end(cli, args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
