"""Benchmark of the ncomplex command line: fresh-process runs of fixed workloads.

Run from the repository root:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all     # every workload, one summary table

The workloads are in ``workloads.py``; why each was chosen is recorded in
BENCHMARK.json. The loop is closed: one client and one ``python -m
ncomplex`` process at a time, ``--jobs`` left at 1. Each run starts a
fresh interpreter, so the lru caches fill inside the measured time, as
they do for every user.

On a shared 2-vCPU cloud VM the same run took up to twice as long in
some stretches as in others, in phases from seconds to minutes long, so a
raw wall time says more about the neighbours than about the code. The
benchmark therefore pins itself and its children to one CPU, and while
a child runs, a thread of the benchmark times a fixed 1-2 ms pure-Python
loop every ``PROBE_PERIOD_S``. The host speed over a run is the mean of
``CAL_REF_S`` / loop time over the samples taken during it; a time
multiplied by it is the time on the uncontended reference host. The probe
takes about 3% of the CPU from the child. With ``--trace 0`` the last line
reports the end-to-end metrics:

- ``wall_ref_s``: median wall time of one run, spawn to exit, rescaled by
  the host speed;
- ``peak_rss_mb``: median peak resident memory of the run's own process,
  read from its ``os.wait4`` rusage;
- ``setup_s``: median time from spawning an interpreter until
  ``ncomplex.cli`` is imported and its parser built, rescaled the same way.

The raw medians (``wall_s``, raw setup) are printed above the last line.

With ``--trace 1`` the command also runs once under ``traced_cli.py``, which
wraps the entry points of every module, and the last line reports the
per-layer self times and counts (see ``spans.py``).

Every run is checked: exit code, the sha256 of stdout against the digest
recorded for the default seed, and the paper's invariants. A failed check
or a timeout counts in ``failed``; ``failed_frac`` is failed / attempted.
An untimed preflight of three small commands runs first. Measurement is
per process only: no cache dropping and no whole-machine tracing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from spans import layer_metrics
from workloads import PREFLIGHT, WORKLOADS, verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
DEADLINE_S = 170.0          # per workload: a one-workload invocation ends inside 180 s
MIN_RUNS = 2                # timed runs per invocation, even past --seconds
SETUP_REPS = 9
SETUP_CODE = "import ncomplex.cli as c; c.build_parser(); print('ready', flush=True)"
PROBE_PERIOD_S = 0.05
# reference loop time on an uncontended 2-vCPU Xeon, Python 3.11; it only sets the unit
CAL_REF_S = 0.0014


def reference_loop() -> int:
    """Fixed work shaped like the sparse operators: tuple-keyed int dict updates."""
    acc: dict = {}
    for i in range(4000):
        k = (i % 97, (i * 7) % 13, i & 3)
        v = acc.get(k, 0) + i * 3 - (i >> 2)
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)
    return len(acc)


class HostSpeed:
    """Samples this CPU's speed relative to the reference host, in a background thread."""

    def __init__(self):
        self.samples: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _sample(self) -> float:
        t0 = time.perf_counter()
        reference_loop()
        return CAL_REF_S / (time.perf_counter() - t0)

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self.samples.append(self._sample())

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> float:
        """Mean speed over the samples taken after ``mark``: the work a run did per second."""
        taken = self.samples[mark:] or [self._sample()]
        return statistics.fmean(taken)

    def stop(self):
        self._stop.set()
        self._thread.join()


class Bench:
    """One benchmark invocation: its work directory, deadline, host speed and tallies."""

    def __init__(self, deadline_s: float):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})   # children inherit it
        self.work = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
        self.deadline = time.perf_counter() + deadline_s
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.speed = HostSpeed()

    def close(self):
        self.speed.stop()
        shutil.rmtree(self.work, ignore_errors=True)

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, argv):
        """Run one child to completion: (exit code or None on timeout, wall s, rusage, stdout)."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env)
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(max(self.remaining(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if timed_out.is_set():
            code = None
        stderr = err_path.read_text(errors="replace").strip()
        if stderr and code != 0:
            print(f"stderr of {' '.join(argv)}: {stderr[-2000:]}", file=sys.stderr)
        return code, wall, usage, out_path.read_text(errors="replace")

    def record(self, label, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def preflight(self):
        for args, want, check in PREFLIGHT:
            code, _, _, out = self.spawn(["-m", "ncomplex", *args])
            problems = [] if code == want else [f"exit code {code}, expected {want}"]
            self.record("preflight " + " ".join(args), problems + check(out))

    def setup_times(self):
        """Medians of the raw and the rescaled time from spawn until ncomplex.cli is ready."""
        raw, scaled = [], []
        for _ in range(SETUP_REPS):
            mark = self.speed.mark()
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                                    cwd=ROOT, env=self.env)
            line = proc.stdout.readline()
            raw.append(time.perf_counter() - t0)
            proc.stdout.close()
            proc.wait(timeout=max(self.remaining(), 1.0))
            if line.strip() != b"ready":
                raise RuntimeError("ncomplex.cli did not import")
            scaled.append(raw[-1] * self.speed.since(mark))
        return statistics.median(raw), statistics.median(scaled)

    def timed_runs(self, name, seed, seconds, min_runs):
        """Closed loop of untraced runs for about ``seconds``.

        Returns per-run raw walls, rescaled walls, host speeds, peak RSS and CPU.
        """
        workload = WORKLOADS[name]
        argv = ["-m", "ncomplex", *workload.args(seed)]
        walls, scaled, speeds, rss, cpu = [], [], [], [], []
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if walls:
                typical = statistics.median(walls)
                if len(walls) >= min_runs and elapsed + typical > seconds:
                    break
                if 2 * typical > self.remaining():
                    break
            mark = self.speed.mark()
            code, wall, usage, out = self.spawn(argv)
            speeds.append(self.speed.since(mark))
            self.record(f"{name} run {len(walls) + 1}", verdict(workload, seed, code, out))
            walls.append(wall)
            scaled.append(wall * speeds[-1])
            rss.append(usage.ru_maxrss / 1024)
            cpu.append(usage.ru_utime + usage.ru_stime)
        return walls, scaled, speeds, rss, cpu

    def traced_run(self, name, seed):
        """One run under the tracing shim: (wall s, host speed, per-layer metrics)."""
        workload = WORKLOADS[name]
        trace_path = self.work / "trace.json"
        mark = self.speed.mark()
        code, wall, _, out = self.spawn([str(TRACED_CLI), str(trace_path), "--",
                                         *workload.args(seed)])
        speed = self.speed.since(mark)
        ok = self.record(f"{name} traced run", verdict(workload, seed, code, out))
        if not ok or not trace_path.exists():
            return wall, speed, {}
        return wall, speed, layer_metrics(json.loads(trace_path.read_text()))


def unit_of(metric) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "bits" if metric.endswith("_bits") else "count"


def measure(bench: Bench, name, seed, seconds, trace):
    """Metrics of one workload, as {metric: (value, unit)}, and lines for people."""
    if not trace:
        setup_raw, setup = bench.setup_times()
        walls, scaled, speeds, rss, _ = bench.timed_runs(name, seed, seconds, MIN_RUNS)
        notes = [f"{len(walls)} timed runs, walls " + " ".join(f"{w:.3f}" for w in walls)
                 + " s, host speeds " + " ".join(f"{v:.2f}" for v in speeds),
                 f"{'wall_s (raw)':40s} {statistics.median(walls):>14.6g} s",
                 f"{'setup_s (raw)':40s} {setup_raw:>14.6g} s"]
        return {"wall_ref_s": (statistics.median(scaled), "s"),
                "peak_rss_mb": (statistics.median(rss), "MB"),
                "setup_s": (setup, "s")}, notes
    walls, scaled, speeds, _, cpu = bench.timed_runs(name, seed, seconds / 2, 1)
    traced_wall, traced_speed, layers = bench.traced_run(name, seed)
    out = {metric: (value, unit_of(metric)) for metric, value in layers.items()}
    out["process.wall_s"] = (statistics.median(walls), "s")
    out["process.cpu_s"] = (statistics.median(cpu), "s")
    out["process.host_speed"] = (statistics.median(speeds), "ratio")
    out["process.traced_wall_s"] = (traced_wall, "s")
    # rescaled, so that a change of host speed between the runs does not count
    out["trace.overhead_s"] = (traced_wall * traced_speed - statistics.median(scaled), "s")
    return out, [f"{len(walls)} untraced runs, one traced run"]


def metadata(seed) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = res.stdout.strip() or None
    sources = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    for p in sources:
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "commit": commit, "src_sha256": h.hexdigest(),
            "seed": seed, "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
            "note": "per-process measurement only: no cache dropping, no whole-machine tracing"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "ncomplex" / "cli.py").is_file():
        print(f"error: no ncomplex sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(json.dumps({"meta": metadata(args.seed)}))
    bench = Bench(DEADLINE_S * len(names))
    try:
        bench.preflight()
        print(f"preflight: {bench.failed} of {bench.attempted} checks failed")
        metrics = {}
        for name in names:
            attempted, failed = bench.attempted, bench.failed
            print(f"== {name}: " + " ".join(WORKLOADS[name].args(args.seed)))
            measured, notes = measure(bench, name, args.seed, args.seconds, args.trace)
            print("\n".join(notes))
            for metric, (value, unit) in measured.items():
                print(f"{metric:40s} {value:>14.6g} {unit}")
                key = metric if len(names) == 1 else f"{name}.{metric}"
                metrics[key] = {"value": value, "unit": unit}
            attempted, failed = bench.attempted - attempted, bench.failed - failed
            print(f"{'failed_frac':40s} {failed / attempted:>14.6g} ({failed} of {attempted} runs)")
    finally:
        bench.close()
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
