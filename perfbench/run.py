"""hepbell benchmark: two workloads, end-to-end metrics, traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 7 --seconds 56 --trace 0

Workloads, each one closed-loop client running iterations back to back:

* ``pipeline``: ``generate`` (1e6 events, 2 workers, eta 0.9, background
  0.02), ``estimate`` and ``chtest`` as fresh ``python -m hepbell.cli``
  processes, the way a user runs the paper's measurement.  Most of its time
  is CSV write/read and the per-process ``derive_kappa``.
* ``analytic``: ``tripartite``, ``hardy``, ``hardy --optimize``,
  ``efficiency`` and ``kinematics`` as fresh processes.  No events; import
  time and the grid + golden-section searches dominate.

Every output is checked (report schema, exact values, 5-sigma agreement with
the closed-form CH prediction, event-file determinism); an operation that
exits nonzero, prints a traceback or fails a check counts as failed.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it holds the run
metadata, quartiles, sample counts and the error rate.

``--trace 1`` alternates untraced and traced iterations.  Traced ones run
each process through ``child.py``, which wraps hepbell's functions from the
outside; their spans give self times and call counts per layer.  Layers a
workload never calls read 0.  ``trace.overhead_s`` is the traced minus the
untraced median iteration time.
"""

from __future__ import annotations

import argparse
import hashlib
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
from importlib import metadata
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "hepbell" / "schemas" / "report.schema.json"

PIPELINE_EVENTS = 1_000_000
# sha256 prefix of the full-scale pipeline event file, by seed.
PIPELINE_SHA256 = {7: "69bda6de7d7f"}
# The paper's detector settings.
ETA = 0.9
BACKGROUND = 0.02
WORKERS = 2
DETECTOR_FLAGS = ["--eta1", str(ETA), "--eta2", str(ETA)]
# setup_s is the median of this many timed imports of hepbell.cli.
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 5
# No run lasts longer than this, whatever --seconds asks for.
HARD_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.generate_s": "s",
    "cli.estimate_s": "s",
    "cli.chtest_s": "s",
    "cli.tripartite_s": "s",
    "cli.hardy_optimize_s": "s",
    "cli.efficiency_s": "s",
    "cli.cpu_s": "s",
    "import.numpy_s": "s",
    "import.hepbell_s": "s",
    "mesonlab.write_events_csv.self_s": "s",
    "mesonlab.write_events_csv.mb_per_s": "MB/s",
    "mesonlab.read_events_csv.self_s": "s",
    "mesonlab.read_events_csv.mb_per_s": "MB/s",
    "mesonlab.derive_kappa.self_s": "s",
    "mesonlab.derive_kappa.cold_calls": "count",
    "qcore.born_probability.calls": "count",
    "qcore.born_probability.self_s": "s",
    "mesonlab.generate_events.self_s": "s",
    "mesonlab.invert_signal_cdf.self_s": "s",
    "mesonlab.peak_bytes_per_event": "B",
    "mesonlab.estimate_probability.self_s": "s",
    "mesonlab.ch_from_events.self_s": "s",
    "mesonlab.coincidence_fraction": "ratio",
    "spin1.maximize_violation.self_s": "s",
    "spin1.maximize_ch_vv.self_s": "s",
    "spin1.hardy_probabilities.self_s": "s",
    "search.objective_calls": "count",
    "qcore.eigenvector_for_eigenvalue.calls": "count",
    "qcore.eigenvector_for_eigenvalue.self_s": "s",
    "photon3.ch_value_3gamma.self_s": "s",
    "photon3.three_tangle.self_s": "s",
    "lhv.max_ch_3gamma_lhv.self_s": "s",
    "lhv.max_hardy_spin1_lhv.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Process:
    """One finished child process, measured by the benchmark."""

    returncode: int
    start_ns: int
    end_ns: int
    cpu_s: float
    peak_rss_bytes: int
    stdout: str
    stderr: str

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Iteration:
    """One pass of a workload: its operations, their costs and failures."""

    index: int
    wall_s: float = 0.0
    peak_rss_bytes: int = 0
    events: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    commands: dict[str, Process] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    def fail(self, errors: list[str]) -> bool:
        """Record one failed operation if ``errors``; True when there are none."""
        if errors:
            self.failed += 1
            self.failures += errors
        return not errors


class Runner:
    """Runs child processes in the run's work directory, killed at a deadline."""

    def __init__(self, work: Path, deadline_ns: int):
        self.work = work
        self.deadline_ns = deadline_ns
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, argv: list[str]) -> Process:
        """Run ``argv`` to completion.

        Peak RSS and CPU time come from this child's own ``wait4`` rusage;
        RUSAGE_CHILDREN would report the largest child seen so far.
        """
        timeout = max((self.deadline_ns - spans.now_ns()) / 1e9, 1.0)
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = spans.now_ns()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)

            def kill() -> None:
                try:  # a pidfd cannot signal a reused pid after the reap
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = spans.now_ns()
            except BaseException:  # interrupted: leave no child behind
                kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
                timer.join()
                os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Process(
            returncode=proc.returncode,
            start_ns=start,
            end_ns=end,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_bytes=usage.ru_maxrss * 1024,
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
        )


class Workload:
    """State shared by the iterations of one run."""

    def __init__(self, runner: Runner, seed: int, scale: float):
        self.runner = runner
        self.work = runner.work
        self.seed = seed
        self.scale = scale
        self.schema = json.loads(SCHEMA.read_text())
        self.first_sha256: str | None = None

    def events(self, full: int) -> int:
        return max(int(full * self.scale), 1000)

    def cli(self, it: Iteration, label: str, args: list[str], traced: bool) -> Process | None:
        """Run one CLI command as a fresh interpreter; None if it failed."""
        if traced:
            trace_path = self.work / f"spans-{label}.json"
            argv = [str(HERE / "child.py"), "--trace", str(trace_path),
                    "--iteration", str(it.index), *args]
        else:
            argv = ["-m", "hepbell.cli", *args]
        proc = self.runner.run([sys.executable, *argv])
        it.attempted += 1
        it.commands[label] = proc
        it.wall_s += proc.wall_s
        it.peak_rss_bytes = max(it.peak_rss_bytes, proc.peak_rss_bytes)
        if traced and trace_path.exists():
            _merge_spans(it, label, proc, json.loads(trace_path.read_text()))
            trace_path.unlink()
        tail = proc.stderr.strip()[-400:]
        if proc.returncode != 0:
            it.fail([f"{label}: exit code {proc.returncode}: {tail}"])
        elif "Traceback (most recent call last)" in proc.stderr:
            it.fail([f"{label}: traceback on stderr: {tail}"])
        else:
            return proc
        return None

    def report(self, it: Iteration, label: str, path: Path) -> dict | None:
        """The schema-valid report at ``path``, or None after recording a failure."""
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            it.fail([f"{label}: unreadable report: {exc}"])
            return None
        errors = checks.schema_errors(doc, self.schema)
        return doc if it.fail([f"{label}: schema: {e}" for e in errors[:3]]) else None


def _merge_spans(it: Iteration, label: str, proc: Process, traced: dict) -> None:
    """Add a span for the process and, under it, the spans it recorded."""
    command = len(it.spans)
    it.spans.append((f"process.{label}", proc.start_ns, proc.end_ns, -1, it.index))
    for name, start, end, parent, iteration in traced["spans"]:
        it.spans.append(
            (name, start, end, command if parent < 0 else parent + command + 1, iteration)
        )
    for name, value in traced["counters"].items():
        it.counters[name] = it.counters.get(name, 0) + value


def _unlink(*paths: Path) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def pipeline(w: Workload, it: Iteration, traced: bool) -> None:
    n = w.events(PIPELINE_EVENTS)
    csv_path = w.work / "events.csv"
    est_path, ch_path = w.work / "estimate.json", w.work / "chtest.json"
    _unlink(csv_path, est_path, ch_path)
    generate = [
        "generate", "--n", str(n), "--seed", str(w.seed), "--workers", str(WORKERS),
        *DETECTOR_FLAGS, "--background", str(BACKGROUND), "--out", str(csv_path),
    ]
    proc = w.cli(it, "generate", generate, traced)
    if proc is None:
        return
    it.events += n
    try:
        echo = json.loads(proc.stdout.strip().splitlines()[-1])
        data = csv_path.read_bytes()
    except (IndexError, OSError, ValueError) as exc:
        it.fail([f"generate: no event file or echo: {exc}"])
        return
    errors = [f"generate: schema: {e}" for e in checks.schema_errors(echo, w.schema)[:3]]
    rows = data.count(b"\n") - 1
    if rows != n:
        errors.append(f"generate: {rows} rows, expected {n}")
    digest = hashlib.sha256(data).hexdigest()
    w.first_sha256 = w.first_sha256 or digest
    recorded = PIPELINE_SHA256.get(w.seed) if w.scale == 1.0 else None
    if digest != w.first_sha256 or (recorded and not digest.startswith(recorded)):
        errors.append(f"generate: event file sha256 {digest[:12]} is not reproducible")
    # Every row ends ",d1,d2,bg\r\n", so these count the coincident rows.
    coincidences = data.count(b",1,1,0\r\n") + data.count(b",1,1,1\r\n")
    del data
    if not it.fail(errors):
        return

    estimate = ["estimate", "--events", str(csv_path), "--out", str(est_path)]
    if w.cli(it, "estimate", estimate, traced):
        doc = w.report(it, "estimate", est_path)
        if doc:
            it.fail(checks.check_estimate(doc, coincidences))
    chtest = ["chtest", "--events", str(csv_path), *DETECTOR_FLAGS, "--out", str(ch_path)]
    if w.cli(it, "chtest", chtest, traced):
        doc = w.report(it, "chtest", ch_path)
        if doc:
            window, settings = doc["config"]["bin_width"], doc["config"]["settings"]
            it.fail(checks.check_chtest(doc, ETA, BACKGROUND, window, settings))


ANALYTIC = (
    ("tripartite", ["tripartite"]),
    ("hardy", ["hardy"]),
    ("hardy_optimize", ["hardy", "--optimize"]),
    ("efficiency", ["efficiency"]),
    ("kinematics", ["kinematics"]),
)


def analytic(w: Workload, it: Iteration, traced: bool) -> None:
    for label, args in ANALYTIC:
        path = w.work / f"{label}.json"
        _unlink(path)
        if w.cli(it, label, args + ["--out", str(path)], traced):
            doc = w.report(it, label, path)
            if doc:
                it.fail(checks.check_analytic(label, doc))
            # The work items of this workload are the reports it produces.
            it.events += 1


WORKLOADS = {"pipeline": pipeline, "analytic": analytic}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(it: Iteration) -> dict[str, float]:
    """Per-layer values of one traced iteration (the import times excepted)."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), seconds in zip(it.spans, spans.self_times(it.spans)):
        self_s[name] = self_s.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + 1
    counts = it.counters
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.startswith("cli.") and name != "cli.cpu_s":
            proc = it.commands.get(name[len("cli."): -len("_s")])
            out[name] = proc.wall_s if proc else 0.0
    drawn = counts.get("events_drawn", 0)
    out.update({
        "cli.cpu_s": sum(p.cpu_s for p in it.commands.values()),
        "mesonlab.write_events_csv.mb_per_s": _ratio(
            counts.get("csv_bytes_written", 0) / 1e6, self_s.get("mesonlab.write_events_csv", 0)
        ),
        "mesonlab.read_events_csv.mb_per_s": _ratio(
            counts.get("csv_bytes_read", 0) / 1e6, self_s.get("mesonlab.read_events_csv", 0)
        ),
        "mesonlab.derive_kappa.cold_calls": counts.get("mesonlab.derive_kappa.cold_calls", 0),
        "mesonlab.peak_bytes_per_event": _ratio(it.peak_rss_bytes, drawn),
        "mesonlab.coincidence_fraction": _ratio(counts.get("events_coincident", 0), drawn),
        "search.objective_calls": counts.get("search.objective_calls", 0),
    })
    return out


def import_times(runner: Runner) -> dict[str, float]:
    """Median numpy and hepbell import times, from ``-X importtime``.

    hepbell's figure is the cumulative time of the ``hepbell`` and
    ``hepbell.cli`` imports less numpy's, so it holds hepbell's own modules,
    the stdlib modules they pull in and their module-level tables.
    """
    numpy_s, hepbell_s = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = runner.run([sys.executable, "-X", "importtime", "-c", "import hepbell.cli"])
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        numpy_s.append(cumulative.get("numpy", 0.0))
        hepbell_s.append(
            cumulative.get("hepbell", 0.0) + cumulative.get("hepbell.cli", 0.0) - numpy_s[-1]
        )
    return {
        "import.numpy_s": statistics.median(numpy_s),
        "import.hepbell_s": statistics.median(hepbell_s),
    }


def _git_commit() -> str | None:
    """HEAD's commit read from ``.git`` in the checkout, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(seed: int) -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg": os.getloadavg(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def measure(args: argparse.Namespace, runner: Runner) -> tuple[dict, int, int, dict]:
    """Run the workload for ``args.seconds``; (metrics, attempted, failed, detail)."""
    workload = Workload(runner, args.seed, args.scale)
    step = WORKLOADS[args.workload]
    attempted = failed = 0
    failures: list[str] = []
    setup: list[float] = []

    def time_setup() -> None:
        nonlocal attempted, failed
        proc = runner.run([sys.executable, "-c", "import hepbell.cli"])
        attempted += 1
        if proc.returncode != 0:
            failed += 1
            failures.append(f"setup: exit code {proc.returncode}: {proc.stderr[-400:]}")
        setup.append(proc.wall_s)

    if args.trace:
        imports = import_times(runner)

    untraced: list[Iteration] = []
    traced: list[Iteration] = []
    start = spans.now_ns()
    while True:
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        # Set-up samples are spread evenly over the run, so that their median
        # reflects the host's load during the whole run, not its first seconds.
        elapsed = (spans.now_ns() - start) / 1e9
        if not args.trace and len(setup) <= SETUP_REPEATS * elapsed / args.seconds:
            time_setup()
        it = Iteration(index=len(untraced) + len(traced))
        step(workload, it, trace_this)
        (traced if trace_this else untraced).append(it)
        attempted += it.attempted
        failed += it.failed
        failures += it.failures
        typical = statistics.median(i.wall_s for i in untraced + traced)
        now = spans.now_ns()
        if now + 1.5e9 * typical > runner.deadline_ns:
            break
        if (now - start) / 1e9 + 0.5 * typical >= args.seconds and (traced or not args.trace):
            break
    while not args.trace and len(setup) < SETUP_REPEATS:
        time_setup()

    ok = [i for i in untraced if not i.failed]
    wall = quartiles([i.wall_s for i in ok])
    detail = {
        "workload": args.workload,
        "iterations": len(untraced),
        "wall_s": wall,
        "per_command_s": {
            label: statistics.median(i.commands[label].wall_s for i in ok)
            for label in (ok[0].commands if ok else ())
        },
    }
    if args.trace:
        ok_traced = [i for i in traced if not i.failed]
        per_iteration = [layer_metrics(i) for i in ok_traced]
        metrics = {name: 0.0 for name in PER_LAYER}
        if per_iteration:
            metrics.update(
                {name: statistics.median(m[name] for m in per_iteration) for name in per_iteration[0]}
            )
        metrics.update(imports)
        traced_wall = quartiles([i.wall_s for i in ok_traced])
        metrics["trace.overhead_s"] = traced_wall["median"] - wall["median"]
        detail["traced_iterations"] = len(traced)
        detail["traced_wall_s"] = traced_wall
        units = PER_LAYER
    else:
        detail["setup_s"] = quartiles(setup)
        metrics = {
            "wall_s": wall["median"],
            "events_per_s": _ratio(ok[0].events, wall["median"]) if ok else 0.0,
            "peak_rss_mb": statistics.median(i.peak_rss_bytes / 1e6 for i in ok) if ok else 0.0,
            "setup_s": detail["setup_s"]["median"],
        }
        units = END_TO_END
    detail["error_rate"] = _ratio(failed, attempted)
    detail["failures"] = failures[:10]
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return metrics, attempted, failed, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every event count (the smoke test uses a small value)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "hepbell" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"perfbench: no hepbell sources under {SRC}", file=sys.stderr)
        return 2
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        meta = run_metadata(args.seed)
        runner = Runner(work, spans.now_ns() + int(HARD_LIMIT_S * 1e9))
        metrics, attempted, failed, detail = measure(args, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"perfbench": {**meta, **detail}}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
