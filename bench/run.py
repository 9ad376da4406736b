"""Benchmark of the trendgram CLI: seeded inputs, timed commands, checked outputs.

    python3 bench/run.py --workload build|explore|render --seed N --seconds S --trace 0|1

Each workload is a closed loop: one client runs its script of `trendgram`
commands one child process at a time, as often as fits in `--seconds`,
and checks every output. The program is launched from the repository's
`src` as `python -c "from trendgram.cli import main; main()" ...` (by a
small launcher process, see `LAUNCHER`) and sees only the generated files.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; times in it are divided by the time of a probe
job run alongside (see `probe`). The lines before it are a
readable report with the times in seconds, per-command figures, input
sizes and output digests. With
`--trace 1` the same script runs in-process through `trendgram.cli.run`,
alternating untraced and traced passes (see `tracing.py`), and the JSON
holds the per-layer metrics. Everything is written under `.bench_work/`
in the repository root; the digests of each run stay there.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
PROGRAM = "from trendgram.cli import main; main()"

TIME_LIMIT = 170.0  # seconds a whole run may take; children are killed after it
SETUP_REPEATS = (3, 10)  # fewest and most set-ups in a run
SETUP_SECONDS = 2.0  # set up again while less time than this has been spent
MIN_PASSES = 2  # timed passes (traced: pairs of untraced and traced passes)
STARTUP_REPEATS = 5

# The probe: a fixed pure-Python job shaped like the program's own work
# (split text, count bigrams, write and re-read them as CSV into a dict),
# run in this process, which is idle while a command runs. On shared
# hosts the same command can take a third longer in one minute than in
# the next, in CPU time as much as in wall time. Dividing a command's time
# by the probe times just before and after it cancels most of that drift:
# `wall_probes`, `cpu_probes` and `command_p50_probes` are such ratios
# (unit: probe runs). `setup_s` must be in seconds, so each set-up's ratio
# is multiplied by PROBE_REFERENCE_S, about the median probe time on the
# 2-core VM this benchmark was written on: it is set-up seconds on a host
# where the probe takes that long. The report lines keep the seconds as
# measured.
PROBE_REFERENCE_S = 0.05
_PROBE_WORDS = [f"w{index}" for index in random.Random(0).choices(range(20000), k=15000)]


def probe():
    """(wall s, CPU s) of one run of the probe job."""
    gc.disable()
    start, cpu = time.perf_counter(), time.process_time()
    tokens = " ".join(_PROBE_WORDS).split()
    counts = Counter(zip(tokens, tokens[1:]))
    out = io.StringIO()
    csv.writer(out).writerows(sorted((f"{a} {b}", n) for (a, b), n in counts.items()))
    table = {}
    for ngram, count in csv.reader(io.StringIO(out.getvalue())):
        table[tuple(ngram.split(" "))] = int(count)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    gc.enable()
    return wall, cpu


END_TO_END_UNITS = {"setup_s": "s", "wall_probes": "probes", "cpu_probes": "probes",
                    "command_p50_probes": "probes", "peak_rss_mb": "MB"}


class SetupError(Exception):
    pass


@dataclass
class Result:
    argv: list
    wall: float
    code: int
    cpu: float  # user + system seconds of the child; 0 in-process
    rss_kb: int
    stdout: bytes = b""
    stderr: str = ""
    digest: str = ""


# ---------------------------------------------------------------------------
# running one command

def child_env():
    env = {key: value for key, value in os.environ.items() if key != "TRENDGRAM_STOPLIST"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# Runs in a small helper process, which starts each command and reports
# its rusage. A child's ru_maxrss includes the resident size of the
# process it was forked from, up to its exec; forked from this process,
# which holds the inputs, plans and results, every command would read at
# least this process's size.
LAUNCHER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    argv, cwd, stdout_path, stderr_path, timeout = json.loads(line)
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss]),
          flush=True)
"""


class Launcher:
    """The LAUNCHER process, which runs one command at a time and kills a
    command still running at `deadline` (a `time.monotonic()` value)."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        """Stop the launcher and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def spawn(self, code_argv, cwd, stdout_path, stderr_path):
        """Run `python -c ...` to completion; (wall s, exit code, CPU s, max RSS KiB).

        The child's own rusage comes from `os.wait4` in the launcher, so
        each command gets its own CPU time and peak RSS.
        """
        job = [[sys.executable, "-c", *code_argv], str(cwd), str(stdout_path), str(stderr_path),
               max(self.deadline - time.monotonic(), 0.0)]
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError(f"the launcher process exited {self.proc.wait()}")
        return tuple(json.loads(reply))


def in_process(run, argv, cwd, stdout_path, stderr_path):
    """Call `run(argv)` with cwd and standard streams as a child would have.

    An exception escaping the program is written to its stderr file and
    turned into exit status 1, as the interpreter would do for a child.
    """
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with open(stdout_path, "w", encoding="utf-8", newline="") as out, \
                open(stderr_path, "w", encoding="utf-8", newline="") as err, \
                redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = run(list(argv))
            except Exception:  # a program defect; reported as a failed command
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return wall, code, 0.0, 0


def tree_digest(base, paths):
    """sha256 over the names and bytes of files (directories recursively)."""
    digest = hashlib.sha256()
    for rel in paths:
        path = base / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(base)).encode() + b"\0")
            digest.update(file.read_bytes() if file.exists() else b"<missing>")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# set-up and passes

def set_up(workload, work, seed, sizes, launcher):
    """Generate the inputs (and records) several times, so that the
    median set-up time is steady even when one set-up is short.

    Returns (plan, [(set-up s, mean probe wall s just before and just
    after it)], the set of digests of what each repetition produced,
    which must hold one element)."""
    times, digests = [], set()
    fewest, most = SETUP_REPEATS
    (work / "log").mkdir(exist_ok=True)
    while len(times) < most and (len(times) < fewest or
                                 sum(elapsed for elapsed, _ in times) < SETUP_SECONDS):
        for sub in ("in", "setup"):
            shutil.rmtree(work / sub, ignore_errors=True)
        (work / "setup").mkdir(parents=True)
        before = probe()[0]
        start = time.perf_counter()
        plan = corpus.generate(seed, sizes, work / "in")
        for kind, argv, _ in workload.setup_commands:
            code = launcher.spawn([PROGRAM, *argv], work, work / "setup" / f"{kind}.stdout",
                                  work / "setup" / f"{kind}.stderr")[1]
            if code != 0:
                raise SetupError(f"set-up command {' '.join(argv)} exited {code}")
        elapsed = time.perf_counter() - start
        times.append((elapsed, (before + probe()[0]) / 2))
        digests.add(tree_digest(work, ("in", "setup")))
    return plan, times, digests


def run_pass(script, work, execute):
    """Run the script once; returns (wall s of the whole script, results).

    Outputs overwrite those of the previous pass, as a user re-running a
    command does; the catalog's index.html is digested, so a page left
    over from an earlier pass cannot pass for a new one. Dirty pages are
    flushed first: truncating a file whose pages are being written back
    waits for the disk, which made catalog times follow the host's disk
    load more than the program.
    """
    (work / "out").mkdir(exist_ok=True)
    os.sync()
    logs = work / "log"
    logs.mkdir(exist_ok=True)
    results = []
    start = time.perf_counter()
    for index, (_, argv, _) in enumerate(script):
        results.append(Result(argv, *execute(argv, logs / f"{index}.stdout",
                                             logs / f"{index}.stderr")))
    elapsed = time.perf_counter() - start
    for index, ((_, _, outputs), result) in enumerate(zip(script, results)):
        result.stdout = (logs / f"{index}.stdout").read_bytes()
        result.stderr = (logs / f"{index}.stderr").read_text(encoding="utf-8")
        result.digest = tree_digest(work, (f"log/{index}.stdout", *outputs))
    return elapsed, results


class Ledger:
    """Commands attempted and failed, plus the reference digests."""

    def __init__(self, workload, work, plan, setup_digests):
        self.workload, self.work, self.plan = workload, work, plan
        self.attempted = 0
        self.failed = 0
        self.setup_failed = len(setup_digests) != 1  # charged to the first command
        self.problems = ["set-up repetitions produced different bytes"] if self.setup_failed else []
        self.reference = None

    def record(self, label, results):
        """Check a pass: content checks on the first, digests on all."""
        bad = {index for index, result in enumerate(results) if result.code != 0}
        for index in sorted(bad):
            self.problems.append(f"{label}: {' '.join(results[index].argv)} exited "
                                 f"{results[index].code}: {results[index].stderr.strip()[-300:]}")
        if self.reference is None:
            self.reference = [result.digest for result in results]
            if not bad:
                try:
                    problems = self.workload.check(self.work, self.plan, results)
                except Exception as exc:  # outputs the checks cannot even read
                    problems = [(0, f"checking outputs raised {exc!r}")]
                for index, message in problems:
                    bad.add(index)
                    self.problems.append(f"{label}: {message}")
        for index, result in enumerate(results):
            if result.digest != self.reference[index]:
                bad.add(index)
                self.problems.append(f"{label}: outputs of {' '.join(result.argv)} changed")
        if self.setup_failed:
            bad.add(0)
            self.setup_failed = False
        self.attempted += len(results)
        self.failed += len(bad)

    def fail(self, label, message):
        """A problem found after a pass, charged to one of its commands."""
        self.problems.append(f"{label}: {message}")
        self.failed += 1


# ---------------------------------------------------------------------------
# the two kinds of run

def median(values):
    return statistics.median(values) if values else 0.0


def measure(workload, work, plan, ledger, setup_times, seconds, launcher,
            min_passes=MIN_PASSES):
    """Untraced closed loop of child processes; returns (metrics, report lines).

    The first pass warms the page and bytecode caches and is the one whose
    outputs are checked in full; it is not timed. The probe runs before
    every command of a timed pass and after its last one.
    """
    script = workload.script
    probes = []

    def execute(argv, stdout_path, stderr_path):
        probes.append(probe())
        return launcher.spawn([PROGRAM, *argv], work, stdout_path, stderr_path)

    _, results = run_pass(script, work, execute)
    ledger.record("warm-up pass", results)
    passes, measured = [], 0.0  # (pass wall, results, probes)
    while ((len(passes) < min_passes or measured < seconds)
           and time.monotonic() < launcher.deadline):
        probes = []
        elapsed, results = run_pass(script, work, execute)
        probes.append(probe())
        ledger.record(f"pass {len(passes) + 1}", results)
        passes.append((elapsed, results, probes))
        measured += elapsed

    def per_command(value):
        """Each command's median over passes of value(result, probe wall,
        probe CPU), with the probe times averaged over the runs just
        before and just after the command. A slow spell during one
        command then costs one sample, not a whole pass."""
        return [median([value(results[index],
                              (probes[index][0] + probes[index + 1][0]) / 2,
                              (probes[index][1] + probes[index + 1][1]) / 2)
                        for _, results, probes in passes])
                for index in range(len(script))]

    walls = per_command(lambda result, probe_wall, _: result.wall / probe_wall)
    raw_walls = per_command(lambda result, *_: result.wall)
    metrics = {
        "setup_s": median([elapsed * PROBE_REFERENCE_S / probe_wall
                           for elapsed, probe_wall in setup_times]),
        "wall_probes": sum(walls),
        "cpu_probes": sum(per_command(lambda result, _, probe_cpu: result.cpu / probe_cpu)),
        "command_p50_probes": median(walls),
        "peak_rss_mb": max((result.rss_kb for _, results, _ in passes for result in results),
                           default=0) / 1024,
    }
    probe_walls = [wall for _, _, probes in passes for wall, _ in probes]
    lines = [f"passes {len(passes)} of {len(script)} commands, measured {measured:.2f} s; "
             "pass walls " + " ".join(f"{elapsed:.3f}" for elapsed, _, _ in passes),
             f"setup_s is the median of {len(setup_times)} set-ups; not divided by the "
             "probe: " + " ".join(f"{elapsed:.3f}" for elapsed, _ in setup_times) + " s",
             f"probe {median(probe_walls):.4f} s (median of {len(probe_walls)}, "
             f"min {min(probe_walls):.4f} s, max {max(probe_walls):.4f} s)",
             f"wall_s {sum(raw_walls):.4f} s, "
             f"cpu_s {sum(per_command(lambda result, *_: result.cpu)):.4f} s, "
             f"command_p50_s {median(raw_walls):.4f} s (not divided by the probe)"]
    by_kind = {}
    for _, results, _ in passes:
        for (kind, _, _), result in zip(script, results):
            by_kind.setdefault(kind, []).append(result.wall)
    lines += [f"{kind}_s {median(values):.4f} s (median of {len(values)})"
              for kind, values in by_kind.items()]
    kind_s = {kind: median(values) for kind, values in by_kind.items()}
    if "extract" in kind_s:
        entries = sum(plan["entries"].values())
        lines.append(f"entries_per_s {entries / (kind_s['ingest'] + kind_s['extract']):.1f} 1/s "
                     f"({entries} input records / (ingest_s + extract_s))")
    if "catalog" in kind_s:
        plots = workloads.svg_count(work / "out/catalog") + workloads.svg_count(work / "out/demo")
        lines.append(f"plots_per_s {plots / (kind_s['catalog'] + kind_s['demo']):.1f} 1/s "
                     f"({plots} SVGs / (catalog_s + demo_s))")
    return metrics, lines


def measure_traced(workload, work, plan, ledger, seconds, launcher, min_passes=MIN_PASSES):
    """A child-process reference pass, then in-process untraced and traced
    passes in alternating order; returns (per-layer metrics, report lines,
    tracer)."""
    import trendgram.cli

    script = workload.script
    _, results = run_pass(script, work, lambda argv, out, err: launcher.spawn(
        [PROGRAM, *argv], work, out, err))
    ledger.record("child-process pass", results)

    tracer = tracing.Tracer()
    traced_run = tracer.span("cli.run", trendgram.cli.run)
    run_ids = []  # per traced pass, the run ids of its commands
    overheads, measured = [], 0.0

    def untraced(argv, out, err):
        return in_process(trendgram.cli.run, argv, work, out, err)

    def traced(argv, out, err):
        tracer.run_id += 1
        run_ids[-1].append(tracer.run_id)
        return in_process(traced_run, argv, work, out, err)

    while ((len(run_ids) < min_passes or measured < seconds)
           and time.monotonic() < launcher.deadline):
        walls = {}
        order = ("untraced", "traced") if len(run_ids) % 2 == 0 else ("traced", "untraced")
        run_ids.append([])
        for mode in order:
            if mode == "traced":
                with tracer.installed():
                    _, results = run_pass(script, work, traced)
            else:
                _, results = run_pass(script, work, untraced)
            ledger.record(f"{mode} pass {len(run_ids)}", results)
            walls[mode] = sum(result.wall for result in results)
            measured += walls[mode]
        overheads.append(walls["traced"] - walls["untraced"])

    counts = tracing.pass_counts(tracer, run_ids)
    for index, pass_counts in enumerate(counts):
        label = f"traced pass {index + 1}"
        if pass_counts != counts[0]:
            ledger.fail(label, "counts differ from those of traced pass 1")
        for problem in workloads.count_problems(work, plan, script, pass_counts[0]):
            ledger.fail(label, problem)
    metrics = tracing.layer_metrics(tracer, run_ids)
    metrics["cli.startup_s"] = startup_seconds(work, launcher)
    metrics["trace.overhead_s"] = median(overheads)
    totals = {layer: metrics[f"{layer}.self_s"] for layer in tracing.LAYERS if layer != "cli"}
    totals["cli"] = metrics["cli.run.self_s"]
    lines = [f"traced passes {len(run_ids)}, measured {measured:.2f} s",
             "layers by self time: " + ", ".join(
                 f"{layer} {value:.4f} s" for layer, value in
                 sorted(totals.items(), key=lambda item: -item[1]))]
    return metrics, lines, tracer


def startup_seconds(work, launcher):
    """Median wall time of a child that starts and imports trendgram.cli."""
    logs = work / "log"
    return median([launcher.spawn(["import trendgram.cli"], work, logs / "startup.stdout",
                                  logs / "startup.stderr")[0]
                   for _ in range(STARTUP_REPEATS)])


def unit_of(name):
    return END_TO_END_UNITS.get(name) or tracing.unit_of(name)


def input_sizes(plan, records):
    rows = sum(1 for _ in open(records, encoding="utf-8")) - 1 if records.exists() else 0
    entries = ", ".join(f"{fmt} {count}" for fmt, count in plan["entries"].items())
    exports = sum(plan["export_bytes"].values()) / 1e6
    mb = records.stat().st_size / 1e6 if records.exists() else 0.0
    return (f"inputs: entries {entries}; exports {exports:.2f} MB; "
            f"records.csv {rows} rows, {mb:.2f} MB")


# ---------------------------------------------------------------------------

def benchmark(name, seed, seconds, trace, scale=1.0, min_passes=None):
    """One run; returns (result dict, report lines, tracer or None)."""
    started = time.monotonic()
    workload = workloads.WORKLOADS[name]
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    try:
        with Launcher(started + TIME_LIMIT) as launcher:
            plan, setup_times, setup_digests = set_up(workload, work, seed,
                                                      workload.sizes(scale), launcher)
            ledger = Ledger(workload, work, plan, setup_digests)
            if trace:
                metrics, more, tracer = measure_traced(workload, work, plan, ledger, seconds,
                                                       launcher, min_passes or MIN_PASSES)
            else:
                metrics, more = measure(workload, work, plan, ledger, setup_times, seconds,
                                        launcher, min_passes or MIN_PASSES)
        records = work / (workloads.RECORDS if workload.setup_commands else "out/records.csv")
        lines = [f"workload {name}, seed {seed}", input_sizes(plan, records)] + more
        lines.append(f"failed_ratio {ledger.failed / max(ledger.attempted, 1):.4f} "
                     f"({ledger.failed} of {ledger.attempted} commands)")
        lines += [f"problem: {problem}" for problem in ledger.problems]
        digests = {"setup": sorted(setup_digests),
                   "commands": [[" ".join(argv), digest] for (_, argv, _), digest
                                in zip(workload.script, ledger.reference)]}
        lines += [f"digest setup {digest}" for digest in digests["setup"]]
        lines += [f"digest {digest} {command}" for command, digest in digests["commands"]]
        path = WORK_ROOT / "digests" / f"{name}-seed{seed}-trace{int(trace)}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines.append(f"run took {time.monotonic() - started:.1f} s")
    result = {
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)}
                    for key, value in sorted(metrics.items())},
    }
    return result, lines, tracer


def import_program():
    """Put the repository's src and tests on the path; False if absent."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    global corpus, tracing, workloads
    try:
        import trendgram.cli
        import oracle
    except ImportError as exc:
        print(f"error: cannot import the program or its test oracle: {exc}", file=sys.stderr)
        return False
    for module in (trendgram.cli, oracle):
        if not Path(module.__file__).resolve().is_relative_to(ROOT):
            print(f"error: {module.__name__} comes from {module.__file__}, not from {ROOT}",
                  file=sys.stderr)
            return False
    import corpus
    import tracing
    import workloads
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "explore", "render"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not import_program():
        return 2
    try:
        result, lines, _ = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
