"""Benchmark of wcifano: the survey, hypersurface and screen workloads.

Run from the root of a source checkout; the program is taken from
./src, never from an installed copy:

    python3 bench/run.py --workload survey --seed 1 --seconds 25 --trace 0

One client process drives the program in a closed loop: each operation
starts after the previous one ended.  Every operation is a process of
its own, so wall time includes interpreter start and imports.  A run
measures set-up time first, then starts passes over the workload's
operations until --seconds have passed, and checks every output against the
digests of the seed code in bench/expected.json.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of the workload; --trace 1 reports the per-layer metrics
(bench/layers.py) and the tracing overhead of every workload.  --smoke
shrinks every input so that a run takes seconds; its numbers are not
measurements.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from corpus import Rng, screen_pool, screen_sample
from tracing import Speed, pinned, span

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("survey", "hypersurface", "screen")

# (n, index, k, cap) of each slice, and the smaller caps of --smoke.
SLICES = {
    "n5i1k3c20": (5, 1, 3, 20),
    "n6i1k4c20": (6, 1, 4, 20),
    "n3i1k1c100": (3, 1, 1, 100),
    "n4i1k1c30": (4, 1, 1, 30),
}
SMOKE_CAPS = {"n5i1k3c20": 8, "n6i1k4c20": 7, "n3i1k1c100": 20, "n4i1k1c30": 10}
SURVEY_SLICES = ("n5i1k3c20", "n6i1k4c20")

SETUP_ARGS = ("check", "--weights", "1,1,1,2,3", "--degrees", "6")
# Set-up is timed SETUP_REPEATS times before the first pass and once
# after every pass, so its median spans the whole run.
SETUP_REPEATS = 5
# Known defect: trial division up to sqrt(1e18) never finishes.  The probe
# runs once per screen run under a fixed timeout; a timeout is one failed
# operation, kept out of wall_s.
PROBE_ARGS = (
    "check",
    "--weights",
    "1,1,1,1000000000000000003",
    "--degrees",
    "2000000000000000006",
)
PROBE_TIMEOUT_S = 2.5
OP_TIMEOUT_S = 120.0
# No operation may run past this many seconds after the start, so that a
# hang still lets the run end, with a result, within 180 s.
RUN_DEADLINE_S = 170.0
SCREEN_SIZES = {False: (3000, 120), True: (40, 3)}


def slice_query(label: str, smoke: bool) -> tuple[int, int, int, int]:
    n, index, k, cap = SLICES[label]
    return n, index, k, SMOKE_CAPS[label] if smoke else cap


def enumerate_args(label: str, workers: int, smoke: bool) -> tuple[str, ...]:
    n, index, k, cap = slice_query(label, smoke)
    return (
        "enumerate", "--dim", str(n), "--index", str(index), "--codim", str(k),
        "--max-weight", str(cap), "--workers", str(workers),
    )


def workload_ops(workload: str, smoke: bool) -> list[tuple[str, ...]]:
    """The CLI operations of one pass, before the seed orders them."""
    if workload == "survey":
        return [enumerate_args(label, workers, smoke) for label, workers in zip(SURVEY_SLICES, (1, 2))]
    if workload == "hypersurface":
        verify = ("verify", "--case", "hypersurface")
        if smoke:
            verify += ("--dim", "3..4", "--max-weight", "20")
        return [enumerate_args("n3i1k1c100", 1, smoke), enumerate_args("n4i1k1c30", 1, smoke), verify]
    return []


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_kb: int
    exit: int | None
    stdout: bytes
    stderr: bytes
    timed_out: bool
    scale: float = 1.0


def run_process(argv, env, cwd: Path, tmp: Path, timeout: float, cpus=None) -> Proc:
    """Run one process to its end, on ``cpus`` if given, and measure it.

    The process gets a session of its own so that a timeout kills its
    workers too.  Resource usage comes from wait4, which on Linux covers
    the process and every descendant it waited for: CPU is user + system
    time, RSS the peak of the largest of them.
    """
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        # The child inherits the affinity it is forked with.
        with pinned(cpus) if cpus else nullcontext():
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=env, cwd=cwd, start_new_session=True,
            )
        timed_out = threading.Event()
        finished = threading.Event()

        def kill():
            if not finished.is_set():
                timed_out.set()
                os.killpg(proc.pid, signal.SIGKILL)

        # The child stays a zombie until wait4 reaps it, so its process
        # group id cannot be reused while the timer may still fire.
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        finally:
            finished.set()
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            _kill_group(proc.pid)
    return Proc(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        exit=None if timed_out.is_set() else proc.returncode,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
        timed_out=timed_out.is_set(),
    )


def _kill_group(pgid: int) -> None:
    """Kill what is left of a reaped leader's group and wait until it is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


@dataclass
class Tally:
    """Attempts of operations, and which operations ever failed.

    An operation is one CLI call with its arguments or one screen tuple;
    a pass attempts each again.  The result's attempted and failed, and
    ok_frac, count operations, not attempts, so they do not depend on how
    many passes fit into a run: an operation fails if any attempt failed.
    """

    attempts: int = 0
    wrong: int = 0
    ops: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, op, failed: bool, wrong: bool = False, note: str | None = None) -> None:
        self.attempts += 1
        self.wrong += wrong
        self.ops[op] = self.ops.get(op, False) or failed
        if note:
            self.note(note)

    def note(self, note: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(note)

    def attempted(self) -> int:
        return len(self.ops)

    def failed(self) -> int:
        return sum(self.ops.values())

    def ok_frac(self) -> float:
        return 1 - self.failed() / self.attempted()


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    raw_wall: float = 0.0
    raw_cpu: float = 0.0

    def add(self, proc: Proc) -> None:
        self.wall += proc.wall * proc.scale
        self.cpu += proc.cpu * proc.scale
        self.raw_wall += proc.wall
        self.raw_cpu += proc.cpu
        self.rss_kb = max(self.rss_kb, proc.rss_kb)


class Bench:
    def __init__(self, root: Path, seed: int, smoke: bool, tmp: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.seed = seed
        self.smoke = smoke
        self.tmp = tmp
        self.python = sys.executable
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.tally = Tally()
        self.screen_items = None
        self.raw = None
        self.all_cpus = frozenset(os.sched_getaffinity(0))
        # Single-process operations run on the last CPU, away from CPU 0.
        self.one_cpu = frozenset({max(self.all_cpus)})
        self.speed = Speed(self.all_cpus)

    def run(self, argv, timeout: float = OP_TIMEOUT_S, cpus=None, traced: bool = False) -> Proc:
        """Run a process; with ``cpus``, pin it there and set its scale.

        If ``traced``, the process runs inside a span and its wall time is
        the span's.
        """
        timeout = max(min(timeout, self.deadline - time.monotonic()), 0.1)
        with span(" ".join(argv[1:])) if traced else nullcontext() as record:
            proc = run_process(argv, self.env, self.root, self.tmp, timeout, cpus)
        if record is not None:
            proc.wall = (record["end"] - record["start"]) * 1e-9
        if cpus is not None:
            proc.scale = self.speed.scale(cpus)
        return proc

    def cli(self, args, timeout: float = OP_TIMEOUT_S, traced: bool = False) -> Proc:
        """Run `python3 -m wcifano ARGS` and check exit code and stdout digest."""
        key = " ".join(args)
        cpus = self.all_cpus if workers_of(args) > 1 else self.one_cpu
        proc = self.run([self.python, "-m", "wcifano", *args], timeout, cpus, traced)
        want = self.expected["cli"][key]
        if proc.timed_out:
            self.tally.add(key, True, False, f"timeout after {proc.wall:.1f} s: {key}")
        elif proc.exit != want["exit"] or sha256(proc.stdout) != want["stdout_sha256"]:
            tail = proc.stderr.decode(errors="replace").strip()[-300:]
            self.tally.add(key, True, True, f"wrong output (exit {proc.exit}): {key}: {tail}")
        else:
            self.tally.add(key, False)
        return proc

    def setup_times(self) -> list[float]:
        return [self.cli(SETUP_ARGS) for _ in range(SETUP_REPEATS)]

    def screen_corpus(self) -> list[tuple[str, int]]:
        """Write the seeded screen sample to a file once; return its pool keys."""
        if self.screen_items is None:
            small, large = screen_pool()
            small_idx, large_idx = screen_sample(self.seed, *SCREEN_SIZES[self.smoke])
            items = [("small", i) for i in small_idx] + [("large", i) for i in large_idx]
            pools = {"small": small, "large": large}
            with open(self.tmp / "screen_corpus.txt", "w") as fh:
                for band, i in items:
                    weights, degrees = pools[band][i]
                    fh.write(f"{band} {','.join(map(str, weights))};{','.join(map(str, degrees))}\n")
            self.screen_items = items
        return self.screen_items

    def screen_op(self, traced: bool) -> Proc:
        """One screen pass; each corpus line is one operation."""
        items = self.screen_corpus()
        argv = [self.python, str(BENCH / "screen_pass.py"), str(self.tmp / "screen_corpus.txt")]
        proc = self.run(argv, cpus=self.one_cpu, traced=traced)
        lines = proc.stdout.decode(errors="replace").splitlines() if proc.exit == 0 else []
        digests = self.expected["screen"]
        failed = wrong = 0
        for j, (band, i) in enumerate(items):
            missing = j >= len(lines)
            bad = not missing and line_digest(lines[j]) != digests[band][i]
            self.tally.add((band, i), missing or bad, bad)
            failed += missing or bad
            wrong += bad
        if len(lines) > len(items):
            self.tally.add("screen pass: extra lines", True, True)
            failed += 1
            wrong += 1
        if failed:
            tail = proc.stderr.decode(errors="replace").strip()[-300:]
            self.tally.note(f"screen pass: {failed} of {len(items)} lines failed, {wrong} wrong "
                            f"(exit {proc.exit}): {tail}")
        return proc

    def run_pass(self, workload: str, ops, traced: bool = False) -> PassResult:
        """One pass; if ``traced``, one span per operation gives its wall time."""
        result = PassResult()
        if workload == "screen":
            result.add(self.screen_op(traced))
            return result
        for args in ops:
            result.add(self.cli(args, traced=traced))
        return result

    def ordered_ops(self, workload: str):
        """The slice set is fixed; the seed fixes the order of a pass."""
        return Rng(self.seed).shuffle(workload_ops(workload, self.smoke))

    def measure(self, workload: str, seconds: float) -> dict:
        setup = self.setup_times()
        ops = self.ordered_ops(workload)
        passes: list[PassResult] = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(workload, ops))
            setup.append(self.cli(SETUP_ARGS))
            elapsed = time.perf_counter() - start
            if self.smoke or elapsed >= seconds or time.monotonic() > self.deadline:
                break
        if workload == "screen":
            self.cli(PROBE_ARGS, timeout=PROBE_TIMEOUT_S)
        self.raw = {
            "wall_s": statistics.median(p.raw_wall for p in passes),
            "cpu_s": statistics.median(p.raw_cpu for p in passes),
            "setup_s": statistics.median(p.wall for p in setup),
        }
        print(f"{len(passes)} passes, {self.tally.attempts} attempts; "
              f"unscaled medians {json.dumps(self.raw)}", file=sys.stderr)
        return {
            "wall_s": (statistics.median(p.wall for p in passes), "s"),
            "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p.rss_kb for p in passes) / 1024, "MB"),
            "setup_s": (statistics.median(p.wall * p.scale for p in setup), "s"),
            "ok_frac": (self.tally.ok_frac(), "ratio"),
        }

    def traced(self) -> dict:
        metrics = {}
        for workload in WORKLOADS:
            ops = self.ordered_ops(workload)
            plain = self.run_pass(workload, ops)
            traced = self.run_pass(workload, ops, traced=True)
            metrics[f"trace.overhead_s.{workload}"] = (traced.wall - plain.wall, "s")
        # layers.py pins and scales each of its batches itself.
        argv = [self.python, str(BENCH / "layers.py"), "--seed", str(self.seed)]
        if self.smoke:
            argv.append("--smoke")
        proc = self.run(argv, RUN_DEADLINE_S)
        if proc.exit != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-600:]
            self.tally.add("layers", True, False, f"layers.py failed (exit {proc.exit}): {tail}")
            return metrics
        report = json.loads(proc.stdout.decode().splitlines()[-1])
        mismatches = report["mismatches"]
        self.tally.add("layers", bool(mismatches), bool(mismatches), "; ".join(mismatches) or None)
        metrics.update({name: tuple(value) for name, value in report["metrics"].items()})
        return metrics


def workers_of(args) -> int:
    return int(args[args.index("--workers") + 1]) if "--workers" in args else 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def slice_key(query) -> str:
    return ",".join(map(str, query))


def survivors_sha256(result) -> str:
    """Digest of an EnumerationResult's survivors, in their order."""
    listing = [[list(c.weights), list(c.degrees)] for c in result.survivors]
    return sha256(json.dumps(listing).encode())


def line_digest(line: str) -> str:
    """Digest of one screen output line, as stored in expected.json."""
    return sha256(line.encode())[:12]


def stamp(root: Path, load_before) -> dict:
    """Machine, interpreter and source identity of a result."""
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def declared_metrics(root: Path, trace: bool) -> dict[str, str] | None:
    spec = root / "BENCHMARK.json"
    if not spec.is_file():
        return None
    entries = json.loads(spec.read_text())["per_layer" if trace else "end_to_end"]
    return {e["name"]: e["unit"] for e in entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; checks shape, measures nothing")
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit so that running operations are killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "wcifano" / "__init__.py").is_file():
        print(f"error: no wcifano sources under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    started = time.monotonic()
    tmp = root / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    bench = Bench(root, args.seed, args.smoke, tmp, started + RUN_DEADLINE_S)
    try:
        if args.trace:
            metrics = bench.traced()
        else:
            metrics = bench.measure(args.workload, args.seconds)
    finally:
        for path in tmp.iterdir():
            path.unlink()
        tmp.rmdir()

    declared = declared_metrics(root, bool(args.trace))
    if declared is not None:
        emitted = {name: unit for name, (_, unit) in metrics.items()}
        if emitted != declared:
            bench.tally.wrong += 1
            bench.tally.note(f"metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(declared))}")
    for note in bench.tally.notes:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps({"stamp": stamp(root, load_before), "workload": args.workload,
                      "seed": args.seed, "smoke": args.smoke, "unscaled": bench.raw}))
    print(json.dumps({
        "correct": bench.tally.wrong == 0,
        "attempted": bench.tally.attempted(),
        "failed": bench.tally.failed(),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
