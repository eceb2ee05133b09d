"""Set-up, timed passes and the output gate of one benchmark run.

A run repeats timed passes of the workload's steps until its time is used
up.  Each pass starts with a timed set-up: it imports ``torusvc`` afresh
from the checkout's ``src`` and writes the workload's inputs into a private
work directory.  One more set-up is timed before every step, so the
set-up samples spread over the whole run as the step timings do.  Every
step of every pass is checked: its exit code, stdout and output-file
SHA-256 digests against ``expected.json``, and its anchor.  A failed check
is counted and reported, never raised.

Every timed piece of work, set-up or step, runs between two runs of a
fixed reference kernel of the benchmark's own, and a long one also runs
the kernel every half second inside it.  On a shared virtual machine the
host's speed can drift by half or more over seconds to minutes, for the
kernel and the program alike; dividing each piece's time by the mean of
the kernel times around and inside it, and multiplying by ``REF_S``,
gives its seconds at one fixed speed.  Those scaled times are what the
end-to-end metrics report.
"""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"

# Seconds the reference kernel takes at the speed scaled times are given in:
# about its median on a 2-vCPU Xeon VM at 2.1 GHz, so scaled times read
# close to that machine's wall times.
REF_S = 0.03
SAMPLE_EVERY = 0.5  # seconds between kernel runs inside a long piece of work
_FRACTIONS = [Fraction(i, 7) for i in range(40)]


def reference_kernel() -> int:
    """A fixed mix of the interpreter work the program does.

    Rational comparisons, tuple-keyed dicts, hashing of frozensets and
    big-integer shifts, as in the torus, shatter and bounds modules.  It
    uses no ``torusvc`` code, so a change to the program cannot move it,
    and holds under a megabyte, so it cannot set the run's peak memory.
    """
    total = 0
    for _ in range(3):
        for a in _FRACTIONS:
            for b in _FRACTIONS:
                if a < b <= a + 1:
                    total += 1
    counts = {}
    for i in range(40000):
        key = (i & 63, (i >> 6) & 63)
        counts[key] = counts.get(key, 0) + i * i
    shapes = set()
    for i in range(20000):
        shapes.add(frozenset((i & 7, i & 56)))
    return total + len(shapes) + sum(1 << (i % 300) for i in range(8000)) % 97


def reference_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


class ScaledClock:
    """Times work against reference kernel runs and scales it to ``REF_S``.

    The kernel runs before and after each piece of work and, for work
    longer than ``SAMPLE_EVERY`` seconds, every ``SAMPLE_EVERY`` seconds
    inside it from a SIGALRM handler, so a long step is scaled by the
    machine's speed during the step and not only at its ends.  Kernel time
    inside the work is taken out of its raw time.  Consecutive pieces share
    the kernel run between them.  Use it from the main thread only.

    ``sample_every=None`` runs the kernel only between pieces of work, for
    a traced pass, whose spans would otherwise count the kernel's time.
    """

    def __init__(self, sample_every=SAMPLE_EVERY):
        self.sample_every = sample_every
        self.refs = [reference_seconds()]

    def time(self, work):
        """Run ``work()``; returns (its value, raw seconds, scaled seconds)."""
        inside = []

        def sample(signum, frame):
            inside.append(reference_seconds())
            # re-armed only now, so a slow kernel run is never interrupted by the next one
            signal.setitimer(signal.ITIMER_REAL, self.sample_every)

        if self.sample_every is None:
            start = perf_counter()
            value = work()
            took = perf_counter() - start
        else:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every)
            start = perf_counter()
            try:
                value = work()
            finally:
                took = perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        took -= sum(inside)
        refs = [self.refs[-1], *inside, reference_seconds()]
        self.refs += refs[1:]
        return value, took, took * REF_S / statistics.mean(refs)


def torusvc_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "torusvc" or k.startswith("torusvc.")}


def load_program():
    """Import ``torusvc`` afresh from the checkout and return the package.

    Earlier imports are dropped first, so each call pays the whole import.
    """
    for name in torusvc_modules():
        del sys.modules[name]
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("torusvc")
    importlib.import_module("torusvc.cli")
    if Path(package.__file__).resolve().parent != SRC / "torusvc":
        raise ImportError(f"torusvc was imported from {package.__file__}, not from {SRC}")
    return package


@dataclass
class StepResult:
    code: int = None
    stdout: str = ""
    error: str = None  # traceback text when the step raised
    files: dict = field(default_factory=dict)  # output name -> SHA-256, or None if missing


def run_step(package, step) -> StepResult:
    """Run one step in the current directory, capturing stdout and stderr."""
    out = io.StringIO()
    result = StepResult()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if step.call is not None:
                name, args = step.call
                print(getattr(package, name)(*args))
                result.code = 0
            else:
                result.code = package.cli.run(list(step.argv))
    except Exception:  # a crashing step is a failed step, not a failed run
        result.error = traceback.format_exc()
    result.stdout = out.getvalue()
    return result


def digest(path: Path):
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class PassTimes:
    raw: list  # wall seconds of each step
    scaled: list  # the same, scaled to the reference speed

    @property
    def wall_s(self) -> float:
        return sum(self.raw)


def run_pass(package, steps, workdir: Path, clock: ScaledClock, tracer: Tracer = None,
             between=None):
    """Run every step once in workdir; returns (PassTimes, [StepResult]).

    ``between`` is called before each step, outside the step's timing.
    """
    for step in steps:
        for name in step.outputs:
            (workdir / name).unlink(missing_ok=True)
    gc.collect()
    results = []
    times = PassTimes([], [])
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for step in steps:
            if between is not None:
                between()
            if tracer is not None:
                tracer.open(step.layer)
            result, raw, scaled = clock.time(lambda: run_step(package, step))
            if tracer is not None:
                tracer.close()
            results.append(result)
            times.raw.append(raw)
            times.scaled.append(scaled)
    finally:
        os.chdir(cwd)
    for step, result in zip(steps, results):
        result.files = {name: digest(workdir / name) for name in step.outputs}
    return times, results


def record(result: StepResult) -> dict:
    """The frozen form of a step's observable outputs."""
    return {"exit": result.code, "stdout": result.stdout, "files": result.files}


def anchor_problems(step, result: StepResult) -> list:
    """Problems the step's independent anchor finds, or that it raised."""
    if result.error is not None:
        return [f"raised: {result.error.strip().splitlines()[-1]}"]
    if step.anchor is not None:
        problem = step.anchor(result.code, result.stdout)
        if problem:
            return [f"anchor: {problem}"]
    return []


def check(step, result: StepResult, expected) -> list:
    """Every way the step's outputs differ from its anchor and its frozen record."""
    problems = anchor_problems(step, result)
    if result.error is not None:
        return problems
    if expected is None:
        return problems + ["no frozen expectation for this step"]
    got = record(result)
    return problems + [f"{key} differs from the frozen value"
                       for key in expected if got.get(key) != expected[key]]


def load_expected(size: str, workload, instance: int) -> dict:
    with open(EXPECTED) as fh:
        frozen = json.load(fh)
    return frozen.get(size, {}).get(workload.name, {}).get(str(instance), {})


@dataclass
class RunResult:
    attempted: int  # step executions
    failed: int  # step executions with at least one problem
    problems: list  # (pass label, step id, problem)
    setups: list  # scaled seconds of every set-up
    passes: list  # PassTimes of the untraced passes
    peak_rss_mb: float
    layers: dict = None  # per-layer metrics of the traced pass

    @property
    def wall_s(self) -> float:
        """Sum over the steps of each step's median scaled time over the passes."""
        return sum(statistics.median(step) for step in zip(*(p.scaled for p in self.passes)))

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setups)

    @property
    def raw_wall_s(self) -> float:
        """Median over the passes of their unscaled wall time."""
        return statistics.median(p.wall_s for p in self.passes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@contextlib.contextmanager
def workspace(workload):
    """A private work directory inside the checkout, removed afterwards."""
    workdir = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def set_up(workload, size: str, instance: int, workdir: Path):
    """Import torusvc and write the workload's inputs; returns (package, steps)."""
    package = load_program()
    inputs, steps = workload.build(size, instance)
    for name, text in inputs.items():
        (workdir / name).write_text(text)
    return package, steps


def sample_set_up(workload, size: str, instance: int, workdir: Path) -> None:
    """One more set-up; the running pass's modules are put back after it."""
    in_use = torusvc_modules()
    set_up(workload, size, instance, workdir)
    for name in torusvc_modules():
        del sys.modules[name]
    sys.modules.update(in_use)


def measure(workload, seed: int, seconds: float, trace: bool, size: str = "full",
            expected: dict = None) -> RunResult:
    """One benchmark run of a workload: set-ups and timed passes, then an optional traced pass.

    Untraced passes repeat while another one is expected to end within
    ``seconds`` (at least one runs).  Each starts with a timed set-up, and
    one more is timed before each of its steps.  With ``trace`` one more
    pass runs under the tracer.  ``expected`` replaces the frozen records
    read from expected.json.
    """
    instance = workload.instance(seed)
    if expected is None:
        expected = load_expected(size, workload, instance)
    with workspace(workload) as workdir:
        problems = []
        attempted = failed = 0

        def gate(label, results):
            nonlocal attempted, failed
            for step, result in zip(steps, results):
                found = check(step, result, expected.get(step.id))
                attempted += 1
                failed += bool(found)
                problems.extend((label, step.id, problem) for problem in found)

        clock = ScaledClock()
        setups, passes, durations = [], [], []

        def between():
            _, _, scaled = clock.time(lambda: sample_set_up(workload, size, instance, workdir))
            setups.append(scaled)
            gc.collect()  # the discarded import's garbage is not left to the next step

        begin = perf_counter()
        # stop before a pass that would likely end after the run's time
        while not passes or perf_counter() - begin + statistics.median(durations) <= seconds:
            start = perf_counter()
            (package, steps), _, scaled = clock.time(
                lambda: set_up(workload, size, instance, workdir))
            setups.append(scaled)
            times, results = run_pass(package, steps, workdir, clock, between=between)
            passes.append(times)
            durations.append(perf_counter() - start)
            gate(f"pass {len(passes)}", results)

        peak = peak_rss_mb()  # the tracer's own allocations are not counted
        layers = None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                times, results = run_pass(package, steps, workdir,
                                          ScaledClock(sample_every=None), tracer)
            finally:
                tracer.uninstall()
            gate("traced pass", results)
            layers = layer_metrics(tracer)
            layers["trace.wall_s"] = sum(times.scaled)
            layers["raw.ref_s"] = statistics.median(clock.refs)  # of the untraced passes
    result = RunResult(attempted, failed, problems, setups, passes, peak, layers)
    if trace:
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result.wall_s
        layers["raw.wall_s"] = result.raw_wall_s
    return result


def frozen_records(workload, size: str, instance: int) -> dict:
    """One pass's step records, to be frozen; raises if a step fails its anchor."""
    with workspace(workload) as workdir:
        package, steps = set_up(workload, size, instance, workdir)
        _, results = run_pass(package, steps, workdir, ScaledClock())
    problems = {step.id: anchor_problems(step, result) for step, result in zip(steps, results)}
    problems = {k: v for k, v in problems.items() if v}
    if problems:
        raise RuntimeError(f"{workload.name} {size} instance {instance}: {problems}")
    return {step.id: record(result) for step, result in zip(steps, results)}
