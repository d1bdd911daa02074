"""Measurement loop, correctness checks, instance bound and metrics.

Each instance parses the workload's generated `.scn` text (set-up) and
runs `run_scenario` on it (solve), then checks the outcome. Instances
repeat until the requested seconds have passed; instance `i` runs with
the `i % SEEDS_PER_RUN`-th of the workload's first seeds from `seed` up
(`Workload.seeds`), so every seed repeats and masked traces can be
compared between instances of the same input.

`setup_s` and `solve_s` are medians of wall times rescaled to a nominal
machine speed by `SpeedProbe`; the plain wall medians are printed too.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

from taskmotion.dsl import Scenario, parse
from taskmotion.planner import (
    PlanResult,
    RunConfig,
    masked_trace_text,
    run_scenario,
)

from tracer import (
    PARSE_SPAN,
    SOLVE_SPAN,
    SPANS,
    Recording,
    Tracer,
    leaked_wrappers,
)
from workloads import Workload

MEMORY_LIMIT_MB = 1024.0  # about 4x the largest seed peak (hanoi_dual)
BOUND_TICK_S = 0.05
PARSES = 2  # timed parses per instance; the last one's scenario is solved
SEEDS_PER_RUN = 2
PROBE_BLOCK = 16  # probe samples taken back to back before and after a span
PROBE_NOMINAL_S = 5.0e-5  # a probe sample's time at nominal machine speed


class BoundExceeded(BaseException):
    """Raised into a running instance past the run deadline or memory cap.

    A BaseException, so no `except Exception` in the program absorbs it.
    """


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


_PROBE_KEYS = tuple((i * 7919 % 1009, i) for i in range(500))


class SpeedProbe:
    """Samples how fast the machine runs a fixed piece of Python right now.

    A shared host speeds up and slows down by tens of percent within
    seconds, for every process on it. Each timed span is divided by the
    mean probe sample taken from just before it to just after it,
    including the samples the bound's timer takes inside it; that removes
    most of those swings from the run-to-run spread. The probe allocates
    no tracked objects, so it never triggers a garbage collection, and
    hashes only integers, so its speed does not depend on the hash seed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._table = dict.fromkeys(_PROBE_KEYS, False)

    def sample(self) -> None:
        """Run the probe twice and keep the second, warm-cache time."""
        table = self._table
        for _ in range(2):
            start = time.perf_counter()
            for key in _PROBE_KEYS:
                table[key] = not table[key]
            elapsed = time.perf_counter() - start
        self.samples.append(elapsed)

    def block(self) -> int:
        """Take a run of samples; return the sample count so far."""
        for _ in range(PROBE_BLOCK):
            self.sample()
        return len(self.samples)

    def scaled(self, wall: float, first: int, last: int) -> float:
        """`wall` at nominal speed, judged by samples[first:last].

        The ticks inside a long span sample it evenly in time, so their
        mean is its average slowness; the mean drops the fastest and the
        slowest tenth, which hold samples a tick interrupted.
        """
        ordered = sorted(self.samples[first:last])
        cut = len(ordered) // 10
        return wall * PROBE_NOMINAL_S / statistics.fmean(ordered[cut:len(ordered) - cut])


class Bound:
    """Checks the deadline and peak memory every tick while entered; each
    tick also takes a speed sample."""

    def __init__(self, deadline: float, probe: SpeedProbe,
                 memory_mb: float = MEMORY_LIMIT_MB):
        self.deadline = deadline
        self.probe = probe
        self.memory_mb = memory_mb

    def _check(self, signum, frame):
        self.probe.sample()
        if time.perf_counter() > self.deadline:
            raise BoundExceeded("run deadline passed")
        if peak_rss_mb() > self.memory_mb:
            raise BoundExceeded(f"peak memory above {self.memory_mb:.0f} MB")

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._check)
        signal.setitimer(signal.ITIMER_REAL, BOUND_TICK_S, BOUND_TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


@dataclass
class Instance:
    seed: int
    traced: bool
    setup_s: list[float] = field(default_factory=list)  # wall
    solve_s: float | None = None  # wall
    setup_scaled_s: list[float] = field(default_factory=list)
    solve_scaled_s: float | None = None  # wall at nominal machine speed
    problems: list[str] = field(default_factory=list)
    bounded: bool = False
    trace_text: str | None = None
    moves: int = 0
    depth: int = 0
    recording: Recording | None = None


Expect = Callable[[Scenario, PlanResult], list[str]]


def run_instance(text: str, seed: int, expect: Expect | None, bound: Bound,
                 tracer: Tracer | None = None) -> Instance:
    """Parse `text` (timed; `PARSES` times untraced, once traced), solve
    it once and check the outcome, all inside `bound`."""
    inst = Instance(seed, tracer is not None)
    probe = bound.probe
    probe.samples.clear()
    try:
        with bound:
            if tracer is not None:
                tracer.install()
            for _ in range(1 if tracer else PARSES):
                scenario = None  # free the previous parse outside the timing
                gc.collect()
                first = probe.block() - PROBE_BLOCK
                start = time.perf_counter()
                scenario = (tracer.call(PARSE_SPAN, parse, text) if tracer
                            else parse(text))
                wall = time.perf_counter() - start
                inst.setup_s.append(wall)
                inst.setup_scaled_s.append(probe.scaled(wall, first, probe.block()))
            gc.collect()
            config = RunConfig(seed=seed)
            first = probe.block() - PROBE_BLOCK
            start = time.perf_counter()
            try:
                result = (tracer.call(SOLVE_SPAN, run_scenario, scenario, config)
                          if tracer else run_scenario(scenario, config))
            finally:
                inst.solve_s = time.perf_counter() - start
            inst.solve_scaled_s = probe.scaled(inst.solve_s, first, probe.block())
            inst.trace_text = masked_trace_text(result.trace)
            inst.moves = result.moves
            inst.depth = result.depth
            if expect is not None:
                inst.problems.extend(expect(scenario, result))
    except BoundExceeded as exc:
        inst.bounded = True
        inst.problems.append(f"bound: {exc}")
    except Exception as exc:  # a crash of the program fails the instance
        where = traceback.extract_tb(exc.__traceback__)[-1]
        inst.problems.append(f"raised {type(exc).__name__}: {exc} "
                             f"at {where.filename}:{where.lineno}")
    finally:
        if tracer is not None:
            tracer.remove()
            inst.recording = tracer.take()
    if tracer is not None and leaked_wrappers():
        inst.problems.append("tracer left wrappers: " + ", ".join(leaked_wrappers()))
    return inst


def expectation(workload: Workload) -> Expect:
    def expect(scenario: Scenario, result: PlanResult) -> list[str]:
        problems = []
        if result.status.value != workload.status:
            problems.append(f"status {result.status.value}, want {workload.status}")
        if result.moves != workload.moves:
            problems.append(f"moves {result.moves}, want {workload.moves}")
        if workload.extra_check is not None:
            problems.extend(workload.extra_check(scenario, result))
        return problems
    return expect


@dataclass
class Report:
    workload: str
    instances: list[Instance]
    metrics: dict[str, tuple[float, str]]

    @property
    def attempted(self) -> int:
        return len(self.instances)

    @property
    def failed(self) -> int:
        return sum(1 for i in self.instances if i.problems)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            deadline: float) -> Report:
    """Run instances of `workload` for `seconds`, never past `deadline`."""
    text = workload.make_text()
    warmup_text = workload.make_warmup_text()
    expect = expectation(workload)
    instances: list[Instance] = []
    reference: dict[int, str] = {}  # first masked trace seen per seed

    def checked(inst: Instance) -> Instance:
        # The first instance of a seed is untraced, so a traced one is
        # compared with an untraced run of the same input.
        if inst.trace_text is not None:
            first = reference.setdefault(inst.seed, inst.trace_text)
            if inst.trace_text != first:
                inst.problems.append(
                    f"{'traced' if inst.traced else 'untraced'} masked trace "
                    f"differs from the first instance with seed {inst.seed}")
            inst.trace_text = None  # keep the harness's memory flat
        instances.append(inst)
        return inst

    tracer = Tracer() if trace else None
    bound = Bound(deadline, SpeedProbe())
    warm = run_instance(warmup_text, seed, None, bound)
    if warm.problems:
        instances.append(warm)
    run_seeds = workload.seeds(seed, SEEDS_PER_RUN)
    started = time.perf_counter()
    i = 0
    while not any(inst.bounded for inst in instances):
        run_seed = run_seeds[i % SEEDS_PER_RUN]
        plain = checked(run_instance(text, run_seed, expect, bound))
        if tracer is not None and not plain.bounded:
            checked(run_instance(text, run_seed, expect, bound, tracer))
        i += 1
        if time.perf_counter() - started >= seconds:
            break
    metrics = layer_metrics(instances) if trace else end_to_end_metrics(instances)
    return Report(workload.name, instances, metrics)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(instances: list[Instance]) -> dict[str, tuple[float, str]]:
    # An instance cut by the bound has no scaled time; when every one was
    # cut, its wall time still stands for how long solving took.
    solve = ([i.solve_scaled_s for i in instances if i.solve_scaled_s is not None]
             or [i.solve_s for i in instances if i.solve_s is not None])
    setup = [s for i in instances for s in i.setup_scaled_s]
    return {
        "solve_s": (_median(solve), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


LAYER_COUNTERS = (
    ("andor.nodes_built", "count"),
    ("network.frontier.candidates", "count"),
    ("network.expand.stage_complete", "count"),
    ("network.expand.motion_failure", "count"),
    ("network.expand.no_feasible_state", "count"),
    ("world.plan_motion.feasible", "count"),
    ("world.plan_motion.infeasible_s", "s"),
    ("world.astar_pops", "count"),
    ("interface.ground.failed", "count"),
    ("interface.dispatch.failed", "count"),
)


def layer_metrics(instances: list[Instance]) -> dict[str, tuple[float, str]]:
    """Per-layer means over the traced instances.

    The self times of `planner.loop` and of every span inside it add up
    to `trace.solve_s`; `dsl.parse` is the set-up span, outside solve.
    """
    traced = [i for i in instances if i.traced and i.solve_s is not None]
    plain = [i for i in instances if not i.traced and i.solve_s is not None]
    n = max(len(traced), 1)

    def total(kind: str, key: str) -> float:
        return sum(getattr(i.recording, kind).get(key, 0) for i in traced)

    out: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        if span not in (SOLVE_SPAN, PARSE_SPAN):
            out[f"{span}.calls"] = (total("calls", span) / n, "count")
        out[f"{span}.self_s"] = (total("self_s", span) / n, "s")
    for counter, unit in LAYER_COUNTERS:
        out[counter] = (total("counts", counter) / n, unit)
    moves = sum(i.moves for i in traced)
    wall = sum(i.solve_s for i in traced)
    out["network.depth"] = (sum(i.depth for i in traced) / n, "count")
    out["network.select_yield"] = (
        _ratio(moves, total("counts", "network.selections")), "ratio")
    out["interface.attempts_per_step"] = (
        _ratio(total("counts", "interface.attempts"),
               total("counts", "interface.dispatched_steps")), "ratio")
    # Every loop pass checks the goal once at its top; each executed move
    # adds one more check.
    out["planner.iterations"] = (
        (total("calls", "domain.is_goal") - moves) / n, "count")
    out["trace.solve_s"] = (wall / n, "s")
    out["trace.coverage"] = (
        _ratio(wall - total("self_s", SOLVE_SPAN), wall), "ratio")
    out["trace.overhead"] = (
        _ratio(_median([i.solve_scaled_s for i in traced if i.solve_scaled_s]),
               _median([i.solve_scaled_s for i in plain if i.solve_scaled_s])),
        "ratio")
    return out


def emit(report: Report, seed: int, stream=None) -> None:
    """Print a readable summary, then the JSON result as the last line."""
    stream = stream or sys.stdout
    walls = [i.solve_s for i in report.instances if i.solve_s is not None]
    parses = [s for i in report.instances for s in i.setup_s]
    run_seeds = sorted({i.seed for i in report.instances})
    print(f"workload {report.workload}  seed {seed}  instance seeds "
          f"{run_seeds}  instances {report.attempted}  failed {report.failed}  "
          f"failed_share {report.failed_share:.4f} share", file=stream)
    print(f"  unscaled wall medians: solve {_median(walls):.6f} s, "
          f"setup {_median(parses):.6f} s", file=stream)
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}", file=stream)
    for inst in report.instances:
        for problem in inst.problems:
            print(f"FAIL seed {inst.seed}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }), file=stream)
