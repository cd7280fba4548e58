"""Closed-loop measurement of one workload.

One process runs one workload: it builds the instances (timed as set-up),
then calls `approximate` on each instance in turn, as one client waiting for
every reply, until the time is up. Every call's output is checked and
digested outside the timed region; every round must repeat the first one
exactly. With tracing on, untraced and traced rounds alternate, so the
per-layer metrics come with the tracing overhead measured beside them.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass

from twapx import improver, treedec
from twapx.improver import Decomposition, LowerBound, RunStats

from tracer import Tracer
from workloads import Instance

# Set-up is timed at least SETUP_MIN_REPS times and for SETUP_FIRST_S before
# the first call. A set-up shorter than SETUP_BURST_S is timed again for that
# long after every round, so that its median samples the host across the
# whole run rather than in one phase of its speed.
SETUP_MIN_REPS = 3
SETUP_FIRST_S = 0.5
SETUP_BURST_S = 0.1
# Enough rounds to compare every call against a repeat of itself.
MIN_ROUNDS = 2

# The checks use the functions as imported here, which tracing never rebinds.
validate = treedec.validate
width = treedec.width


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic that
    tells host drift apart from a regression. Not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def time_builds(
    build, seed: int, reps: int, min_s: float
) -> tuple[list[Instance], list[float]]:
    """Build the instances at least `reps` times and for at least `min_s`
    seconds; return the last set and the seconds of every build."""
    times: list[float] = []
    instances: list[Instance] = []
    start = time.perf_counter()
    while len(times) < reps or time.perf_counter() - start < min_s:
        instances = []  # drop the previous set before building the next
        t = time.perf_counter()
        instances = build(seed)
        times.append(time.perf_counter() - t)
    return instances, times


@dataclass
class Call:
    """One checked call of approximate."""

    seconds: float
    outcome: str
    width: int
    stats: RunStats
    digest: str
    problem: str  # empty when the output is correct

    def signature(self) -> tuple:
        st = self.stats
        return (
            self.outcome,
            st.passes,
            st.two_way_passes,
            st.splits,
            st.moves,
            st.tables,
            self.digest,
        )


def lowerbound_line(lb: LowerBound) -> str:
    """The certificate as the command-line tool prints it."""
    return f"LOWERBOUND k={lb.k} bag " + " ".join(str(v + 1) for v in lb.bag) + "\n"


def check(inst: Instance, result) -> tuple[str, int, str, str]:
    """(outcome, width, emitted text, problem) for one result; problem is
    empty when the result is correct for the instance."""
    k = inst.k
    if isinstance(result, Decomposition):
        outcome, text = "decomposition", treedec.emit_td(result.td)
    elif isinstance(result, LowerBound):
        if not 0 <= result.node < len(result.td.bags):
            return "lower-bound", -1, "", f"certificate node {result.node} is not a bag"
        outcome, text = "lower-bound", lowerbound_line(result)
    else:
        return "unknown", -1, "", f"unexpected result {type(result).__name__}"
    w = width(result.td)
    problems = validate(inst.g, result.td)
    if problems:
        problem = "invalid decomposition: " + problems[0]
    elif outcome == "decomposition" and w > 2 * k + 1:
        problem = f"width {w} > 2k+1 = {2 * k + 1}"
    elif outcome == "lower-bound" and inst.tw_at_most_k:
        problem = f"lower bound on an instance of treewidth <= {k}"
    elif outcome == "lower-bound" and len(result.bag) < 2 * k + 3:
        problem = f"certificate bag of {len(result.bag)} < 2k+3 = {2 * k + 3}"
    else:
        problem = ""
    return outcome, w, text, problem


def solve(inst: Instance) -> Call:
    st = RunStats()
    start = time.perf_counter()
    try:
        result = improver.approximate(inst.g, inst.k, t0=inst.t0, stats=st)
    except Exception as exc:  # a raising call is a failed call, reported
        seconds = time.perf_counter() - start
        return Call(seconds, "raised", -1, st, "", f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    outcome, w, text, problem = check(inst, result)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Call(seconds, outcome, w, st, digest, problem)


def cross_check(tracer: Tracer, calls: list[Call]) -> str:
    """The tracer's counts must equal the program's own RunStats."""
    layer = tracer.layer_metrics()
    pairs = {
        "dpengine.tables": sum(c.stats.tables for c in calls),
        "dpengine.moves": sum(c.stats.moves for c in calls),
        "improver.passes": sum(c.stats.passes for c in calls),
        "improver.two_way_passes": sum(c.stats.two_way_passes for c in calls),
        "improver.splits": sum(c.stats.splits for c in calls),
        "improver.bags_inserted": sum(c.stats.inserted for c in calls),
        "improver.bags_removed": sum(c.stats.removed for c in calls),
    }
    for name, want in pairs.items():
        if layer[name] != want:
            return f"trace counted {name}={layer[name]}, run stats say {want}"
    return ""


def measure(build, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop and return the run's results (see
    `summarize`, plus `setup_s` and `setup_reps`)."""
    instances, setup_times = time_builds(build, seed, SETUP_MIN_REPS, SETUP_FIRST_S)
    bursts = statistics.median(setup_times) < SETUP_BURST_S
    tracer = Tracer() if trace else None
    rounds: list[tuple[bool, list[Call]]] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    step = 2 if trace else 1  # a traced run measures untraced/traced pairs
    while True:
        traced = trace and len(rounds) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            with tracer.attached():
                calls = [solve(inst) for inst in instances]
            problem = cross_check(tracer, calls)
            if problem:
                for c in calls:
                    c.problem = c.problem or problem
            layers.append(tracer.layer_metrics())
        else:
            calls = [solve(inst) for inst in instances]
        rounds.append((traced, calls))
        if bursts:
            setup_times += time_builds(build, seed, 1, SETUP_BURST_S)[1]
        done = len(rounds)
        if done >= step * MIN_ROUNDS and done % step == 0:
            # go on while the next step should end within half a step of time
            elapsed = time.perf_counter() - start
            if elapsed + step * elapsed / done / 2 > seconds:
                break
    res = summarize(instances, rounds, layers)
    res["setup_s"] = statistics.median(setup_times)
    res["setup_reps"] = len(setup_times)
    return res


def summarize(
    instances: list[Instance],
    rounds: list[tuple[bool, list[Call]]],
    layers: list[dict[str, float]],
) -> dict:
    """Medians over rounds, the determinism check and the failure count.

    Returns a dict with `attempted`, `failed`, `problems`, `solve_s`
    (untraced), `traced_solve_s`, `per_instance` and `layers` (medians over
    traced rounds). Solve times are per-instance medians, summed: the
    host's speed changes in phases of a few seconds, and a median per call
    keeps a slow phase out of the figure where a sum per round would not."""
    first = rounds[0][1]
    problems: list[str] = []
    attempted = failed = 0
    for _traced, calls in rounds:
        for inst, call, ref in zip(instances, calls, first):
            attempted += 1
            problem = call.problem
            if not problem and call.signature() != ref.signature():
                problem = (
                    f"not deterministic: {call.signature()[:6]} "
                    f"after {ref.signature()[:6]}"
                )
            if problem:
                failed += 1
                problems.append(f"{inst.name}: {problem}")

    def medians(traced: bool) -> list[float]:
        """Each instance's median call seconds over the rounds of one kind."""
        kind = [calls for tr, calls in rounds if tr == traced]
        if not kind:
            return [0.0] * len(instances)
        return [
            statistics.median(calls[idx].seconds for calls in kind)
            for idx in range(len(instances))
        ]

    untraced = medians(False)
    per_instance = []
    for inst, ref, secs in zip(instances, first, untraced):
        per_instance.append(
            {
                "name": inst.name,
                "n": inst.g.n,
                "k": inst.k,
                "outcome": ref.outcome,
                "width": ref.width,
                "passes": ref.stats.passes,
                "two_way_passes": ref.stats.two_way_passes,
                "splits": ref.stats.splits,
                "moves": ref.stats.moves,
                "tables": ref.stats.tables,
                "solve_s": secs,
                "sha256": ref.digest,
            }
        )
    layer_medians = {
        name: statistics.median(m[name] for m in layers) for name in layers[0]
    } if layers else {}
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "rounds": len(rounds),
        "solve_s": sum(untraced),
        "traced_solve_s": sum(medians(True)),
        "per_instance": per_instance,
        "layers": layer_medians,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report_lines(name: str, seed: int, res: dict, extra: dict) -> list[str]:
    """Human-readable run report: per-instance outcomes and digests, the
    n -> 2n scaling of paired sizes, tracing overhead and calibration."""
    lines = [
        f"workload={name} seed={seed} rounds={res['rounds']} "
        f"attempted={res['attempted']} failed={res['failed']}"
    ]
    for row in res["per_instance"]:
        lines.append(
            "instance " + " ".join(f"{key}={value}" for key, value in row.items())
        )
    by_n = {row["n"]: row["solve_s"] for row in res["per_instance"]}
    for n, secs in sorted(by_n.items()):
        if 2 * n in by_n and secs > 0:
            line = (
                f"scaling n={n}->{2 * n} solve_s={secs:.4f}->{by_n[2 * n]:.4f} "
                f"ratio={by_n[2 * n] / secs:.3f}"
            )
            if res["layers"]:
                line += f" tables_per_step={res['layers']['dpengine.tables_per_step']}"
            lines.append(line)
    if res["layers"]:
        untraced, traced = res["solve_s"], res["traced_solve_s"]
        lines.append(
            f"trace solve_s untraced={untraced:.4f} traced={traced:.4f} "
            f"overhead_s={traced - untraced:.4f} "
            f"overhead_share={(traced - untraced) / untraced:.4f}"
        )
    lines.append(" ".join(f"{key}={value}" for key, value in extra.items()))
    lines.extend(f"problem {p}" for p in res["problems"][:10])
    return lines


def run(build, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return the result object the benchmark
    prints last."""
    calib_start = calibrate()
    res = measure(build, seed, seconds, trace)
    calib_end = calibrate()
    extra = {
        "setup_reps": res["setup_reps"],
        "calibration_start_s": f"{calib_start:.5f}",
        "calibration_end_s": f"{calib_end:.5f}",
    }
    for line in report_lines(name, seed, res, extra):
        print(line)
    if trace:
        untraced = res["solve_s"]
        metrics = dict(res["layers"])
        metrics["trace.overhead_share"] = (res["traced_solve_s"] - untraced) / untraced
    else:
        metrics = {
            "solve_s": res["solve_s"],
            "setup_s": res["setup_s"],
            "peak_rss_mb": peak_rss_mb(),
            "ok_share": 1 - res["failed"] / res["attempted"],
        }
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            key: {"value": value, "unit": unit(key)} for key, value in metrics.items()
        },
    }


def unit(metric: str) -> str:
    """Unit of a metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if ".ms_per_" in metric:
        return "ms"
    if metric.endswith(("_share", "_yield", "_per_step", "_per_split")):
        return "ratio"
    return "count"
