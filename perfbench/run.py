#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload scale --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed:
set-up is timed in several fresh interpreters, one untimed counting pass
fingerprints the run (engine paths, C steps, protocol traffic), then the
body repeats for ``--seconds`` seconds and medians are reported.  The
metrics ``BENCHMARK.json`` lists under ``end_to_end`` go into the JSON line;
host-time figures are printed as report-only.

``--trace 1`` is the separate traced run.  A fresh interpreter first runs
the body once with only the counting taps, then times hook-free iterations
for ``--seconds`` seconds (the untraced reference); this process then
installs a span on every layer's entry point before building
inputs, repeats the traced body for ``--seconds`` seconds, fails unless
paths, C steps and every protocol count match the reference, and reports
per-layer self times and counts plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The C delivery loop
is compiled into ``.bench_build/arrayloop`` under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
C_CACHE = ROOT / ".bench_build" / "arrayloop"
BENCHMARK = ROOT / "BENCHMARK.json"
SPEC = json.loads((HERE / "spec.json").read_text())

#: Fresh interpreters that time set-up (this process is one of them).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot produce a result (nothing is reported)."""


def prepare() -> None:
    """Point this process and its children at the checkout's sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC.relative_to(ROOT)}/repro")
    if not BENCHMARK.is_file():
        raise BenchError(f"no {BENCHMARK.name} at the checkout root")
    if os.environ.get("REPRO_PURE_PYTHON"):
        raise BenchError("REPRO_PURE_PYTHON is set; refusing to report without the C loop")
    os.environ["REPRO_ARRAYLOOP_CACHE"] = str(C_CACHE)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def child(role: str, args) -> dict:
    """Run this script in a fresh interpreter; return its JSON line."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} interpreter timed out")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{role} interpreter failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load(workload) -> tuple:
    """Time the imports and the C loop's dlopen; refuse without C."""
    start = time.perf_counter()
    cmod = workload.load()
    elapsed = time.perf_counter() - start
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported repro from {repro.__file__}, not from the checkout")
    if cmod is None:
        raise BenchError("the C delivery loop did not load (arrayloop.load() is None)")
    return cmod, elapsed


def timed_setup(workload, seed: int) -> tuple:
    cmod, elapsed = load(workload)
    start = time.perf_counter()
    inputs = workload.inputs(seed)
    return cmod, inputs, elapsed + time.perf_counter() - start


def environment(cmod) -> dict:
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    compiler = cc
    if shutil.which(cc):
        proc = subprocess.run([cc, "--version"], capture_output=True, text=True)
        compiler = (proc.stdout.splitlines() or [cc])[0]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "compiler": compiler,
        "c_loop": Path(cmod.__file__).name,
    }


def counted_iteration(workload, inputs, hooks, body=None):
    """One body with the hooks on; returns (wall, outcome, fingerprint)."""
    body = body or workload.body
    gc.collect()
    hooks.reset_taps()
    before = dict(hooks.counts)
    paths_before = dict(hooks.paths)
    hooks.active = True
    start = time.perf_counter()
    try:
        out = body(inputs)
    finally:
        wall = time.perf_counter() - start
        hooks.active = False
    outcome = workload.outcome(inputs, out, hooks)
    counts = {
        key: hooks.counts[key] - before.get(key, 0)
        for key in ("arrayloop.c_steps", "arrayloop.c_calls", "arrayloop.deopts", "arrayloop.pumps")
    }
    paths = {
        key: value - paths_before.get(key, 0)
        for key, value in hooks.paths.items()
        if value != paths_before.get(key, 0)
    }
    fingerprint = {"paths": paths, **counts, **outcome.protocol.fingerprint()}
    return wall, outcome, fingerprint


class Tally:
    """Checks over every iteration of a run."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.shed = 0
        self.problems = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.shed += outcome.shed
        self.problems.extend(outcome.problems)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def timed_iterations(workload, inputs, seconds: float, digest, tally) -> list:
    """Hook-free bodies for ``seconds`` seconds; returns their times.

    Every output is checked and must repeat ``digest``, the counting
    pass's output."""
    walls = []
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < seconds:
        gc.collect()
        start = time.perf_counter()
        out = workload.body(inputs)
        walls.append(time.perf_counter() - start)
        outcome = workload.outcome(inputs, out, None)
        del out
        tally.add(outcome)
        if outcome.digest != digest:
            tally.fail(f"iteration {len(walls)} output differs from the counting pass")
    return walls


def listed(kind: str) -> dict:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics, as
    ``BENCHMARK.json`` lists them."""
    metrics = json.loads(BENCHMARK.read_text())[kind]
    return {metric["name"]: metric["unit"] for metric in metrics}


def sample_note(samples) -> str:
    """Median, sample count and the highest percentile with ten samples
    beyond it (none below 11 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = (
        f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
        if n >= 11
        else "no percentile has ten samples beyond it"
    )
    return f"median of {n} (min {ordered[0]:.4f}, max {ordered[-1]:.4f}; {tail})"


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


# ----------------------------------------------------------------------
# roles
# ----------------------------------------------------------------------
def role_warm(args) -> int:
    from repro.core import arrayloop

    cmod = arrayloop.load()
    print(json.dumps({"c_loop": cmod is not None}))
    return 0 if cmod is not None else 1


def role_setup(args) -> int:
    from workloads import WORKLOADS

    _cmod, _inputs, elapsed = timed_setup(WORKLOADS[args.workload], args.seed)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def role_reference(args) -> int:
    """The traced run's untraced twin: the counting pass's fingerprint and
    the median of hook-free iterations over ``--seconds``."""
    from hooks import Hooks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cmod, inputs, _elapsed = timed_setup(workload, args.seed)
    hooks = Hooks(timing=False)
    hooks.install(cmod)
    _wall, outcome, fingerprint = counted_iteration(workload, inputs, hooks)
    hooks.uninstall()
    tally = Tally()
    tally.add(outcome)
    walls = timed_iterations(workload, inputs, args.seconds, outcome.digest, tally)
    print(json.dumps({
        "wall_s": statistics.median(walls),
        "iterations": len(walls),
        "fingerprint": fingerprint,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "shed": tally.shed,
        "problems": tally.problems,
    }))
    return 0


def role_measure(args) -> int:
    """``--trace 0``: the end-to-end metrics, no hooks while timing."""
    from hooks import Hooks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    child("warm", args)
    setups = [child("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    cmod, inputs, own_setup = timed_setup(workload, args.seed)
    setups.append(own_setup)
    env = environment(cmod)

    hooks = Hooks(timing=False)
    hooks.install(cmod)
    _wall, reference, fingerprint = counted_iteration(workload, inputs, hooks)
    hooks.uninstall()
    tally = Tally()
    tally.add(reference)
    walls = timed_iterations(workload, inputs, args.seconds, reference.digest, tally)

    protocol = reference.protocol
    wall = statistics.median(walls)
    figures = reference.figures
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "steps_per_s": protocol.steps / wall,
        "ids_per_s": protocol.ids / wall,
        "runs_per_s": figures["runs"] / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "msgs_per_node": protocol.messages / protocol.nodes,
        "bits_per_node": protocol.total_bits / protocol.nodes,
    }
    if "ops" in figures:
        values["ops_per_s"] = figures["ops"] / wall
        for name in ("probe_p50_steps", "probe_p99_steps", "msgs_per_op"):
            values[name] = figures[name]
    values["error_rate"] = (tally.failed + tally.shed) / tally.attempted
    gated = listed("end_to_end")
    units = {**{entry["name"]: entry["unit"] for entry in SPEC["report_only"]}, **gated}

    print(f"workload {workload.name}  seed {args.seed}  env {json.dumps(env)}")
    print(f"engine paths {json.dumps(fingerprint['paths'])}  "
          f"C steps {fingerprint['arrayloop.c_steps']} of {protocol.steps}")
    print(f"wall_s {sample_note(walls)}; setup_s {sample_note(setups)}")
    for name, value in values.items():
        note = "" if name in gated else "  (report-only)"
        print(f"  {name:<16} {value:>16.6g} {units[name]}{note}")
    if reference.shed:
        print(f"  {reference.shed} operations per iteration shed by the service (in error_rate)")
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    correct = tally.failed == 0
    emit(
        correct,
        tally.attempted,
        tally.failed,
        {name: (values[name], unit) for name, unit in gated.items()},
    )
    return 0 if correct else 1


def role_trace(args) -> int:
    """``--trace 1``: per-layer self times and counts."""
    from hooks import GROUPS, Hooks
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    child("warm", args)
    reference = child("reference", args)

    cmod, _elapsed = load(workload)
    env = environment(cmod)
    hooks = Hooks(timing=True)
    hooks.install(cmod)
    hooks.active = True
    inputs = hooks.span("bench.setup", "unattributed", workload.inputs)(args.seed)
    hooks.active = False
    at_setup = snapshot(hooks)
    body = hooks.span("bench.body", "unattributed", workload.body)

    tally = Tally()
    tally.attempted, tally.failed = reference["attempted"], reference["failed"]
    tally.problems.extend(reference["problems"])
    walls = []
    first = None
    began = time.perf_counter()
    while not walls or time.perf_counter() - began < args.seconds:
        wall, outcome, fingerprint = counted_iteration(workload, inputs, hooks, body)
        walls.append(wall)
        tally.add(outcome)
        if first is None:
            first = outcome
            if fingerprint != reference["fingerprint"]:
                tally.fail(
                    "traced run diverged from the untraced reference: "
                    + json.dumps(diff(reference["fingerprint"], fingerprint))
                )
            traced_fingerprint = fingerprint
        elif fingerprint != traced_fingerprint:
            tally.fail(f"traced iteration {len(walls)} differs from the first")
    hooks.uninstall()

    iterations = len(walls)
    per = per_iteration(hooks, at_setup, iterations)
    # Layer times are per-iteration means, so the table's base is too.
    trace_wall = statistics.fmean(walls)
    overhead = statistics.median(walls) / reference["wall_s"]
    metrics = layer_metrics(per, at_setup, first, trace_wall, overhead)

    print(f"workload {workload.name}  seed {args.seed}  env {json.dumps(env)}")
    print(f"engine paths {json.dumps(traced_fingerprint['paths'])}; "
          f"{iterations} traced iteration(s), traced wall_s {sample_note(walls)}")
    print(f"tracing overhead {overhead:.3f}x (median traced {statistics.median(walls):.4f} s "
          f"/ median untraced {reference['wall_s']:.4f} s of {reference['iterations']})")
    print_layer_table(per["group"], trace_wall, per["counts"].get("gc.pause_ns", 0) / 1e9, GROUPS)
    print_prediction(workload.name, per["group"])
    for problem in tally.problems[:20]:
        print(f"  FAILED: {problem}")
    correct = tally.failed == 0
    units = listed("per_layer")
    emit(
        correct,
        tally.attempted,
        tally.failed,
        {name: (metrics[name], unit) for name, unit in units.items()},
    )
    return 0 if correct else 1


def snapshot(hooks) -> dict:
    return {
        "self": dict(hooks.self_ns),
        "incl": dict(hooks.incl_ns),
        "group": dict(hooks.group_ns),
        "calls": dict(hooks.calls),
        "counts": dict(hooks.counts),
    }


def per_iteration(hooks, at_setup: dict, iterations: int) -> dict:
    """Body totals per iteration (set-up excluded)."""
    def share(value: float):
        value /= iterations
        return int(value) if value.is_integer() else value

    return {
        kind: {key: share(value - at_setup[kind].get(key, 0)) for key, value in table.items()}
        for kind, table in snapshot(hooks).items()
    }


def diff(expected: dict, got: dict) -> dict:
    keys = sorted(set(expected) | set(got))
    return {k: [expected.get(k), got.get(k)] for k in keys if expected.get(k) != got.get(k)}


def layer_metrics(per, at_setup, outcome, trace_wall, overhead) -> dict:
    s = per["self"]
    counts = per["counts"]
    calls = per["calls"]
    figures = outcome.figures

    def secs(name: str, table=s) -> float:
        return table.get(name, 0) / 1e9

    c_s = secs("arrayloop.c")
    c_steps = counts.get("arrayloop.c_steps", 0)
    steps = outcome.protocol.steps
    m = {
        "graphs.gen_s": secs("graphs.gen") + at_setup["self"].get("graphs.gen", 0) / 1e9,
        "executor.self_s": secs("executor"),
        "jobs.digest_s": secs("jobs.digest") + at_setup["self"].get("jobs.digest", 0) / 1e9,
        "executor.jobs": counts.get("executor.jobs", 0),
        "runner.build_s": secs("runner.build"),
        "runner.nodes_built": counts.get("runner.nodes_built", 0),
        "arraystate.convert_s": secs("arraystate.convert"),
        "arraystate.declines": counts.get("arraystate.declines", 0),
        "arraystate.graph_build_verify_s": secs("arraystate.graph_build_verify"),
        "arraystate.idspace_s": secs("arraystate.idspace"),
        "arraystate.py_loop_s": secs("arraystate.py_loop"),
        "arrayloop.c_s": c_s,
        "arrayloop.c_steps": c_steps,
        "arrayloop.c_calls": counts.get("arrayloop.c_calls", 0),
        "arrayloop.deopts": counts.get("arrayloop.deopts", 0),
        "arrayloop.pumps": counts.get("arrayloop.pumps", 0),
        "arrayloop.c_step_share": c_steps / steps if steps else 0.0,
        "arrayloop.c_steps_per_s": c_steps / c_s if c_s else 0.0,
        "network.run_self_s": secs("network.run"),
        "network.step_s": secs("network.step"),
        "network.steps": counts.get("network.steps", 0),
        "network.in_flight_s": secs("network.in_flight"),
        "network.in_flight_calls": calls.get("network.in_flight", 0),
        "fastcore.self_s": secs("fastcore"),
        "result.collect_s": secs("result.collect"),
        "invariants.verify_s": secs("invariants.verify"),
        "lemmas.check_s": secs("lemmas.check"),
        "lemmas.query_slack": outcome.slack.get("query", 0.0),
        "lemmas.merge_slack": outcome.slack.get("merge", 0.0),
        "lemmas.conquer_slack": outcome.slack.get("conquer", 0.0),
        "driver.self_s": secs("driver"),
        "driver.warmup_s": secs("driver.warmup", per["incl"]),
        "driver.inject_s": secs("driver.inject"),
        "driver.ops": figures.get("ops", 0),
        "driver.probe_completion": figures.get("probe_completion", 0.0),
        "driver.deferrals": figures.get("deferrals", 0),
        "driver.shed_probes": figures.get("shed_probes", 0),
        "faults.dropped": figures.get("dropped", 0),
        "reliable.retransmissions": figures.get("retransmissions", 0),
        "reliable.acks": figures.get("acks", 0),
        "reliable.timer_steps": counts.get("reliable.timer_steps", 0),
        "reliable.undeliverable": figures.get("undeliverable", 0),
        "reliable.goodput": figures.get("goodput", 0.0),
        "events.emit_s": secs("events.emit"),
        "events.emitted": counts.get("events.emitted", 0),
        "metrics.sample_s": secs("metrics.sample"),
        "metrics.samples": counts.get("metrics.samples", 0),
        "gc.pause_s": counts.get("gc.pause_ns", 0) / 1e9,
        "gc.collections": counts.get("gc.collections", 0),
        "trace.wall_s": trace_wall,
        "trace.unattributed_s": secs("bench.body"),
        "trace.overhead": overhead,
    }
    fingerprint = outcome.protocol.fingerprint()
    for name in listed("per_layer"):
        if name.startswith("metrics.gauge_s."):
            m[name] = secs("metrics.gauge." + name[len("metrics.gauge_s."):])
        elif name.startswith("protocol."):
            m[name] = fingerprint.get(name, 0)
    return m


def print_layer_table(groups: dict, wall: float, gc_pause: float, order) -> None:
    print(f"self time per layer, mean per traced iteration (wall {wall:.4f} s):")
    attributed = 0.0
    for group in order:
        seconds = groups.get(group, 0) / 1e9
        attributed += seconds
        if seconds:
            print(f"  {group:<14} {seconds:10.4f} s  {100 * seconds / wall:6.1f}%")
    print(f"  {'sum':<14} {attributed:10.4f} s  (gc pauses overlapping these: {gc_pause:.4f} s)")


def print_prediction(name: str, groups: dict) -> None:
    prediction = SPEC["predictions"][name]
    claimed = sum(groups.get(g, 0) for g in prediction["largest"])
    others = {g: v for g, v in groups.items() if g not in prediction["largest"]}
    rival = max(others, key=others.get) if others else None
    held = rival is None or claimed > others[rival]
    print(
        f"prediction ({name}): {prediction['claim']} -- "
        f"{'held' if held else 'did not hold'} "
        f"({'+'.join(prediction['largest'])} {claimed / 1e9:.4f} s vs "
        f"next {rival} {others.get(rival, 0) / 1e9:.4f} s)"
    )


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--role",
        choices=("main", "warm", "setup", "reference"),
        default="main",
        help=argparse.SUPPRESS,
    )
    args = parser.parse_args(argv)
    try:
        prepare()
        if args.role == "warm":
            return role_warm(args)
        if args.role == "setup":
            return role_setup(args)
        if args.role == "reference":
            return role_reference(args)
        return role_trace(args) if args.trace else role_measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
