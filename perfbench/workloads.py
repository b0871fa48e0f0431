"""The four benchmark workloads.

Each workload splits into ``load`` (imports and the C loop's dlopen) and
``inputs`` (input generation from the seed), which together are timed as
``setup_s``, then ``body`` (the timed run, whose output it returns) and
``outcome`` (untimed: correctness checks, protocol counts and the
workload's own report figures).  Inputs depend only on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from hooks import Protocol

#: Sweep cells: (experiment, kwargs, discovery runs per job).
SWEEP_NS = (256, 1024, 2048)
SWEEP_CELLS = (
    (
        "generic-scaling",
        {"ns": SWEEP_NS, "families": ("star", "sparse-random", "dense-random")},
        9,
    ),
    (
        "near-linear",
        {
            "ns": SWEEP_NS,
            "variants": ("bounded", "adhoc"),
            "families": ("sparse-random", "dense-random"),
        },
        12,
    ),
    (
        "message-lemmas",
        {"ns": (256, 1024), "variants": ("generic", "bounded", "adhoc")},
        6,
    ),
)


@dataclass
class Outcome:
    """What one iteration produced, checked."""

    attempted: int = 0
    failed: int = 0
    #: operations the system shed by its own policy: errors in
    #: ``error_rate``, not failed checks
    shed: int = 0
    problems: List[str] = field(default_factory=list)
    protocol: Protocol = field(default_factory=Protocol)
    #: workload-specific figures per iteration (runs, ops, latencies, ...)
    figures: Dict[str, float] = field(default_factory=dict)
    #: largest measured/bound over the runs, per lemma
    slack: Dict[str, float] = field(default_factory=dict)
    #: the output's deterministic summary; every iteration must repeat it
    digest: tuple = ()

    def check(self, ok: bool, problem: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.problems.append(problem)

    def add_slack(self, stats, n: int, variant: str) -> None:
        from repro.verification.lemmas import (
            lemma_5_5_queries,
            lemma_5_7_merges,
            lemma_5_8_conquers,
        )

        for key, lemma in (
            ("query", lemma_5_5_queries(stats, n)),
            ("merge", lemma_5_7_merges(stats, n)),
            ("conquer", lemma_5_8_conquers(stats, n, variant)),
        ):
            if lemma.bound:
                ratio = lemma.measured / lemma.bound
            else:
                ratio = 0.0 if lemma.measured == 0 else math.inf
            self.slack[key] = max(self.slack.get(key, 0.0), ratio)
        self.check(
            all(ratio <= 1 for ratio in self.slack.values()),
            f"{variant} n={n}: a C7 lemma count exceeds its bound",
        )


def _load_c_loop():
    """Import the package and dlopen the C delivery loop (``None`` when
    it is unavailable)."""
    import repro  # noqa: F401
    from repro.core import arrayloop

    return arrayloop.load()


class Scale:
    """Object-free Generic run at n=50k, global-FIFO, verified."""

    name = "scale"

    def load(self):
        from repro.core import arraystate, runner  # noqa: F401

        return _load_c_loop()

    def inputs(self, seed: int):
        from repro.graphs.generators import random_weakly_connected

        return {"graph": random_weakly_connected(50_000, 100_000, seed)}

    def body(self, inputs):
        from repro.core.runner import run_at_scale

        return run_at_scale(inputs["graph"], "generic", verify=True)

    def outcome(self, inputs, out, hooks) -> Outcome:
        from repro.core.runner import id_bits_for

        result = Outcome()
        result.check(out.verified, "run_at_scale did not verify")
        result.check(
            len(out.leaders) == out.n_components,
            f"{len(out.leaders)} leaders for {out.n_components} components",
        )
        result.protocol.add_stats(out.stats, id_bits_for(out.n), out.steps, out.n)
        result.add_slack(out.stats, out.n, "generic")
        result.figures["runs"] = 1
        result.digest = (out.steps, out.total_messages, out.total_bits, out.leaders)
        return result


class Sweep:
    """Paper-experiment jobs through ``ParallelExecutor(workers=1)``,
    result cache off."""

    name = "sweep"

    def load(self):
        import repro.analysis.experiments  # noqa: F401
        from repro.parallel import executor, jobs  # noqa: F401

        return _load_c_loop()

    def inputs(self, seed: int):
        from repro.parallel.jobs import Job

        return {
            "jobs": [Job.create(name, kwargs, seed) for name, kwargs, _runs in SWEEP_CELLS]
        }

    def body(self, inputs):
        from repro.parallel.executor import ParallelExecutor

        return ParallelExecutor(workers=1).run(inputs["jobs"])

    def outcome(self, inputs, out, hooks) -> Outcome:
        from repro.core.runner import id_bits_for

        result = Outcome()
        for job_result, (name, _kwargs, job_runs) in zip(out, SWEEP_CELLS):
            result.check(
                job_result.ok,
                f"{name} job {job_result.status}: {job_result.error}",
                job_runs,
            )
            if name == "message-lemmas" and job_result.ok:
                holds = job_result.headers.index("holds")
                for row in job_result.rows:
                    result.check(row[holds] is True, f"lemma miss: {row}")
        result.check(len(out) == len(SWEEP_CELLS), "executor returned too few results")
        expected = sum(job_runs for _name, _kwargs, job_runs in SWEEP_CELLS)
        result.figures["runs"] = expected
        if hooks is not None:
            for run in hooks.results:
                result.protocol.add_stats(run.stats, id_bits_for(run.n), run.steps, run.n)
                result.add_slack(run.stats, run.n, run.variant)
            result.check(
                len(hooks.results) == expected,
                f"{len(hooks.results)} discovery runs seen, {expected} expected",
            )
        result.digest = tuple((job.status, repr(job.rows)) for job in out)
        return result


#: serve-sim --n 2048 --rate 20 --duration 20000 --faults loss=0.05
SERVICE_N = 2048
SERVICE_RATE = 20.0
SERVICE_DURATION = 20_000
SERVICE_LOSS = 0.05
#: Independently seeded systems served per iteration.
SERVICE_BATCH = 3


class Service:
    """Open-loop Poisson service over the reliable ``sr`` transport with
    5% loss injected after warmup, on a batch of independently seeded
    systems (one seed's lossy tail alone swings the run by about 15%)."""

    name = "service"

    def load(self):
        import repro.analysis.experiments  # noqa: F401
        import repro.service  # noqa: F401
        from repro.core import adhoc  # noqa: F401

        return _load_c_loop()

    def inputs(self, seed: int):
        from repro.analysis.experiments import build_family
        from repro.faults import FaultPlan
        from repro.service import build_workload

        batch = []
        for sub_seed in range(seed * SERVICE_BATCH, (seed + 1) * SERVICE_BATCH):
            graph = build_family("sparse-random", SERVICE_N, seed=sub_seed)
            workload = build_workload(
                "poisson", graph, rate=SERVICE_RATE, duration=SERVICE_DURATION, seed=sub_seed
            )
            batch.append((sub_seed, graph, workload))
        return {"batch": batch, "plan": FaultPlan(loss=SERVICE_LOSS)}

    def body(self, inputs):
        from repro.core.adhoc import AdhocNetwork
        from repro.service import ServiceDriver

        served = []
        for sub_seed, graph, workload in inputs["batch"]:
            net = AdhocNetwork(graph, seed=sub_seed, reliable=True, transport="sr")
            driver = ServiceDriver(
                net, workload, faults=inputs["plan"], fault_seed=sub_seed
            )
            served.append((driver.run(), net.sim.stats, net.sim.steps, len(net.nodes)))
        return served

    def outcome(self, inputs, out, hooks) -> Outcome:
        from repro.faults.reliable import retransmission_overhead
        from repro.obs.metrics import Histogram

        result = Outcome()
        latency = Histogram()
        totals: Dict[str, int] = {}
        figures = dict.fromkeys(("ops", "deferrals", "dropped", "probes", "answered"), 0)
        service_messages = all_messages = protocol_messages = 0
        digest = []
        for (report, stats, steps, nodes), (_seed, _graph, workload) in zip(
            out, inputs["batch"]
        ):
            result.check(not report.budget_exhausted, "step budget exhausted")
            undeliverable = report.transport_totals.get("undeliverable", 0)
            result.check(undeliverable == 0, f"{undeliverable} undeliverable messages")
            result.check(
                report.operations == len(workload.events),
                f"{report.operations} of {len(workload.events)} ops injected",
            )
            # The driver sheds a probe whose initiator stays busy (its
            # load-shedding policy, counted in dropped_probes): a shed probe
            # is an error in error_rate, not a failed check.  A probe that
            # is neither answered nor shed fails.
            result.check(
                report.incomplete_probes == report.dropped_probes,
                f"{report.incomplete_probes} probes unanswered, "
                f"{report.dropped_probes} of them shed",
                len(report.probes),
            )
            for probe in report.probes:
                if probe.completed_at is not None:
                    latency.observe(probe.latency)
            for key, value in report.transport_totals.items():
                totals[key] = totals.get(key, 0) + value
            figures["ops"] += report.operations
            figures["deferrals"] += report.deferrals
            result.shed += report.dropped_probes
            figures["dropped"] += report.fault_counts.get("loss", 0)
            figures["probes"] += len(report.probes)
            figures["answered"] += len(report.completed_probes)
            service_messages += report.service_messages
            all_messages += stats.total_messages
            protocol_messages += retransmission_overhead(stats)["protocol_messages"]
            result.protocol.steps += steps
            result.protocol.nodes += nodes
            digest.append(
                (steps, stats.total_messages, stats.total_bits)
                + tuple(probe.latency for probe in report.probes)
            )
        if hooks is not None:
            payloads = hooks.payloads
            result.protocol.msgs.update(payloads.msgs)
            result.protocol.bits.update(payloads.bits)
            result.protocol.ids = payloads.ids
        result.figures.update(
            runs=len(out),
            ops=figures["ops"],
            probe_p50_steps=latency.percentile(50),
            probe_p99_steps=latency.percentile(99),
            msgs_per_op=service_messages / max(1, figures["ops"]),
            deferrals=figures["deferrals"],
            shed_probes=result.shed,
            probe_completion=figures["answered"] / max(1, figures["probes"]),
            dropped=figures["dropped"],
            retransmissions=totals.get("retransmissions", 0),
            acks=totals.get("acks_piggybacked", 0)
            + totals.get("acks_delayed", 0)
            + totals.get("acks_immediate", 0),
            undeliverable=totals.get("undeliverable", 0),
            goodput=protocol_messages / max(1, all_messages),
        )
        result.digest = tuple(digest)
        return result


class Observed:
    """A ``trace record``-shaped run: Generic, seeded random scheduler,
    counting recorder plus the default metrics sampler."""

    name = "observed"

    def load(self):
        from repro.core import runner  # noqa: F401
        from repro.obs import events, metrics  # noqa: F401

        return _load_c_loop()

    def inputs(self, seed: int):
        from repro.graphs.generators import random_weakly_connected

        return {"seed": seed, "graph": random_weakly_connected(4096, 8192, seed)}

    def body(self, inputs):
        from repro.core.runner import build_simulation
        from repro.obs import Recorder, attach_metrics

        recorder = Recorder(keep_events=False)
        sim, nodes = build_simulation(
            inputs["graph"], "generic", seed=inputs["seed"], obs=recorder
        )
        timeline = attach_metrics(sim, recorder)
        sim.run()
        timeline.finish(sim.steps)
        return sim, nodes, timeline

    def outcome(self, inputs, out, hooks) -> Outcome:
        from repro.core.result import collect_result
        from repro.verification.invariants import InvariantViolation, verify_discovery

        sim, nodes, timeline = out
        graph = inputs["graph"]
        result = Outcome()
        try:
            verify_discovery(collect_result(graph, nodes, sim, "generic"), graph)
            verified = True
        except (InvariantViolation, RuntimeError) as exc:
            verified = False
            result.problems.append(f"verify_discovery: {exc}")
        result.check(verified, "observed run failed verify_discovery")
        result.check(len(timeline.samples) > 0, "metrics timeline took no samples")
        result.protocol.add_stats(sim.stats, sim.id_bits, sim.steps, graph.n)
        result.add_slack(sim.stats, graph.n, "generic")
        result.figures["runs"] = 1
        result.digest = (
            sim.steps,
            sim.stats.total_messages,
            sim.stats.total_bits,
            len(timeline.samples),
        )
        return result


WORKLOADS = {w.name: w for w in (Scale(), Sweep(), Service(), Observed())}
