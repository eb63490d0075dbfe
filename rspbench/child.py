"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

Usage: ``python3 rspbench/child.py '<json config>'`` with ``src`` on
``PYTHONPATH``.  The last line of standard output is a JSON object; its
``ready`` field is ``time.monotonic()`` when the workload's entry point had
been imported and was callable, which the parent subtracts from its own
clock reading taken just before launching this interpreter.  Its
``speed_s`` field holds the ``SpeedSampler`` timings taken while the
interpreter set up and while the entry point ran.

Modes:

- ``campaign``: ``repro.engine.__main__.main(argv)``, the
  ``python -m repro.engine`` command line;
- ``exact``: ``repro.flow.run_rsp_flow`` on the paper suite, then an exact
  ``RSPMapper.map_kernel`` for every (kernel, non-base design) pair, then
  (outside the timed call) the estimate-versus-exact comparison, a digest
  of every schedule and, with ``oracle`` set, the independent output
  oracle;
- ``prepare-exact``: fill a store with base schedules and profiles only;
- ``imports``: time ``import networkx`` alone, then the entry modules.

``trace`` wraps layer entry points (see ``layers.py``); ``probe`` only
counts the scheduler's feasibility probes.
"""

import contextlib
import json
import signal
import sys
import time

CAMPAIGN_MODULES = ("repro.engine.__main__",)
EXACT_MODULES = (
    "repro.engine.artifacts",
    "repro.flow",
    "repro.kernels",
    "repro.mapping.mapper",
)


def _import_all(names):
    for name in names:
        __import__(name)
    return [sys.modules[name] for name in names]


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpeedSampler:
    """Times a fixed pure-Python loop every ``interval`` seconds.

    The loop runs in a ``SIGALRM`` handler: on the same CPU, in the same
    thread and at the same moments as the program it interrupts, so when
    other tenants of a shared host slow that CPU they slow the loop alike.
    Samples are filed under the current phase ("setup" from the start,
    "call" inside ``phase("call")``) and dropped between phases.  The loop
    takes about 1.5% of the time it samples.
    """

    LOOPS = 6000

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = interval
        self.samples = {"setup": [], "call": []}
        self._bucket = self.samples["setup"]

    def _sample(self, signum, frame) -> None:
        if self._bucket is None:
            return
        start = time.perf_counter()
        table = {}
        for i in range(self.LOOPS):
            table[i & 31] = i
        self._bucket.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pause(self) -> None:
        self._bucket = None

    @contextlib.contextmanager
    def phase(self, name: str):
        self._bucket = self.samples[name]
        try:
            yield
        finally:
            self._bucket = None


def run_campaign(config, tracer, sampler):
    (cli,) = _import_all(CAMPAIGN_MODULES)
    ready = time.monotonic()
    sampler.pause()
    if tracer is not None:
        tracer.install()
    with sampler.phase("call"):
        start = time.perf_counter()
        status = cli.main(config["argv"])
        wall = time.perf_counter() - start
    return ready, wall, {"status": status}


def run_exact(config, tracer, sampler):
    artifacts, flow, kernels_module, mapper_module = _import_all(EXACT_MODULES)
    ready = time.monotonic()
    sampler.pause()
    if tracer is not None:
        tracer.install()
    with sampler.phase("call"):
        start = time.perf_counter()
        store = artifacts.ArtifactStore(config["store"])
        kernels = kernels_module.paper_suite()
        outcome = flow.run_rsp_flow(kernels, artifact_store=store)
        mapper = mapper_module.RSPMapper(store=store)
        designs = [d for d in outcome.exploration.evaluated if d.parameters.kind != "base"]
        exact = {
            (design.architecture.name, kernel.name): mapper.map_kernel(kernel, design.architecture)
            for design in designs
            for kernel in kernels
        }
        wall = time.perf_counter() - start
    return ready, wall, (outcome, kernels, designs, exact)


def schedule_digest(schedule) -> str:
    """Content digest of a schedule: every placement, binding and its length."""
    import hashlib

    entries = sorted(
        (e.name, e.cycle, e.row, e.col, e.latency, e.pe_occupancy, repr(e.shared_unit))
        for e in schedule.operations()
    )
    return hashlib.sha256(repr((schedule.length, entries)).encode()).hexdigest()


def check_exact(config, outcome, kernels, designs, exact):
    """Estimate-versus-exact pairs, and per mapping its schedule digest and
    any failure: below the base cycles always, and with ``oracle`` set a
    simulation error or a final memory that differs from ``oracle.py``'s."""
    import random

    from oracle import dense, evaluate, kernel_inputs
    from repro.sim.memory import DataMemory
    from repro.sim.simulator import ArraySimulator

    slacks = [
        design.stall_estimates[kernel.name].estimated_cycles
        - exact[(design.architecture.name, kernel.name)].cycles
        for design in designs
        for kernel in kernels
    ]
    failures = {}
    digests = {}
    simulator = ArraySimulator()
    for kernel in kernels:
        base = outcome.base_mappings[kernel.name]
        graph = base.dfg.to_dict()
        inputs = kernel_inputs(graph, random.Random(f"{config['seed']}:{kernel.name}"))
        expected = dense(evaluate(graph, inputs)) if config["oracle"] else None
        mappings = [base] + [exact[(d.architecture.name, kernel.name)] for d in designs]
        for mapping in mappings:
            label = f"{kernel.name}@{mapping.architecture.name}"
            digests[label] = schedule_digest(mapping.schedule)
            if mapping.cycles < base.cycles:
                failures[label] = f"{mapping.cycles} cycles < base {base.cycles}"
                continue
            if expected is None:
                continue
            memory = DataMemory(dense(inputs))
            try:
                simulator.run(mapping.schedule, mapping.dfg, memory)
            except Exception as error:  # any simulator failure is a failed mapping
                failures[label] = f"simulation error: {error}"
                continue
            got = {a: memory.as_list(a) for a in memory.arrays() if memory.as_list(a)}
            if got != expected:
                failures[label] = "memory differs from the oracle"
    return {
        "digests": digests,
        "failures": failures,
        "est_checked_pairs": len(slacks),
        "est_underrun_pairs": sum(1 for slack in slacks if slack < 0),
        "est_slack_min_cycles": min(slacks),
        "selected_exact_cycles": outcome.total_selected_cycles(),
        "base_cycles": outcome.total_base_cycles(),
    }


def prepare_exact(config) -> dict:
    artifacts, _, kernels_module, mapper_module = _import_all(EXACT_MODULES)
    store = artifacts.ArtifactStore(config["store"])
    mapper_module.RSPMapper(store=store).pipeline.profiles_for(kernels_module.paper_suite())
    return {}


def time_imports(config) -> dict:
    start = time.perf_counter()
    import networkx  # noqa: F401

    imported = time.perf_counter()
    _import_all(CAMPAIGN_MODULES if config["kind"] == "campaign" else EXACT_MODULES)
    return {"networkx_s": imported - start, "repro_s": time.perf_counter() - imported}


def main() -> None:
    config = json.loads(sys.argv[1])
    mode = config["mode"]
    if mode == "imports":
        print(json.dumps(time_imports(config)))
        return
    if mode == "prepare-exact":
        print(json.dumps(prepare_exact(config)))
        return
    sampler = SpeedSampler()
    sampler.start()
    tracer = None
    if config.get("trace") or config.get("probe"):
        from layers import LAYER_ENTRY_POINTS, PROBE_ENTRY_POINTS, LayerTracer

        if config.get("probe"):
            tracer = LayerTracer(PROBE_ENTRY_POINTS, timed=False)
        else:
            tracer = LayerTracer(LAYER_ENTRY_POINTS)
    runner = run_campaign if mode == "campaign" else run_exact
    ready, wall, produced = runner(config, tracer, sampler)
    sampler.stop()
    result = {
        "ready": ready,
        "wall_s": wall,
        "speed_s": sampler.samples,
        "peak_rss_mb": _peak_rss_mb(),
    }
    wall_spans = len(tracer.spans) if tracer is not None else 0
    if mode == "campaign":
        result.update(produced)
    else:
        result.update(check_exact(config, *produced))
    if tracer is not None:
        tracer.finish()
        layers = tracer.self_times(until=wall_spans)
        result["self_s"] = layers
        result["unaccounted_s"] = wall - sum(layers.values())
        result["after_self_s"] = tracer.self_times(since=wall_spans)
        result["counts"] = dict(tracer.counts)
        result["absent"] = tracer.absent
    print(json.dumps(result))


if __name__ == "__main__":
    main()
