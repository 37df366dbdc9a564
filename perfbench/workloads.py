"""The benchmark's workloads: seeded inputs, set-up, timed loop and counts.

Each workload turns ``--seed`` into request bytes (and the reference
model's verdicts for them) before anything is built or timed, builds the
system under test through the package's public API, and drives it from one
thread with one call outstanding at a time (a closed loop). "Connections"
are simulated client ids, each with its own SDRaD domain on the server.

A run issues a fixed number of calls, ``seconds`` times the workload's
nominal call rate, so that one seed always gives the same inputs and the
same exact counts; the nominal rates were measured on a 2-core x86 VM so
that a run lasts roughly ``seconds`` there. The calls are issued in slices
of ``slice_calls``, each followed by a timed pass of the workload's
reference kernel (see ``speed``), so that host times can be scaled to a
fixed host speed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Iterator

import numpy as np

from repro.apps.kvstore import KVStore
from repro.apps.memcached_server import MemcachedServer
from repro.fleet import Fleet, HealthMonitor
from repro.obs.hub import Observability
from repro.sdrad import telemetry
from repro.sdrad.runtime import SdradRuntime
from repro.sim.clock import VirtualClock
from repro.sim.rng import RngFactory
from repro.workloads.clients import MaliciousMemcachedClient, MemcachedClient
from repro.workloads.zipf import KeyValueWorkload, Keyspace, ValueSizer

from .oracle import CONTAINMENT_ERROR, STORED, get_ok, multiget_ok
from .spans import SpanRecorder
from .speed import ReferenceKernel

#: Fewest calls in a run: at least 100 samples lie beyond the p99.
MIN_CALLS = 10_000

#: Oracle verdict of a request that must be answered ``STORED``.
_SET = "set"
#: Oracle verdict of an attack request: it must get the containment error.
_ATTACK = "attack"


@dataclass
class Run:
    """What one timed phase measured."""

    #: Host time of each client call, one slot per call.
    latency_ns: array
    #: Host time of each call answered with the containment error, in the
    #: first ``recoveries`` slots, and the index of that call.
    recovery_ns: array
    recovery_call: array
    #: Host time of each slice of ``slice_calls`` calls, and of the
    #: reference kernel pass that followed it.
    slice_ns: array
    reference_ns: array
    slice_calls: int
    reference: ReferenceKernel
    recoveries: int = 0
    #: Requests completed: a pipeline counts its length, a fleet op one.
    requests: int = 0
    #: Host time of the timed phase: the sum of its slices.
    wall_ns: int = 0
    #: Virtual seconds the cost model charged for the timed phase.
    virtual_s: float = 0.0
    #: Responses the reference model disagrees with.
    wrong: int = 0
    #: Benign requests answered with an availability error (fleet only).
    unavailable: int = 0
    #: Calls that raised, by exception type.
    raised: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.wrong + self.unavailable + sum(self.raised.values())

    def slices(self, calls: int) -> Iterator[tuple[int, int]]:
        """Yield the ``[lo, hi)`` call ranges of the timed phase.

        Times each slice and the reference kernel pass after it, and sets
        ``wall_ns`` once the last slice is done.
        """
        step = self.slice_calls
        now = perf_counter_ns
        slice_ns, reference_ns = self.slice_ns, self.reference_ns
        reference = self.reference.time
        for k, lo in enumerate(range(0, calls, step)):
            started = now()
            yield lo, min(lo + step, calls)
            slice_ns[k] = now() - started
            reference_ns[k] = reference()
        self.wall_ns = sum(slice_ns)

    def call_factors(self) -> np.ndarray:
        """Reference-speed scale factor of every call, by its slice."""
        factors = self.reference.scale_factors(self.reference_ns)
        return np.repeat(factors, self.slice_calls)[: len(self.latency_ns)]

    @property
    def scaled_wall_ns(self) -> float:
        """``wall_ns`` at reference speed: each slice scaled by its factor."""
        return float((self.reference.scale_factors(self.reference_ns) * self.slice_ns).sum())


def new_run(inputs: dict) -> Run:
    """Sample storage for one timed phase over ``inputs``.

    The caller allocates it before taking the RSS baseline, so the samples
    are not counted as memory the program retained.
    """
    calls, step = inputs["calls"], inputs["slice_calls"]
    slices = -(-calls // step)
    attacks = inputs.get("attacks", 0)
    return Run(
        latency_ns=array("q", bytes(8 * calls)),
        recovery_ns=array("q", bytes(8 * attacks)),
        recovery_call=array("q", bytes(8 * attacks)),
        slice_ns=array("q", bytes(8 * slices)),
        reference_ns=array("q", bytes(8 * slices)),
        slice_calls=step,
        reference=inputs["reference"],
    )


def _raised(run: Run, exc: Exception, requests: int) -> None:
    name = type(exc).__name__
    run.raised[name] = run.raised.get(name, 0) + requests


# ----------------------------------------------------------------------
# Instrumentation shared by the workloads
# ----------------------------------------------------------------------


def instrument_server(server: MemcachedServer, rec: SpanRecorder) -> None:
    """Spans around the server, its runtime's domain entries and its store."""
    server.handle = rec.wrap("memcached.handle", server.handle)
    server.handle_batch = rec.wrap("memcached.handle_batch", server.handle_batch)
    store = server.store
    store.get = rec.wrap("kvstore.get", store.get)
    store.get_many = rec.wrap("kvstore.get_many", store.get_many)
    store.set = rec.wrap("kvstore.set", store.set)

    runtime = server.runtime
    execute = runtime.execute
    ok_id = rec.name_index("sdrad.execute")
    fault_id = rec.name_index("sdrad.execute_fault")
    open_, close = rec.open, rec.close
    # The parser handed to ``execute`` runs inside the domain: its own span
    # separates parsing from entry, exit and rewind.
    parsers: dict[Callable, Callable] = {}

    def traced_execute(udi, fn, *args, **kwargs):
        parser = parsers.get(fn)
        if parser is None:
            parser = parsers[fn] = rec.wrap("memcached.parse", fn)
        open_(ok_id)
        result = None
        try:
            result = execute(udi, parser, *args, **kwargs)
            return result
        finally:
            close(fault_id if result is not None and not result.ok else -1)

    runtime.execute = traced_execute


def runtime_counts(runtime: SdradRuntime) -> dict[str, int]:
    snap = telemetry.snapshot(runtime)
    memory = snap["memory"]
    plans = runtime.space.plans
    return {
        "entries": snap["totals"]["entries"],
        "faults": snap["totals"]["faults"],
        "rewinds": snap["totals"]["rewinds"],
        "gate_writes": memory["gate_writes"],
        "reentry_hits": memory["reentry_hits"],
        "reentry_misses": memory["reentry_misses"],
        "trace_events": snap["trace_events"],
        "checked_accesses": memory["checked_loads"] + memory["checked_stores"],
        "tlb_hits": memory["tlb_hits"],
        "tlb_misses": memory["tlb_misses"],
        "tlb_flushes": memory["tlb_flushes"],
        "plan_hits": plans.hits if plans is not None else 0,
        "plan_builds": plans.built if plans is not None else 0,
        "plan_shootdowns": plans.shootdowns if plans is not None else 0,
    }


def store_counts(store: KVStore) -> dict[str, int]:
    stats = store.stats
    return {
        "gets": stats.gets,
        "sets": stats.sets,
        "hits": stats.hits,
        "evictions": stats.evictions,
    }


def _shared_workload(p, keyspace: Keyspace, rngs: RngFactory) -> KeyValueWorkload:
    """One Zipf sampler for all of a workload's clients.

    Building the alias table over 10^6 keys costs about half a second and
    tens of MB, so clients share one instead of building one each.
    """
    rng = rngs.stream("keys")
    return KeyValueWorkload(
        keyspace, p.skew, rng, ValueSizer(rng, median=p.value_median)
    )


def _add(total: dict[str, int], part: dict[str, int]) -> None:
    for name, value in part.items():
        total[name] = total.get(name, 0) + value


class _OneServer:
    """Workloads whose system under test is one ``MemcachedServer``.

    The server itself is the built "world"; its runtime and store hang off it.
    """

    def instrument(self, server: MemcachedServer, rec: SpanRecorder) -> None:
        instrument_server(server, rec)

    def counts(self, server: MemcachedServer) -> dict[str, int]:
        out = runtime_counts(server.runtime)
        _add(out, store_counts(server.store))
        return out

    def consistency(self, server: MemcachedServer) -> list[str]:
        return telemetry.consistency_check(server.runtime)

    def backend(self, server: MemcachedServer) -> str:
        return server.runtime.backend.name


# ----------------------------------------------------------------------
# kv_pipelined
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KvPipelinedParams:
    connections: int = 8
    pipeline: int = 16
    set_fraction: float = 0.1
    #: Small enough that every key fits the default 4 MiB slab arena at
    #: once, under any amount of overwriting, so no run length evicts.
    keyspace: int = 12_000
    skew: float = 0.99
    value_median: int = 128
    #: Hottest ranks stored before the timed phase.
    preload: int = 4_000
    #: Pipelines per second the nominal run length assumes.
    calls_per_second: int = 3_600
    #: Calls per slice between reference kernel passes (about 25 ms).
    slice_calls: int = 90
    #: More parsing than the other workloads' kernels (0.55 of its time, not
    #: 0.4): in recordings of ten runs this share kept the spread of scaled
    #: throughput, p50 and p99 across runs lowest together.
    reference: ReferenceKernel = ReferenceKernel(parse_rounds=470, lookups=590)


class KvPipelined(_OneServer):
    """Benign pipelined serving: one server, per-connection domains, obs off.

    Every call is a 16-request ``handle_batch``: one domain entry parses the
    whole pipeline and the store applies it. Nothing faults and nothing is
    evicted, so every miss on a key the model holds is an error.
    """

    name = "kv_pipelined"
    params = KvPipelinedParams()

    def generate(self, seed: int, seconds: int) -> dict:
        p = self.params
        rngs = RngFactory(seed)
        keyspace = Keyspace(p.keyspace)
        shared = _shared_workload(p, keyspace, rngs)
        preload = [
            (keyspace.key(rank), shared.next_value()) for rank in range(p.preload)
        ]
        clients = [
            MemcachedClient(f"conn-{i}", shared, rngs.stream(f"client/{i}"), p.set_fraction)
            for i in range(p.connections)
        ]
        model = dict(preload)
        n = max(MIN_CALLS, seconds * p.calls_per_second)
        cids, batches, verdicts = [], [], []
        for i in range(n):
            client = clients[i % p.connections]
            batch = client.next_batch(p.pipeline)
            cids.append(client.client_id)
            batches.append(batch)
            verdicts.append(tuple(_verdict(raw, model) for raw in batch))
        return {
            "calls": n,
            "slice_calls": p.slice_calls,
            "reference": p.reference,
            "preload": preload,
            "client_ids": [c.client_id for c in clients],
            "cids": cids,
            "batches": batches,
            "verdicts": verdicts,
        }

    def setup(self, inputs: dict) -> MemcachedServer:
        server = MemcachedServer(SdradRuntime())
        for cid in inputs["client_ids"]:
            server.connect(cid)
        for key, value in inputs["preload"]:
            server.store.set(key, value)
        return server

    def drive(self, server: MemcachedServer, inputs: dict, run: Run) -> Run:
        handle_batch = server.handle_batch
        clock = server.runtime.clock
        cids, batches, verdicts = inputs["cids"], inputs["batches"], inputs["verdicts"]
        n = inputs["calls"]
        latency = run.latency_ns
        run.requests = n * self.params.pipeline
        wrong = 0
        now = perf_counter_ns
        virtual_start = clock.now
        for lo, hi in run.slices(n):
            for i in range(lo, hi):
                batch = batches[i]
                t0 = now()
                try:
                    responses = handle_batch(cids[i], batch)
                except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                    latency[i] = now() - t0
                    _raised(run, exc, len(batch))
                    continue
                latency[i] = now() - t0
                for response, verdict in zip(responses, verdicts[i]):
                    if verdict is _SET:
                        if response != STORED:
                            wrong += 1
                    elif not get_ok(verdict[0], verdict[1], response, False):
                        wrong += 1
        run.virtual_s = clock.now - virtual_start
        run.wrong = wrong
        return run


def _verdict(raw: bytes, model: dict):
    """Run ``raw`` through the reference model; return what it must answer."""
    if raw.startswith(b"get "):
        key = raw[4:-2]
        return (key, model.get(key))
    line_end = raw.index(b"\r\n")
    key = raw[:line_end].split(b" ")[1]
    model[key] = raw[line_end + 2 : -2]
    return _SET


# ----------------------------------------------------------------------
# kv_attack
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KvAttackParams:
    benign: int = 8
    malicious: int = 4
    benign_set_fraction: float = 0.2
    attack_fraction: float = 0.2
    keyspace: int = 1_000_000
    skew: float = 0.99
    value_median: int = 128
    #: Slab arena of the store, smaller than the working set: sets evict.
    arena_bytes: int = 1024 * 1024
    calls_per_second: int = 24_000
    slice_calls: int = 600
    #: About 0.4 of the kernel's time parsing, as for the fleet: the share
    #: that best tracked these slices in 30 s recordings.
    reference: ReferenceKernel = ReferenceKernel(parse_rounds=350, lookups=750)


def _is_attack(raw: bytes) -> bool:
    """The two exploit payloads ``MaliciousMemcachedClient`` mixes in."""
    if raw.startswith(b"set pwn "):
        return True
    return raw.startswith(b"get ") and len(raw) - 6 > 256


class KvAttack(_OneServer):
    """E4 containment under write pressure: every request enters a domain.

    Benign and malicious connections send one request per ``handle`` call.
    Attack requests fault inside their connection's domain, which is rewound
    and answered with the containment error; every other request must be
    answered as the reference model says, except that evictions allow
    misses.
    """

    name = "kv_attack"
    params = KvAttackParams()

    def generate(self, seed: int, seconds: int) -> dict:
        p = self.params
        rngs = RngFactory(seed)
        shared = _shared_workload(p, Keyspace(p.keyspace), rngs)
        clients = [
            MemcachedClient(
                f"benign-{i}", shared, rngs.stream(f"client/benign-{i}"),
                p.benign_set_fraction,
            )
            for i in range(p.benign)
        ] + [
            MaliciousMemcachedClient(
                f"mallory-{i}", shared, rngs.stream(f"client/mallory-{i}"),
                p.attack_fraction,
            )
            for i in range(p.malicious)
        ]
        model: dict = {}
        n = max(MIN_CALLS, seconds * p.calls_per_second)
        cids, raws, verdicts = [], [], []
        attacks = 0
        for i in range(n):
            client = clients[i % len(clients)]
            raw = client.next_request()
            cids.append(client.client_id)
            raws.append(raw)
            if _is_attack(raw):
                attacks += 1
                verdicts.append(_ATTACK)
            else:
                verdicts.append(_verdict(raw, model))
        return {
            "calls": n,
            "slice_calls": p.slice_calls,
            "reference": p.reference,
            "client_ids": [c.client_id for c in clients],
            "cids": cids,
            "raws": raws,
            "verdicts": verdicts,
            "attacks": attacks,
        }

    def setup(self, inputs: dict) -> MemcachedServer:
        runtime = SdradRuntime()
        store = KVStore(runtime, arena_size=self.params.arena_bytes)
        server = MemcachedServer(runtime, store=store)
        for cid in inputs["client_ids"]:
            server.connect(cid)
        return server

    def drive(self, server: MemcachedServer, inputs: dict, run: Run) -> Run:
        handle = server.handle
        clock = server.runtime.clock
        cids, raws, verdicts = inputs["cids"], inputs["raws"], inputs["verdicts"]
        n = inputs["calls"]
        latency, recovery, recovery_call = run.latency_ns, run.recovery_ns, run.recovery_call
        run.requests = n
        recovered = wrong = 0
        now = perf_counter_ns
        virtual_start = clock.now
        for lo, hi in run.slices(n):
            for i in range(lo, hi):
                t0 = now()
                try:
                    response = handle(cids[i], raws[i])
                except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                    latency[i] = now() - t0
                    _raised(run, exc, 1)
                    continue
                elapsed = now() - t0
                latency[i] = elapsed
                verdict = verdicts[i]
                if verdict is _ATTACK:
                    if response == CONTAINMENT_ERROR:
                        recovery[recovered] = elapsed
                        recovery_call[recovered] = i
                        recovered += 1
                    else:
                        wrong += 1
                elif verdict is _SET:
                    if response != STORED:
                        wrong += 1
                elif not get_ok(verdict[0], verdict[1], response, True):
                    wrong += 1
        run.virtual_s = clock.now - virtual_start
        run.recoveries = recovered
        run.wrong = wrong
        return run


# ----------------------------------------------------------------------
# fleet_failover
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetFailoverParams:
    shards: int = 8
    #: Open-loop arrivals per virtual second.
    rate: float = 5_000.0
    multiget_fraction: float = 0.3
    set_fraction: float = 0.2
    multiget_size: int = 8
    keyspace: int = 1_000_000
    skew: float = 0.99
    value_median: int = 128
    preload: int = 2_000
    kill_shard: str = "shard-1"
    #: Kill time and outage length as shares of the nominal virtual run.
    kill_at_share: float = 0.3
    outage_share: float = 0.1
    calls_per_second: int = 6_000
    slice_calls: int = 150
    reference: ReferenceKernel = ReferenceKernel(parse_rounds=350, lookups=750)


_GET, _PUT, _MULTIGET = 0, 1, 2


class FleetFailover:
    """An 8-shard fleet with a live obs hub, a health monitor and a kill.

    The loop advances the shared virtual clock to each open-loop arrival,
    lets the health monitor probe, then issues one front-end op. One shard
    is killed part-way through, fails over, restarts empty and rejoins.
    Requests that reach the dead shard before failover are answered with an
    availability error: they fail, but are not wrong.
    """

    name = "fleet_failover"
    params = FleetFailoverParams()

    def generate(self, seed: int, seconds: int) -> dict:
        p = self.params
        rngs = RngFactory(seed)
        keyspace = Keyspace(p.keyspace)
        shared = _shared_workload(p, keyspace, rngs)
        op_rng = rngs.stream("opmix")
        # Poisson arrivals, counted rather than bounded by a horizon so the
        # run length is the call count.
        arrivals = rngs.stream("arrivals")
        preload = [
            (keyspace.key(rank), shared.next_value()) for rank in range(p.preload)
        ]
        model = dict(preload)
        n = max(MIN_CALLS, seconds * p.calls_per_second)
        times = array("d", bytes(8 * n))
        ops = []
        t = 0.0
        for i in range(n):
            t += arrivals.expovariate(p.rate)
            times[i] = t
            draw = op_rng.random()
            if draw < p.multiget_fraction:
                keys = [shared.next_key() for _ in range(p.multiget_size)]
                ops.append((_MULTIGET, keys, [model.get(k) for k in keys]))
            elif draw < p.multiget_fraction + p.set_fraction:
                key, value = shared.next_key(), shared.next_value()
                model[key] = value
                ops.append((_PUT, key, value))
            else:
                key = shared.next_key()
                ops.append((_GET, key, model.get(key)))
        horizon = n / p.rate
        return {
            "calls": n,
            "slice_calls": p.slice_calls,
            "reference": p.reference,
            "preload": preload,
            "times": times,
            "ops": ops,
            "kill_at": p.kill_at_share * horizon,
            "outage": p.outage_share * horizon,
        }

    def setup(self, inputs: dict) -> dict:
        clock = VirtualClock()
        obs = Observability(clock=clock)
        fleet = Fleet(self.params.shards, clock=clock, obs=obs)
        HealthMonitor(fleet)
        fleet.set_many(inputs["preload"])
        # Shard images replaced by a restart, and the recorder that must
        # instrument their successors.
        world = {"fleet": fleet, "retired": [], "rec": None}
        for shard in fleet.shards.values():
            _watch_restarts(world, shard)
        return world

    def instrument(self, world: dict, rec: SpanRecorder) -> None:
        fleet = world["fleet"]
        world["rec"] = rec
        fleet.get = rec.wrap("fleet.get", fleet.get)
        fleet.set = rec.wrap("fleet.set", fleet.set)
        fleet.multiget = rec.wrap("fleet.multiget", fleet.multiget)
        fleet.health.tick = rec.wrap("fleet.health_tick", fleet.health.tick)
        for shard in fleet.shards.values():
            instrument_server(shard.server, rec)

    def drive(self, world: dict, inputs: dict, run: Run) -> Run:
        p = self.params
        fleet = world["fleet"]
        clock = fleet.clock
        get, put, multiget = fleet.get, fleet.set, fleet.multiget
        tick = fleet.health.tick
        victim = fleet.shards[p.kill_shard]
        kill_at, outage = inputs["kill_at"], inputs["outage"]
        times, ops = inputs["times"], inputs["ops"]
        n = inputs["calls"]
        latency = run.latency_ns
        run.requests = n
        wrong = unavailable = 0
        virtual = 0.0
        killed = False
        now = perf_counter_ns
        for lo, hi in run.slices(n):
            for i in range(lo, hi):
                t = times[i]
                if t > clock.now:
                    clock.advance_to(t)
                if not killed and t >= kill_at:
                    victim.kill(outage)
                    killed = True
                tick(t)
                kind, a, b = ops[i]
                t0 = now()
                try:
                    if kind == _GET:
                        response = get(a)
                    elif kind == _PUT:
                        response = put(a, b)
                    else:
                        response = multiget(a)
                except Exception as exc:  # noqa: BLE001 - counted, loop goes on
                    latency[i] = now() - t0
                    _raised(run, exc, 1)
                    continue
                latency[i] = now() - t0
                for _, service in fleet.last_op_services:
                    virtual += service
                if fleet.last_op_failed:
                    unavailable += 1
                elif kind == _GET:
                    if not get_ok(a, b, response, True):
                        wrong += 1
                elif kind == _PUT:
                    if response != STORED:
                        wrong += 1
                elif not multiget_ok(a, b, response, True):
                    wrong += 1
        run.virtual_s = virtual
        run.wrong = wrong
        run.unavailable = unavailable
        return run

    def _runtimes_and_stores(self, world: dict):
        live = [(s.runtime, s.store) for s in world["fleet"].shards.values()]
        return live + world["retired"]

    def counts(self, world: dict) -> dict[str, int]:
        fleet = world["fleet"]
        obs = fleet.obs
        out: dict[str, int] = {}
        for runtime, store in self._runtimes_and_stores(world):
            _add(out, runtime_counts(runtime))
            _add(out, store_counts(store))
        metrics = fleet.metrics
        out.update(
            ops=metrics.ops,
            multigets=metrics.multigets,
            scatter_batches=metrics.scatter_batches,
            fleet_errors=metrics.errors,
            failovers=metrics.failovers,
            rejoins=metrics.rejoins,
            restarts=sum(s.restarts for s in fleet.shards.values()),
            obs_spans=len(obs.buffer),
            obs_dropped=obs.buffer.dropped,
        )
        return out

    def consistency(self, world: dict) -> list[str]:
        """Per-runtime books, then the shared hub against all runtimes.

        ``consistency_check`` compares a runtime's tracer with the obs hub,
        which every shard (and every shard image before a restart) shares,
        so its per-runtime obs comparison is run here at fleet level: the
        hub's counters against the tracers of all runtimes together.
        """
        obs = world["fleet"].obs
        runtimes = [rt for rt, _ in self._runtimes_and_stores(world)]
        problems = []
        for runtime in runtimes:
            runtime.obs = None
            try:
                problems.extend(telemetry.consistency_check(runtime))
            finally:
                runtime.obs = obs
        pairs = [
            ("domain.rewind", "sdrad_rewinds_total"),
            ("domain.fault", "sdrad_domain_faults_total"),
            ("domain.enter", "sdrad_domain_entries_total"),
            ("domain.init", "sdrad_domains_created_total"),
            ("domain.destroy", "sdrad_domains_destroyed_total"),
        ]
        for kind, counter in pairs:
            traced = sum(rt.tracer.count(kind) for rt in runtimes)
            counted = obs.registry.counter_total(counter)
            if traced != counted:
                problems.append(
                    f"tracers saw {traced} {kind!r} events but obs counter "
                    f"{counter!r} totals {counted}"
                )
        if obs.open_span_count:
            problems.append(f"{obs.open_span_count} obs span(s) still open")
        problems.extend(f"span tree: {p}" for p in obs.buffer.tree_violations())
        return problems

    def backend(self, world: dict) -> str:
        return next(iter(world["fleet"].shards.values())).runtime.backend.name


def _watch_restarts(world: dict, shard) -> None:
    """Keep a restarted shard's old image counted, and re-instrument it."""
    restart = shard.restart

    def watched_restart() -> None:
        world["retired"].append((shard.runtime, shard.store))
        restart()
        if world["rec"] is not None:
            instrument_server(shard.server, world["rec"])

    shard.restart = watched_restart


WORKLOADS = {w.name: w for w in (KvPipelined(), KvAttack(), FleetFailover())}
