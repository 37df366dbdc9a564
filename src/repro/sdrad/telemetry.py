"""Runtime telemetry: one structured snapshot of everything observable.

Operators of a rewind-based service need the numbers SDRaD makes available
— per-domain fault mixes, rewind counts, isolation costs, key-virtualisation
pressure — in one place. :func:`snapshot` aggregates them from a runtime
into a JSON-friendly dict; servers and experiments attach it to their
reports, and tests use it as a single consistency check across subsystems.
"""

from __future__ import annotations

from typing import Any

from .constants import ROOT_UDI
from .runtime import SdradRuntime


def snapshot(runtime: SdradRuntime) -> dict[str, Any]:
    """Aggregate a runtime's observable state."""
    domains = []
    total_faults = 0
    total_rewinds = 0
    total_entries = 0
    fault_mix: dict[str, int] = {}
    for domain in runtime.domains():
        stats = domain.stats
        total_faults += stats.faults
        total_rewinds += stats.rewinds
        total_entries += stats.entries
        for mechanism, count in stats.fault_kinds.items():
            fault_mix[mechanism] = fault_mix.get(mechanism, 0) + count
        domains.append(
            {
                "udi": domain.udi,
                "pkey": domain.pkey,
                "state": domain.state.value,
                "entries": stats.entries,
                "clean_exits": stats.clean_exits,
                "faults": stats.faults,
                "rewinds": stats.rewinds,
                "heap_bytes": domain.heap_size,
                "stack_bytes": domain.stack_size,
                "heap_live_blocks": domain.heap.stats().live_blocks,
                "bytes_copied_in": stats.bytes_copied_in,
                "bytes_copied_out": stats.bytes_copied_out,
            }
        )

    space = runtime.space
    tlb_lookups = space.tlb_hits + space.tlb_misses
    memory = {
        "backend": space.backend.name,
        "space_bytes": space.size,
        "mapped_bytes": space.page_table.mapped_bytes(),
        "checked_loads": space.loads,
        "checked_stores": space.stores,
        "hardware_faults": space.faults,
        # Gate-write count; "wrpkru" is the historical (MPK) name, kept so
        # dashboards and goldens survive the backend axis. gate_writes is
        # the substrate-neutral alias.
        "wrpkru_writes": space.gate.writes,
        "gate_writes": space.gate.writes,
        "tlb_enabled": space.tlb_enabled,
        "tlb_hits": space.tlb_hits,
        "tlb_misses": space.tlb_misses,
        "tlb_flushes": space.tlb_flushes,
        "tlb_hit_rate": space.tlb_hits / tlb_lookups if tlb_lookups else 0.0,
        "reentry_cache_enabled": runtime.reentry_enabled,
        "reentry_hits": runtime.reentry_hits,
        "reentry_misses": runtime.reentry_misses,
        "reentry_invalidations": runtime.reentry_invalidations,
    }

    out: dict[str, Any] = {
        "virtual_time": runtime.clock.now,
        "domains": domains,
        "domain_count": len(domains) - 1,  # excluding root
        "totals": {
            "entries": total_entries,
            "faults": total_faults,
            "rewinds": total_rewinds,
            "fault_mix": fault_mix,
            "recovery_time": total_rewinds * runtime.cost.rewind,
        },
        "memory": memory,
        "trace_events": runtime.tracer.recorded,
    }
    if runtime.keys is not None:
        out["key_virtualization"] = {
            "binds": runtime.keys.stats.binds,
            "evictions": runtime.keys.stats.evictions,
            "hits": runtime.keys.stats.hits,
            "hit_rate": runtime.keys.hit_rate(),
            "pages_retagged": runtime.keys.stats.pages_retagged,
            "bound_domains": len(runtime.keys.bound_domains),
            "free_physical_keys": runtime.keys.free_physical_keys,
        }
    if runtime.obs is not None:
        out["obs"] = {
            "sampling": runtime.obs.sampling,
            "spans": len(runtime.obs.buffer),
            "open_spans": runtime.obs.open_span_count,
            "dropped_spans": runtime.obs.buffer.dropped,
            "metrics": runtime.obs.registry.snapshot(),
        }
    return out


def consistency_check(runtime: SdradRuntime) -> list[str]:
    """Cross-subsystem invariants; returns human-readable violations.

    Used by integration tests as a final sweep: an empty list means the
    runtime's books balance.
    """
    problems: list[str] = []
    data = snapshot(runtime)
    totals = data["totals"]

    trace_rewinds = runtime.tracer.count("domain.rewind")
    if trace_rewinds != totals["rewinds"]:
        problems.append(
            f"trace says {trace_rewinds} rewinds, domain stats say "
            f"{totals['rewinds']}"
        )
    trace_faults = runtime.tracer.count("domain.fault")
    if trace_faults != totals["faults"]:
        problems.append(
            f"trace says {trace_faults} faults, domain stats say "
            f"{totals['faults']}"
        )
    if sum(totals["fault_mix"].values()) != totals["faults"]:
        problems.append("fault mix does not sum to total faults")

    for domain in data["domains"]:
        if domain["udi"] == ROOT_UDI:
            continue
        if domain["state"] == "destroyed":
            problems.append(f"destroyed domain {domain['udi']} still listed")
        if domain["faults"] < domain["rewinds"] and domain["rewinds"] > 0:
            # every rewind follows a fault (discard() can also be called
            # directly, in which case stats.rewinds may exceed faults —
            # only runtime-driven domains are checked here)
            pass

    entries = runtime.contexts.depth
    if entries != 0:
        problems.append(f"{entries} execution context(s) left on the stack")

    # Obs cross-checks: the obs metric counters must track the tracer's
    # per-kind counts event-for-event. Those counts are exact over the
    # whole run (only the tracer's ring of recent events is bounded) and,
    # unlike domain stats, survive domain destroys, so they are the
    # reference count for ephemeral domains.
    # Metrics are exempt from span sampling precisely so this holds at any
    # sampling rate. Caveat: these compare one runtime against the hub, so
    # they assume the hub is not shared with other runtimes (a cluster's
    # shared hub aggregates across workers and must be checked at the
    # cluster level instead).
    obs = runtime.obs
    if obs is not None:
        pairs = [
            ("domain.rewind", "sdrad_rewinds_total"),
            ("domain.fault", "sdrad_domain_faults_total"),
            ("domain.enter", "sdrad_domain_entries_total"),
            ("domain.init", "sdrad_domains_created_total"),
            ("domain.destroy", "sdrad_domains_destroyed_total"),
        ]
        for trace_kind, counter_name in pairs:
            traced = runtime.tracer.count(trace_kind)
            counted = obs.registry.counter_total(counter_name)
            if traced != counted:
                problems.append(
                    f"tracer saw {traced} {trace_kind!r} events but obs "
                    f"counter {counter_name!r} totals {counted}"
                )
        if obs.open_span_count != 0:
            problems.append(
                f"{obs.open_span_count} span(s) still open at rest"
            )
        tree_problems = obs.buffer.tree_violations()
        problems.extend(f"span tree: {p}" for p in tree_problems)
    return problems
