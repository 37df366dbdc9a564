"""Tests for runtime telemetry and cross-subsystem consistency."""

from __future__ import annotations

import json

import pytest

from repro.sdrad.constants import DomainFlags
from repro.sdrad.runtime import SdradRuntime
from repro.sdrad.telemetry import consistency_check, snapshot


def busy_runtime() -> SdradRuntime:
    runtime = SdradRuntime()
    a = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    b = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
    runtime.execute(a.udi, lambda h: h.store(h.malloc(32), b"data"))
    runtime.execute(a.udi, lambda h: h.store(0, b"fault"))  # rewind
    runtime.execute(b.udi, lambda h: None)
    runtime.copy_into(b.udi, b"staged")
    return runtime


class TestSnapshot:
    def test_totals(self):
        data = snapshot(busy_runtime())
        assert data["domain_count"] == 2
        assert data["totals"]["faults"] == 1
        assert data["totals"]["rewinds"] == 1
        assert data["totals"]["entries"] == 3
        assert data["totals"]["fault_mix"] == {"page-fault": 1}

    def test_recovery_time_accounted(self):
        runtime = busy_runtime()
        data = snapshot(runtime)
        assert data["totals"]["recovery_time"] == pytest.approx(
            runtime.cost.rewind
        )

    def test_per_domain_rows(self):
        data = snapshot(busy_runtime())
        by_udi = {d["udi"]: d for d in data["domains"]}
        assert by_udi[1]["faults"] == 1
        assert by_udi[2]["faults"] == 0
        assert by_udi[2]["bytes_copied_in"] == 6

    def test_memory_counters_present(self):
        data = snapshot(busy_runtime())
        memory = data["memory"]
        assert memory["checked_stores"] > 0
        assert memory["wrpkru_writes"] > 0
        assert memory["mapped_bytes"] <= memory["space_bytes"]

    def test_json_serialisable(self):
        json.dumps(snapshot(busy_runtime()))

    def test_keyvirt_section_when_enabled(self):
        runtime = SdradRuntime(key_virtualization=True)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: None)
        data = snapshot(runtime)
        assert data["key_virtualization"]["binds"] == 1
        assert data["key_virtualization"]["bound_domains"] == 1

    def test_no_keyvirt_section_by_default(self):
        assert "key_virtualization" not in snapshot(SdradRuntime())


class TestConsistency:
    def test_clean_runtime_has_no_problems(self):
        assert consistency_check(busy_runtime()) == []

    def test_heavy_mixed_usage_stays_consistent(self):
        runtime = SdradRuntime()
        domains = [
            runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
            for _ in range(5)
        ]
        for i, domain in enumerate(domains * 4):
            if i % 3 == 0:
                runtime.execute(domain.udi, lambda h: h.store(0, b"x"))
            else:
                runtime.execute(domain.udi, lambda h: h.malloc(64))
        assert consistency_check(runtime) == []

    def test_after_destroy_books_balance(self):
        runtime = SdradRuntime()
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(domain.udi, lambda h: h.store(0, b"x"))
        runtime.domain_destroy(domain.udi)
        # destroyed domain leaves the listing; trace still shows its fault,
        # so the check must not claim trace/stat divergence spuriously
        problems = consistency_check(runtime)
        assert all("destroyed" not in p for p in problems)


class TestObsConsistency:
    """The obs counters are cross-checked against the tracer, so silent
    counter drift fails a tier-1 test instead of shipping wrong metrics."""

    def busy_observed_runtime(self) -> SdradRuntime:
        from repro.obs import Observability

        runtime = SdradRuntime(obs=Observability())
        a = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        b = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        runtime.execute(a.udi, lambda h: h.store(h.malloc(32), b"data"))
        runtime.execute(a.udi, lambda h: h.store(0, b"fault"))  # rewind
        runtime.execute(b.udi, lambda h: None)
        runtime.domain_destroy(b.udi)  # ephemeral: stats gone, tracer stays
        return runtime

    def test_observed_runtime_is_consistent(self):
        assert consistency_check(self.busy_observed_runtime()) == []

    def test_counter_drift_fails_loudly(self):
        runtime = self.busy_observed_runtime()
        runtime.obs.registry.counter("sdrad_domain_entries_total").increment()
        problems = consistency_check(runtime)
        assert any("sdrad_domain_entries_total" in p for p in problems)

    def test_snapshot_obs_block_serialises(self):
        data = snapshot(self.busy_observed_runtime())
        json.dumps(data["obs"])
        assert data["obs"]["metrics"][
            "counter/sdrad_domains_destroyed_total"
        ] == 1


class TestConsistencyPastTheRing:
    """The tracer's counts stay exact after its ring of recent events has
    wrapped, so one planted mismatch is still caught."""

    def rewound_many_times(self, obs=None) -> SdradRuntime:
        runtime = SdradRuntime(obs=obs)
        domain = runtime.domain_init(flags=DomainFlags.RETURN_TO_PARENT)
        for _ in range(2 * runtime.tracer.capacity + 1):
            runtime.execute(domain.udi, lambda h: h.store(0, b"fault"))
        assert runtime.tracer.count("domain.rewind") > 2 * len(runtime.tracer)
        assert consistency_check(runtime) == []
        return runtime

    def test_extra_rewind_record_is_caught(self):
        runtime = self.rewound_many_times()
        runtime.tracer.record(runtime.clock.now, "domain.rewind", udi=1)
        problems = consistency_check(runtime)
        assert any("rewinds" in p for p in problems)

    def test_bumped_obs_counter_is_caught(self):
        from repro.obs import Observability

        runtime = self.rewound_many_times(obs=Observability())
        runtime.obs.registry.counter("sdrad_rewinds_total", cause="x").increment()
        problems = consistency_check(runtime)
        assert any("sdrad_rewinds_total" in p for p in problems)
