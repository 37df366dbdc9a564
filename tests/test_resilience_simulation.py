"""Tests for the long-horizon service availability simulation."""

from __future__ import annotations

import pytest

from repro.faultinj.campaign import PeriodicArrivals, PoissonArrivals
from repro.resilience.simulation import (
    ServiceAvailabilitySimulation,
    compare_strategies,
)
from repro.resilience.strategy import RecoveryStrategyModel, StrategySpec
from repro.sim.clock import MINUTES, YEARS
from repro.sim.cost import GIB
from repro.sim.rng import RngFactory

MODEL = RecoveryStrategyModel()


def year_times(count: int) -> list[float]:
    return list(PeriodicArrivals(count).times(YEARS))


class TestRestartSimulation:
    def test_downtime_matches_arithmetic(self):
        spec = MODEL.process_restart(10 * GIB)
        outcome = ServiceAvailabilitySimulation(spec, year_times(3)).run()
        assert outcome.faults_recovered == 3
        assert outcome.downtime == pytest.approx(3 * spec.downtime_per_fault)

    def test_three_restarts_violate_five_nines(self):
        spec = MODEL.process_restart(10 * GIB)
        outcome = ServiceAvailabilitySimulation(spec, year_times(3)).run()
        assert not outcome.meets_five_nines

    def test_two_restarts_meet_five_nines(self):
        spec = MODEL.process_restart(10 * GIB)
        outcome = ServiceAvailabilitySimulation(spec, year_times(2)).run()
        assert outcome.meets_five_nines

    def test_requests_dropped_during_downtime(self):
        spec = MODEL.process_restart(10 * GIB)
        outcome = ServiceAvailabilitySimulation(
            spec, year_times(3), request_rate=100.0
        ).run()
        expected = 100.0 * outcome.downtime
        assert outcome.requests_dropped == pytest.approx(expected)
        assert outcome.requests_served == pytest.approx(
            outcome.requests_offered - expected
        )


class TestRewindSimulation:
    def test_massive_fault_count_still_five_nines(self):
        spec = MODEL.sdrad_rewind()
        outcome = ServiceAvailabilitySimulation(spec, year_times(1_000)).run()
        assert outcome.meets_five_nines
        assert outcome.downtime == pytest.approx(1000 * 3.5e-6)

    def test_each_fault_loses_one_request(self):
        spec = MODEL.sdrad_rewind()
        outcome = ServiceAvailabilitySimulation(
            spec, year_times(10), request_rate=100.0
        ).run()
        assert outcome.requests_dropped == pytest.approx(10, abs=0.1)


class TestFaultAbsorption:
    def test_faults_during_restart_absorbed(self):
        spec = MODEL.process_restart(10 * GIB)
        # second fault lands while the first restart is still in progress
        times = [100.0, 110.0, 100000.0]
        outcome = ServiceAvailabilitySimulation(spec, times).run()
        assert outcome.faults_recovered == 2
        assert outcome.faults_absorbed == 1
        assert outcome.downtime == pytest.approx(2 * spec.downtime_per_fault)

    def test_downtime_truncated_at_horizon(self):
        spec = MODEL.process_restart(10 * GIB)
        horizon = 1000.0
        outcome = ServiceAvailabilitySimulation(spec, [999.0], horizon=horizon).run()
        assert outcome.downtime == pytest.approx(1.0)

    def test_out_of_horizon_faults_ignored(self):
        spec = MODEL.sdrad_rewind()
        outcome = ServiceAvailabilitySimulation(
            spec, [10.0, 2 * YEARS], horizon=YEARS
        ).run()
        assert outcome.faults_injected == 1


class TestComparison:
    def test_compare_strategies_ordering(self):
        specs = MODEL.all_for(10 * GIB)
        outcomes = compare_strategies(specs, year_times(3))
        by_name = {o.strategy: o for o in outcomes}
        assert by_name["sdrad-rewind"].downtime < by_name["replicated-2x"].downtime
        assert (
            by_name["replicated-2x"].downtime
            < by_name["process-restart"].downtime
        )
        assert (
            by_name["process-restart"].downtime
            < by_name["container-restart"].downtime
        )

    def test_same_schedule_for_all(self):
        specs = MODEL.all_for(GIB)
        outcomes = compare_strategies(specs, year_times(5))
        assert all(o.faults_injected == 5 for o in outcomes)

    def test_poisson_schedule_runs(self):
        rng = RngFactory(3).stream("faults")
        times = list(PoissonArrivals(10 / YEARS, rng).times(YEARS))
        spec = MODEL.process_restart(GIB)
        outcome = ServiceAvailabilitySimulation(spec, times).run()
        assert outcome.faults_injected == len(times)


class TestValidation:
    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            ServiceAvailabilitySimulation(MODEL.sdrad_rewind(), [], horizon=0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            ServiceAvailabilitySimulation(
                MODEL.sdrad_rewind(), [], request_rate=-1
            )

    def test_no_faults_is_perfect(self):
        outcome = ServiceAvailabilitySimulation(MODEL.sdrad_rewind(), []).run()
        assert outcome.availability == 1.0
        assert outcome.downtime == 0.0


def outage(downtime: float) -> StrategySpec:
    """A restart-like strategy whose every recovery takes ``downtime``."""
    return StrategySpec(
        name="outage",
        downtime_per_fault=downtime,
        requests_lost_per_fault=0,
        replicas=1,
        runtime_overhead=0.0,
    )


class TestDowntimeAccounting:
    """Edge cases of the simulator's own downtime sum (one outage per
    recovered fault, absorbed faults adding nothing, the horizon cutting
    off the last outage)."""

    def test_single_interval(self):
        outcome = ServiceAvailabilitySimulation(
            outage(5.0), [10.0], horizon=100.0
        ).run()
        assert outcome.downtime == 5.0

    def test_multiple_intervals(self):
        outcome = ServiceAvailabilitySimulation(
            outage(1.0), [1.0, 5.0], horizon=10.0
        ).run()
        assert outcome.downtime == pytest.approx(2.0)

    def test_back_to_back_outages(self):
        # The second fault lands the instant the first outage ends: it is
        # a fresh outage, not absorbed, and the two add up.
        outcome = ServiceAvailabilitySimulation(
            outage(5.0), [10.0, 15.0], horizon=100.0
        ).run()
        assert outcome.faults_recovered == 2
        assert outcome.faults_absorbed == 0
        assert outcome.downtime == 10.0

    def test_duplicate_down_events_ignored(self):
        # Faults during an outage are absorbed and never extend it.
        outcome = ServiceAvailabilitySimulation(
            outage(2.0), [1.0, 2.0, 2.5], horizon=10.0
        ).run()
        assert outcome.faults_absorbed == 2
        assert outcome.downtime == 2.0

    def test_trailing_down_closed_at_horizon(self):
        outcome = ServiceAvailabilitySimulation(
            outage(50.0), [90.0], horizon=100.0
        ).run()
        assert outcome.downtime == 10.0

    def test_interval_past_horizon_truncated(self):
        sim = ServiceAvailabilitySimulation(outage(15.0), [95.0], horizon=100.0)
        outcome = sim.run()
        assert outcome.downtime == 5.0
        # The outage never ends within the run, so no "up" is recorded.
        assert sim.tracer.count("service.down") == 1
        assert sim.tracer.count("service.up") == 0

    def test_exact_past_the_tracer_ring(self):
        sim = ServiceAvailabilitySimulation(
            outage(1.0), [10.0 * i for i in range(1000)], horizon=10_000.0
        )
        outcome = sim.run()
        assert outcome.downtime == 1000.0
        assert len(sim.tracer) < sim.tracer.recorded
        assert sim.tracer.count("service.down") == 1000
        assert sim.tracer.count("service.up") == 1000


class TestTraceIndependence:
    def test_downtime_computed_from_trace_not_bookkeeping(self):
        """The retained trace is an independent witness of the downtime
        the simulator accumulates."""
        spec = MODEL.process_restart(10 * GIB)
        sim = ServiceAvailabilitySimulation(spec, year_times(2))
        outcome = sim.run()
        downs = [e.timestamp for e in sim.tracer.of_kind("service.down")]
        ups = [e.timestamp for e in sim.tracer.of_kind("service.up")]
        trace_downtime = sum(up - down for down, up in zip(downs, ups))
        assert outcome.downtime == pytest.approx(trace_downtime)
        assert sim.tracer.count("fault.detected") == 2
        assert sim.tracer.count("service.down") == 2
        assert sim.tracer.count("service.up") == 2
