"""Long-horizon service availability simulation (discrete-event).

E3/E5 simulate a service for up to a year of virtual time under a fault
arrival process and a recovery strategy. Faults are discrete events; request
traffic is integrated analytically (``rate × uptime``) because a year of
per-request events is neither tractable nor necessary — downtime intervals
are what decide availability. The simulator sums those intervals itself as
it opens them; its tracer counts events and keeps only the most recent ones.

Semantics:

* a fault arriving while the service is already down is *absorbed* (the
  restart in progress also clears it), matching how a supervisor restart
  handles a crash storm;
* zero-downtime strategies (SDRaD rewind) still lose the faulted request(s)
  and accumulate their microscopic recovery latencies, which is exactly the
  accounting behind the paper's ">9·10⁷ recoveries" headroom number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..sim.clock import YEARS
from ..sim.engine import Engine
from ..sim.trace import Tracer
from .availability import availability_from_downtime, nines
from .strategy import StrategySpec


@dataclass
class ServiceOutcome:
    """Result of one simulated (strategy × fault-arrival) run."""

    strategy: str
    horizon: float
    faults_injected: int
    faults_recovered: int
    faults_absorbed: int
    downtime: float
    availability: float
    achieved_nines: float
    requests_offered: float
    requests_served: float
    requests_dropped: float

    @property
    def meets_five_nines(self) -> bool:
        return self.availability >= 0.99999


class ServiceAvailabilitySimulation:
    """Drives one strategy through a fault schedule on the event engine."""

    def __init__(
        self,
        spec: StrategySpec,
        fault_times: Sequence[float],
        horizon: float = YEARS,
        request_rate: float = 0.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if request_rate < 0:
            raise ValueError(f"request rate cannot be negative, got {request_rate}")
        self.spec = spec
        self.fault_times = sorted(t for t in fault_times if 0 <= t < horizon)
        self.horizon = horizon
        self.request_rate = request_rate
        self.tracer = tracer if tracer is not None else Tracer()
        self._down_until = -1.0
        self._recovered = 0
        self._absorbed = 0
        self._requests_lost = 0
        self._downtime = 0.0
        self._micro_downtime = 0.0

    def run(self) -> ServiceOutcome:
        engine = Engine()
        self.tracer.record(0.0, "service.start", strategy=self.spec.name)
        for t in self.fault_times:
            engine.schedule_at(t, lambda t=t: self._on_fault(t))
        engine.run(until=self.horizon)

        downtime = self._downtime + self._micro_downtime
        availability = availability_from_downtime(downtime, self.horizon)
        offered = self.request_rate * self.horizon
        dropped = self.request_rate * downtime + self._requests_lost
        dropped = min(dropped, offered)
        return ServiceOutcome(
            strategy=self.spec.name,
            horizon=self.horizon,
            faults_injected=len(self.fault_times),
            faults_recovered=self._recovered,
            faults_absorbed=self._absorbed,
            downtime=downtime,
            availability=availability,
            achieved_nines=nines(availability),
            requests_offered=offered,
            requests_served=offered - dropped,
            requests_dropped=dropped,
        )

    # ------------------------------------------------------------------

    def _on_fault(self, now: float) -> None:
        if now < self._down_until:
            self._absorbed += 1
            self.tracer.record(now, "fault.absorbed")
            return
        self._recovered += 1
        self._requests_lost += self.spec.requests_lost_per_fault
        dt = self.spec.downtime_per_fault
        self.tracer.record(now, "fault.detected", strategy=self.spec.name)
        # In-process recovery is so short that modelling it as a service
        # down/up pair would drown the trace; account it directly instead.
        if dt < 1e-3:
            self._micro_downtime += dt
            self.tracer.record(now, "fault.rewound", recovery=dt)
            return
        # Faults arriving while down are absorbed above, so outages never
        # overlap; one cut off by the horizon counts only up to it.
        self._down_until = min(now + dt, self.horizon)
        self._downtime += self._down_until - now
        self.tracer.record(now, "service.down")
        if self._down_until < self.horizon:
            self.tracer.record(self._down_until, "service.up")


def compare_strategies(
    specs: Sequence[StrategySpec],
    fault_times: Sequence[float],
    horizon: float = YEARS,
    request_rate: float = 0.0,
) -> list[ServiceOutcome]:
    """Run the same fault schedule through several strategies (E3's rows)."""
    return [
        ServiceAvailabilitySimulation(
            spec, fault_times, horizon=horizon, request_rate=request_rate
        ).run()
        for spec in specs
    ]
