"""The SDRaD runtime: domain lifecycle, entry/exit, rewind-and-discard.

This is the reproduction of the paper's core contribution. The runtime owns
a simulated address space, hands out protection-key-tagged heap/stack
regions to *domains*, and executes application functions inside them:

1. **enter** — save the caller's PKRU and push an execution context (the
   ``sigsetjmp`` analogue), then write a PKRU granting access *only* to the
   domain's key (deny-by-default isolation in both directions);
2. **run** — the application function receives a :class:`DomainHandle` and
   does its work against the simulated memory (every access checked);
3. **exit** — restore PKRU, pop the context, charge the domain-switch cost;
4. **on fault** — classify the fault, consult the domain's recovery policy,
   and for SDRaD's rewind policy: *discard* the domain's heap and stack,
   charge the paper's 3.5 µs rewind cost, and return an error
   :class:`DomainResult` to the code that entered the domain — the process
   survives.

All latencies are charged to the shared virtual clock through the
:class:`~repro.sim.cost.CostModel`, never measured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.hub import Observability

from ..errors import (
    AllocationFailure,
    DomainNotFound,
    DomainStateError,
    SdradError,
    UnsupportedByBackend,
)
from ..memory.address_space import AddressSpace
from ..memory.backends import resolve_backend
from ..memory.layout import (
    DEFAULT_DOMAIN_HEAP,
    DEFAULT_DOMAIN_STACK,
    PAGE_SIZE,
    page_align_up,
)
from ..memory.mpk import PKEY_DEFAULT
from ..sim.clock import VirtualClock
from ..sim.cost import DEFAULT_COST_MODEL, CostModel
from ..sim.rng import RngFactory
from ..sim.trace import Tracer
from .constants import ROOT_UDI, DomainFlags, DomainState
from .context import ContextStack
from .detect import FaultReport, classify, is_recoverable
from .domain import Domain
from .policy import (
    ProcessCrashed,
    RecoveryPolicy,
    RewindPolicy,
)


@dataclass
class DomainResult:
    """Outcome of one :meth:`SdradRuntime.execute` call."""

    ok: bool
    value: object = None
    fault: Optional[FaultReport] = None
    retries: int = 0
    recovery_time: float = 0.0
    elapsed: float = 0.0

    def unwrap(self) -> object:
        """Return the value or raise the fault (test convenience)."""
        if self.ok:
            return self.value
        raise SdradError(f"domain call failed: {self.fault}")


class DomainHandle:
    """The view of the runtime an application function gets *inside* a domain.

    It deliberately exposes only domain-scoped operations: allocate/free on
    the domain heap, checked loads/stores, stack frames on the domain stack,
    and cost charging for modelled computation. There is no way to reach
    another domain's memory except through the checked access path — which
    is exactly what the isolation experiment needs to be able to *fail*.
    """

    def __init__(self, runtime: "SdradRuntime", domain: Domain) -> None:
        self._runtime = runtime
        self._domain = domain
        # Compiled checked window over the domain heap (the overwhelmingly
        # common target of handle I/O). PKRU-keyed: valid only while the
        # domain's PKRU is active, revalidated per access burst.
        self._plan = None

    def _heap_plan(self):
        plan = self._plan
        if plan is not None and plan.is_valid():
            return plan
        cache = self._runtime.space.plans
        if cache is None:
            return None
        domain = self._domain
        self._plan = cache.checked_plan(domain.heap_base, domain.heap_size, "rw")
        return self._plan

    @property
    def udi(self) -> int:
        return self._domain.udi

    @property
    def space(self) -> AddressSpace:
        return self._runtime.space

    # --- heap ---------------------------------------------------------

    def malloc(self, nbytes: int) -> int:
        self._runtime.charge(self._runtime.cost.domain_alloc)
        return self._domain.heap.malloc(nbytes)

    def free(self, addr: int) -> None:
        self._runtime.charge(self._runtime.cost.domain_alloc)
        self._domain.heap.free(addr)

    def capacity(self, addr: int) -> int:
        return self._domain.heap.payload_capacity(addr)

    # --- checked memory access (the application data path) -------------

    def store(self, addr: int, data: bytes) -> None:
        plan = self._heap_plan()
        if plan is not None:
            plan.store(addr, data)
        else:
            self._runtime.space.store(addr, data)

    def load(self, addr: int, nbytes: int) -> bytes:
        plan = self._heap_plan()
        if plan is not None:
            return plan.load(addr, nbytes)
        return self._runtime.space.load(addr, nbytes)

    def store_many(self, items) -> None:
        """Batched checked writes — one call for many ``(addr, data)``."""
        plan = self._heap_plan()
        if plan is not None:
            plan.store_many(items)
        else:
            self._runtime.space.store_many(items)

    def load_many(self, requests) -> list[bytes]:
        """Batched checked reads — one call for many ``(addr, nbytes)``."""
        plan = self._heap_plan()
        if plan is not None:
            return plan.load_many(requests)
        return self._runtime.space.load_many(requests)

    def load_view(self, addr: int, nbytes: int) -> memoryview:
        """Checked zero-copy read (see :meth:`AddressSpace.load_view`)."""
        plan = self._heap_plan()
        if plan is not None:
            return plan.view(addr, nbytes)
        return self._runtime.space.load_view(addr, nbytes)

    # --- stack ----------------------------------------------------------

    def push_frame(self, name: str):
        return self._domain.stack.push_frame(name)

    def pop_frame(self, frame) -> int:
        return self._domain.stack.pop_frame(frame)

    # --- modelled computation -------------------------------------------

    def charge(self, seconds: float) -> None:
        """Charge modelled compute time to the virtual clock."""
        self._runtime.charge(seconds)


@dataclass
class _Region:
    base: int
    size: int


#: ``RewindPolicy`` is stateless, so every ``execute(policy=None)`` call can
#: share one instance instead of allocating a fresh policy per request.
_DEFAULT_REWIND_POLICY = RewindPolicy()


@dataclass
class _EntryTicket:
    """Prepared state for re-entering a domain from the same caller.

    The slow entry path derives the domain PKRU through several WRPKRUs and
    builds a fresh handle; in the per-connection steady state (root enters
    the same connection domain thousands of times) every derivation yields
    the same result. A ticket caches that result per ``(caller PKRU, udi)``
    pair and is invalidated on exactly the events that could change it:
    pkey retag (key virtualisation rebind/evict), ``pkey_free`` (key
    recycling), domain destroy, and domain policy-flag changes.
    """

    pkru: int  # final PKRU value the slow path would derive
    modelled_writes: int  # WRPKRUs the slow path would issue to get there
    handle: DomainHandle  # reusable handle (stateless between entries)
    domain: Domain  # the domain object the ticket was prepared for
    check_heap: bool  # CHECK_HEAP_ON_EXIT at preparation time


class SdradRuntime:
    """Owner of the address space, protection keys and all domains."""

    def __init__(
        self,
        space: Optional[AddressSpace] = None,
        clock: Optional[VirtualClock] = None,
        cost: CostModel = DEFAULT_COST_MODEL,
        tracer: Optional[Tracer] = None,
        rng: Optional[RngFactory] = None,
        root_heap_size: int = 1024 * 1024,
        key_virtualization: bool = False,
        guard_pages: bool = False,
        scrub_mode: str = "lazy",
        reentry_cache: bool = True,
        obs: Optional["Observability"] = None,
        backend: object = None,
        default_policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        if scrub_mode not in ("eager", "lazy"):
            raise SdradError(f"unknown scrub mode {scrub_mode!r}")
        # How SCRUB_ON_DISCARD domains pay for scrubbing: "lazy" (default)
        # defers the zero-fill to reallocation so rewind cost stays flat
        # regardless of domain size; "eager" scrubs at discard time (the
        # E2b ablation, and the mode to pick when stale bytes must not
        # survive the rewind even in unallocated space).
        self.scrub_mode = scrub_mode
        if space is not None:
            self.space = space
            # An explicit backend must agree with the space's: the space
            # owns the gate, so a conflicting request would be ignored.
            if backend is not None and (
                resolve_backend(backend).name != space.backend.name
            ):
                raise SdradError(
                    f"backend {resolve_backend(backend).name!r} conflicts "
                    f"with the address space's {space.backend.name!r}"
                )
        else:
            self.space = AddressSpace(
                backend=backend if backend is not None else "mpk"
            )
        #: The isolation substrate (see ``repro.memory.backends``).
        self.backend = self.space.backend
        self.clock = clock if clock is not None else VirtualClock()
        self.cost = cost
        # Per-operation substrate costs, resolved once: under the MPK
        # default these are the very same floats the runtime used to read
        # off the cost model inline, so charges are bit-identical.
        self._enter_cost = self.backend.entry_cost(cost)
        self._exit_cost = self.backend.exit_cost(cost)
        self._setup_cost = self.backend.setup_cost(cost)
        self._teardown_cost = self.backend.teardown_cost(cost)
        self._access_tax = self.backend.access_tax(cost)
        # Checked accesses already charged by an inner (nested) domain exit
        # — SFI instruments each access once, in the innermost sandbox.
        self._taxed_accesses = 0
        # Exact per-kind event counts plus a small ring of recent events
        # (``sim.trace.DEFAULT_CAPACITY``): bounded however long it serves.
        self.tracer = tracer if tracer is not None else Tracer()
        # Observability is strictly opt-in: with ``obs=None`` (the
        # default) every instrumented site below reduces to one attribute
        # load and a falsy check, keeping E1's overhead numbers intact
        # (the ``memcached_obs`` bench holds this to account).
        self.obs = obs
        self._obs_entries = None
        if obs is not None:
            obs.bind_clock(self.clock)
            # Resolved once: the per-entry counter is on the hottest path
            # in the runtime, and registry lookups resolve label kwargs.
            self._obs_entries = obs.registry.counter(
                "sdrad_domain_entries_total"
            )
        self.rng = rng if rng is not None else RngFactory(0)
        # What ``execute(policy=None)`` falls back to. The shared stateless
        # rewind singleton keeps the default path allocation-free and bit-
        # identical to the pre-policy-plumbing runtime; campaign closures
        # and the fleet driver swap in per-domain assignments here.
        self.default_policy = (
            default_policy if default_policy is not None else _DEFAULT_REWIND_POLICY
        )
        self.contexts = ContextStack()
        self._domains: dict[int, Domain] = {}
        self._udi_counter = itertools.count(1)
        # Page 0 stays unmapped forever: null-pointer dereferences must
        # fault, as on any sane mmap_min_addr configuration.
        self._bump = PAGE_SIZE
        # With guard pages on, one unmapped page separates consecutive
        # regions, so an overflow off the end of a domain's heap faults
        # instead of silently running into the *same domain's* stack (which
        # shares its protection key and would otherwise absorb it).
        self.guard_pages = guard_pages
        self._free_regions: list[_Region] = []
        # Domain re-entry fast path: prepared entry tickets keyed by
        # (caller PKRU, udi). ``reentry_cache=False`` restores the always-
        # derive behaviour bit for bit (the bench baseline).
        self.reentry_enabled = reentry_cache
        self._entry_tickets: dict[tuple[int, int], _EntryTicket] = {}
        self.reentry_hits = 0
        self.reentry_misses = 0
        self.reentry_invalidations = 0
        # Key recycling invalidates like a TLB shootdown: a ticket prepared
        # for the old owner of a key must not grant it to the next. Chain on
        # the allocator's free hook (the address space's TLB flush is already
        # installed there).
        _chained_on_free = self.space.pkeys.on_free

        def _ticket_on_pkey_free(pkey: int) -> None:
            if _chained_on_free is not None:
                _chained_on_free(pkey)
            if self._entry_tickets:
                self._entry_tickets.clear()
                self.reentry_invalidations += 1

        self.space.pkeys.on_free = _ticket_on_pkey_free
        self._root = self._create_root_domain(root_heap_size)
        # Optional libmpk-style key virtualisation (lifts the 15-domain
        # limit at the cost of rebind retagging; see repro.sdrad.keyvirt).
        # It is an MPK-private concern: only a substrate with key scarcity
        # has anything to virtualise, so other backends reject the request
        # loudly instead of silently not virtualising.
        self.keys: Optional["VirtualKeyManager"] = None
        if key_virtualization:
            if not self.backend.supports_key_virtualization:
                raise UnsupportedByBackend(
                    f"key virtualization requires a key-scarce substrate "
                    f"(MPK); backend {self.backend.name!r} has unbounded "
                    f"domain tags and nothing to virtualise"
                )
            from .keyvirt import VirtualKeyManager

            self.keys = VirtualKeyManager(self)

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------

    def _create_root_domain(self, heap_size: int) -> Domain:
        heap_base = self._map_region(heap_size, PKEY_DEFAULT)
        stack_base = self._map_region(DEFAULT_DOMAIN_STACK, PKEY_DEFAULT)
        root = Domain(
            udi=ROOT_UDI,
            pkey=PKEY_DEFAULT,
            space=self.space,
            heap_base=heap_base,
            heap_size=page_align_up(heap_size),
            stack_base=stack_base,
            stack_size=DEFAULT_DOMAIN_STACK,
            flags=DomainFlags.DEFAULT,
            parent_udi=None,
            stack_rng=self.rng.stream("stack/root"),
            lazy_scrub=self.scrub_mode == "lazy",
        )
        self._domains[ROOT_UDI] = root
        return root

    @property
    def root(self) -> Domain:
        return self._root

    def domain(self, udi: int) -> Domain:
        try:
            return self._domains[udi]
        except KeyError:
            raise DomainNotFound(udi) from None

    def domains(self) -> list[Domain]:
        return list(self._domains.values())

    def domain_init(
        self,
        flags: DomainFlags = DomainFlags.RETURN_TO_PARENT,
        heap_size: int = DEFAULT_DOMAIN_HEAP,
        stack_size: int = DEFAULT_DOMAIN_STACK,
        udi: Optional[int] = None,
        parent_udi: int = ROOT_UDI,
    ) -> Domain:
        """Create an isolated domain (``sdrad_init`` analogue).

        Charges the pkey syscalls and heap-arena initialisation to the
        clock; raises :class:`~repro.errors.OutOfDomains` when all 16
        protection keys are taken.
        """
        if udi is None:
            udi = next(self._udi_counter)
        if udi in self._domains:
            raise DomainStateError(f"domain udi={udi} already exists")
        if parent_udi not in self._domains:
            raise DomainNotFound(parent_udi)
        if self.keys is not None:
            # Virtualised: pages start on the lock key, binding is lazy.
            pkey = self.keys.assign_initial_key()
        else:
            pkey = self.space.pkeys.alloc()
        heap_size = page_align_up(heap_size)
        stack_size = page_align_up(stack_size)
        try:
            heap_base = self._map_region(heap_size, pkey)
            stack_base = self._map_region(stack_size, pkey)
        except AllocationFailure:
            if self.keys is None:
                self.space.pkeys.free(pkey)
            raise
        # Substrate setup syscalls (pkey_alloc + two pkey_mprotect on MPK,
        # capability derivation on CHERI, mask install on SFI) + heap arena.
        self.charge(self._setup_cost + self.cost.domain_heap_init)
        domain = Domain(
            udi=udi,
            pkey=pkey,
            space=self.space,
            heap_base=heap_base,
            heap_size=heap_size,
            stack_base=stack_base,
            stack_size=stack_size,
            flags=flags,
            parent_udi=parent_udi,
            stack_rng=self.rng.stream(f"stack/{udi}"),
            lazy_scrub=self.scrub_mode == "lazy",
        )
        self._domains[udi] = domain
        self.tracer.record(self.clock.now, "domain.init", udi=udi, pkey=pkey)
        if self.obs is not None:
            self.obs.registry.counter("sdrad_domains_created_total").increment()
        return domain

    def domain_destroy(self, udi: int) -> None:
        """Tear a domain down and recycle its key and regions."""
        domain = self.domain(udi)
        if udi == ROOT_UDI:
            raise SdradError("cannot destroy the root domain")
        if self.contexts.contains_udi(udi):
            raise DomainStateError(f"domain {udi} is currently entered")
        self._unmap_region(domain.heap_base, domain.heap_size)
        self._unmap_region(domain.stack_base, domain.stack_size)
        # A destroyed udi may be recreated (tests and the facade do), and
        # under key virtualisation the physical key returns to the manager's
        # pool without a ``pkey_free`` ever firing — so the destroy itself
        # must drop any prepared entries for this udi.
        self.invalidate_entry_tickets(udi)
        if self.keys is not None:
            self.keys.release_domain(domain)
        else:
            self.space.pkeys.free(domain.pkey)
        domain.mark_destroyed()
        del self._domains[udi]
        self.charge(self._teardown_cost)
        self.tracer.record(self.clock.now, "domain.destroy", udi=udi)
        if self.obs is not None:
            self.obs.registry.counter("sdrad_domains_destroyed_total").increment()

    # ------------------------------------------------------------------
    # Re-entry ticket invalidation (the fast path's shootdown hooks)
    # ------------------------------------------------------------------

    def invalidate_entry_tickets(
        self, udi: Optional[int] = None, *, domain: Optional[Domain] = None
    ) -> None:
        """Drop prepared entry tickets.

        ``domain=`` drops tickets prepared for that exact domain object
        (used by retag and policy changes, which mutate the object);
        ``udi=`` drops every ticket for that user-domain index (used by
        destroy, where a successor domain may reuse the index); with
        neither, everything goes (key recycling).
        """
        tickets = self._entry_tickets
        if not tickets:
            return
        if domain is not None:
            stale = [k for k, t in tickets.items() if t.domain is domain]
        elif udi is not None:
            stale = [k for k in tickets if k[1] == udi]
        else:
            stale = list(tickets)
        for key in stale:
            del tickets[key]
        if stale:
            self.reentry_invalidations += 1

    def set_domain_flags(self, udi: int, flags: DomainFlags) -> None:
        """Change a domain's containment-policy flags (``sdrad_configure``).

        Policy flags decide what an entry must set up and what an exit must
        verify (heap sharing, exit-time heap sweep, scrub mode), so prepared
        entry tickets for the domain are stale the moment they change —
        invalidating them here is the policy-change analogue of a TLB
        shootdown. Flag mutations must come through this method (or assign
        ``Domain.flags``, which recomputes the cached policy booleans but
        cannot see this runtime's ticket cache).
        """
        domain = self.domain(udi)
        if self.contexts.contains_udi(udi):
            raise DomainStateError(
                f"cannot change flags of domain {udi} while it is entered"
            )
        domain.flags = flags
        self.invalidate_entry_tickets(domain=domain)

    # ------------------------------------------------------------------
    # The core: execute-in-domain with rewind on fault
    # ------------------------------------------------------------------

    def execute(
        self,
        udi: int,
        fn: Callable[..., object],
        *args: object,
        policy: Optional[RecoveryPolicy] = None,
        read_grants: Optional[list[int]] = None,
    ) -> DomainResult:
        """Run ``fn(handle, *args)`` inside domain ``udi``.

        Returns a :class:`DomainResult`; never raises for *recoverable*
        memory faults when the policy rewinds. Logic errors (non-memory
        exceptions) propagate unchanged after trusted state is restored.

        ``read_grants`` lists other domains whose memory this execution may
        *read* (never write) — SDRaD's confidentiality-compartment scheme:
        a "vault" domain holds secrets or shared configuration, workers get
        read-only, zero-copy access for the duration of one entry, and a
        compromised worker still cannot tamper with it.
        """
        domain = self.domain(udi)
        if domain.state is DomainState.DESTROYED:
            raise DomainStateError(f"domain {udi} is destroyed")
        if self.contexts.contains_udi(udi):
            raise DomainStateError(f"domain {udi} re-entered while active")
        if policy is None:
            policy = self.default_policy

        granted_domains: list[Domain] = []
        if read_grants:
            for grant_udi in read_grants:
                if grant_udi == udi:
                    raise SdradError("cannot read-grant a domain to itself")
                granted_domains.append(self.domain(grant_udi))

        started = self.clock.now
        if self.keys is not None:
            self.keys.ensure_bound(domain)
            for granted in granted_domains:
                self.keys.ensure_bound(granted)
            parent = self._domains.get(domain.parent_udi or ROOT_UDI)
            if (
                domain.nonisolated_heap
                and parent is not None
                and parent.udi != ROOT_UDI
            ):
                self.keys.ensure_bound(parent)
        self.charge(self._enter_cost)
        gate = self.space.gate
        saved_gate = gate.snapshot()
        # SFI's per-access tax anchors: checked accesses between here and
        # the matching leave are charged at exit (minus any already taxed
        # by nested entries). Zero-tax substrates never read these.
        access_mark = taxed_mark = 0
        if self._access_tax:
            access_mark = self.space.loads + self.space.stores
            taxed_mark = self._taxed_accesses
        context = self.contexts.push(udi, saved_gate, self.clock.now)
        # Re-entry fast path: from the same caller gate state, entering the
        # same domain always derives the same final gate value and an
        # equivalent handle, so replay the prepared ticket instead of
        # re-deriving. Entries with read grants or a shared parent heap
        # depend on *other* domains' tags too and stay on the slow path.
        if (
            self.reentry_enabled
            and not granted_domains
            and not domain.nonisolated_heap
        ):
            ticket = self._entry_tickets.get((saved_gate, udi))
            if ticket is None:
                writes_before = gate.writes
                self._apply_domain_gate(domain)
                ticket = _EntryTicket(
                    pkru=gate.value,
                    modelled_writes=gate.writes - writes_before,
                    handle=DomainHandle(self, domain),
                    domain=domain,
                    check_heap=domain.check_heap_on_exit,
                )
                if len(self._entry_tickets) >= 4096:
                    self._entry_tickets.clear()
                self._entry_tickets[(saved_gate, udi)] = ticket
                self.reentry_misses += 1
            else:
                gate.write_prepared(ticket.pkru, ticket.modelled_writes)
                self.reentry_hits += 1
            handle = ticket.handle
            check_heap = ticket.check_heap
        else:
            self._apply_domain_gate(domain)
            for granted in granted_domains:
                gate.grant(granted.pkey, read=True, write=False)
            handle = DomainHandle(self, domain)
            check_heap = domain.check_heap_on_exit
        self.tracer.record(self.clock.now, "domain.enter", udi=udi)
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.start_span("domain.execute", udi=udi)
            self._obs_entries.increment()

        attempt = 0
        recovery_time = 0.0
        while True:
            domain.mark_active()
            try:
                value = fn(handle, *args)
                if check_heap:
                    domain.heap.check()
            except BaseException as exc:  # noqa: BLE001 - boundary must see all
                if not is_recoverable(exc):
                    # Logic error: restore trusted state, propagate.
                    self._leave(domain, context, saved_gate, access_mark, taxed_mark, clean=False)
                    if obs is not None:
                        obs.end_span(span, status="error")
                    raise
                report = classify(exc, domain_udi=udi, timestamp=self.clock.now)
                domain.mark_faulted()
                domain.stats.record_fault(report.mechanism.value)
                self.tracer.record(
                    self.clock.now,
                    "domain.fault",
                    udi=udi,
                    mechanism=report.mechanism.value,
                )
                attempt += 1
                if obs is not None:
                    obs.event(
                        "domain.fault", attempt=attempt, **report.span_attrs()
                    )
                    obs.registry.counter(
                        "sdrad_domain_faults_total",
                        mechanism=report.mechanism.value,
                    ).increment()
                decision = policy.decide(report, attempt)
                if decision.abort:
                    self._leave(domain, context, saved_gate, access_mark, taxed_mark, clean=False)
                    self.tracer.record(self.clock.now, "process.crash", udi=udi)
                    if obs is not None:
                        obs.registry.counter(
                            "sdrad_crashes_total",
                            mechanism=report.mechanism.value,
                        ).increment()
                        obs.end_span(span, status="crash")
                    raise ProcessCrashed(report) from exc
                recovery_time += self._rewind(
                    domain, cause=report.mechanism.value
                )
                if decision.quarantine > 0.0:
                    # Quarantine is advisory: the domain records when it may
                    # be re-entered and callers (campaign closure, serving
                    # layers) decide whether to honour it — enforcement here
                    # would turn every later entry into a hard error.
                    domain.quarantined_until = self.clock.now + decision.quarantine
                    self.tracer.record(
                        self.clock.now,
                        "domain.quarantine",
                        udi=udi,
                        until=domain.quarantined_until,
                    )
                    if obs is not None:
                        obs.registry.counter(
                            "sdrad_quarantines_total"
                        ).increment()
                if decision.retry:
                    if decision.backoff > 0.0:
                        self.charge(decision.backoff)
                        recovery_time += decision.backoff
                    continue
                self._leave(domain, context, saved_gate, access_mark, taxed_mark, clean=False)
                if obs is not None:
                    obs.end_span(span, status="fault", retries=attempt - 1)
                return DomainResult(
                    ok=False,
                    fault=report,
                    retries=attempt - 1,
                    recovery_time=recovery_time,
                    elapsed=self.clock.now - started,
                )
            else:
                domain.mark_exited()
                self._leave(domain, context, saved_gate, access_mark, taxed_mark, clean=True)
                if obs is not None:
                    obs.end_span(span, status="ok")
                return DomainResult(
                    ok=True,
                    value=value,
                    retries=attempt,
                    recovery_time=recovery_time,
                    elapsed=self.clock.now - started,
                )

    def execute_with_checkpoint(
        self,
        udi: int,
        fn: Callable[..., object],
        *args: object,
    ) -> DomainResult:
        """Alternative recovery design: checkpoint/restore instead of
        rewind-and-discard (ablation of DESIGN.md D2/D3).

        Before entering the domain, its heap and stack are snapshotted; a
        fault restores the snapshot byte-for-byte instead of discarding.
        This preserves domain state across faults (which discard does not),
        but pays a copy of the whole domain *on every call* — the design
        SDRaD explicitly rejected, quantified by E2c.
        """
        from ..memory.snapshot import capture, restore

        domain = self.domain(udi)
        footprint = domain.heap_size + domain.stack_size
        # checkpoint: allocator mirror state first (exporting retires any
        # deferred free, which writes boundary tags), then heap + stack
        # bytes, so the byte snapshot matches the exported metadata.
        heap_state = domain.heap.export_state()
        heap_snap = capture(self.space, domain.heap_base, domain.heap_size)
        stack_snap = capture(self.space, domain.stack_base, domain.stack_size)
        self.charge(self.cost.copy_time(footprint))

        result = self.execute(udi, fn, *args, policy=RewindPolicy())
        if result.ok:
            return result
        # restore: copy the checkpoint back and charge it as recovery
        before = self.clock.now
        restore(self.space, heap_snap)
        restore(self.space, stack_snap)
        domain.heap.import_state(heap_state)
        self.charge(self.cost.copy_time(footprint))
        self.tracer.record(self.clock.now, "domain.restore", udi=udi)
        result.recovery_time += self.clock.now - before
        return result

    def execute_unisolated(self, fn: Callable[..., object], *args: object) -> object:
        """Run ``fn(handle, *args)`` in the root compartment, no isolation.

        This is the *baseline* execution mode (E1's control): no PKRU
        switch, no enter/exit cost, no rewind context. A recoverable memory
        fault therefore has nothing to contain it and kills the process —
        exactly what happens to a mitigation-hardened but un-compartmented
        service.
        """
        handle = DomainHandle(self, self._root)
        try:
            return fn(handle, *args)
        except BaseException as exc:  # noqa: BLE001 - boundary must see all
            if not is_recoverable(exc):
                raise
            report = classify(exc, domain_udi=ROOT_UDI, timestamp=self.clock.now)
            self.tracer.record(
                self.clock.now,
                "process.crash",
                udi=ROOT_UDI,
                mechanism=report.mechanism.value,
            )
            if self.obs is not None:
                self.obs.event("process.crash", **report.span_attrs())
                self.obs.registry.counter(
                    "sdrad_crashes_total", mechanism=report.mechanism.value
                ).increment()
            raise ProcessCrashed(report) from exc

    def _rewind(self, domain: Domain, cause: str = "fault") -> float:
        """Discard the domain and charge rewind cost; returns that cost."""
        before = self.clock.now
        pages = domain.discard()
        self.charge(self.cost.rewind_time(scrub_pages=pages))
        self.tracer.record(
            self.clock.now, "domain.rewind", udi=domain.udi, scrubbed_pages=pages
        )
        obs = self.obs
        if obs is not None:
            elapsed = self.clock.now - before
            # Every rewind span carries its cause (the detection mechanism
            # that fired) and its simulated duration — the per-recovery
            # record the sustainability ledger and E-series audits consume.
            obs.event(
                "domain.rewind",
                udi=domain.udi,
                cause=cause,
                duration=elapsed,
                scrubbed_pages=pages,
            )
            obs.registry.counter("sdrad_rewinds_total", cause=cause).increment()
            obs.registry.histogram("sdrad_rewind_latency_seconds").observe(elapsed)
        return self.clock.now - before

    def _leave(
        self,
        domain: Domain,
        context,
        saved_gate: int,
        access_mark: int = 0,
        taxed_mark: int = 0,
        *,
        clean: bool,
    ) -> None:
        self.contexts.pop(context)
        self.space.gate.write(saved_gate)
        self.charge(self._exit_cost)
        if self._access_tax:
            # SFI: charge the instrumentation tax for every checked access
            # executed inside this entry that an inner entry has not
            # already paid for (an access is masked exactly once).
            space = self.space
            fresh = (space.loads + space.stores - access_mark) - (
                self._taxed_accesses - taxed_mark
            )
            if fresh > 0:
                self.charge(fresh * self._access_tax)
                self._taxed_accesses += fresh
        self.tracer.record(
            self.clock.now, "domain.exit", udi=domain.udi, clean=clean
        )

    def _apply_domain_gate(self, domain: Domain) -> None:
        """Grant access only to the domain's tag (plus shared-heap parents).

        On MPK this is the historical three-WRPKRU entry sequence (deny
        all, revoke key 0, grant the domain key); ``close_all`` folds the
        first two so the same code drives a capability install (CHERI) or
        a mask setup (SFI) through the generic gate protocol.
        """
        gate = self.space.gate
        # Close the gate entirely — the caller's memory (root included)
        # must be unreachable from inside the domain — then grant only the
        # domain's own tag.
        gate.close_all()
        gate.grant(domain.pkey, read=True, write=True)
        if domain.nonisolated_heap and domain.parent_udi is not None:
            parent = self._domains.get(domain.parent_udi)
            if parent is not None:
                gate.grant(parent.pkey, read=True, write=True)
        # The gate writes above are the switch instructions of a real
        # entry; their latency is part of the backend's entry cost, not
        # charged per write.

    # Shared service state lives in the root compartment whose tag is 0 on
    # every backend (MPK pkey 0, CHERI/SFI root tag) — backend-neutral.
    def map_shared_region(self, size: int, pkey: int = PKEY_DEFAULT) -> int:  # sdradlint: ignore[R6]
        """Map a page-aligned region outside any domain (service state).

        Applications use this for long-lived state that survives domain
        rewinds — e.g. the Memcached hash table and slab arena, which SDRaD
        keeps in the trusted/root compartment precisely so that discarding
        a client's domain never touches it.
        """
        return self._map_region(size, pkey)

    # ------------------------------------------------------------------
    # Cross-domain data movement (used by SDRaD-FFI marshalling)
    # ------------------------------------------------------------------

    def _ffi_plan(self, domain: Domain):
        """Kernel plan over a domain's heap for FFI marshalling I/O."""
        cache = self.space.plans
        if cache is None:
            return None
        return cache.kernel_plan(domain.heap_base, domain.heap_size)

    def copy_into(self, udi: int, data: bytes) -> int:
        """Copy ``data`` into ``udi``'s heap; returns the domain address."""
        domain = self.domain(udi)
        addr = domain.heap.malloc(max(len(data), 1))
        plan = self._ffi_plan(domain)
        if plan is not None:
            plan.store(addr, data)
        else:
            self.space.raw_store(addr, data)
        self.charge(self.cost.domain_alloc + self.cost.copy_time(len(data)))
        domain.stats.bytes_copied_in += len(data)
        return addr

    def copy_out(self, udi: int, addr: int, nbytes: int) -> bytes:
        """Copy ``nbytes`` out of ``udi``'s heap into the trusted side."""
        domain = self.domain(udi)
        plan = self._ffi_plan(domain)
        if plan is not None:
            data = plan.load(addr, nbytes)
        else:
            data = self.space.raw_load(addr, nbytes)
        self.charge(self.cost.copy_time(nbytes))
        domain.stats.bytes_copied_out += nbytes
        return data

    # ------------------------------------------------------------------
    # Region management + cost charging
    # ------------------------------------------------------------------

    def charge(self, seconds: float) -> None:
        self.clock.advance(seconds)

    def _map_region(self, size: int, pkey: int) -> int:
        size = page_align_up(size)
        for i, region in enumerate(self._free_regions):
            if region.size == size:
                del self._free_regions[i]
                self.space.page_table.map_range(region.base, size, pkey=pkey)
                return region.base
        base = self._bump
        guard = PAGE_SIZE if self.guard_pages else 0
        if base + size + guard > self.space.size:
            raise AllocationFailure(
                f"simulated address space exhausted mapping {size} bytes "
                f"({self._bump}/{self.space.size} used)"
            )
        self._bump += size + guard  # the guard page stays unmapped
        self.space.page_table.map_range(base, size, pkey=pkey)
        return base

    def _unmap_region(self, base: int, size: int) -> None:
        self.space.page_table.unmap_range(base, size)
        self._free_regions.append(_Region(base=base, size=size))
