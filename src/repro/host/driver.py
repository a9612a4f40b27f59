"""The (modified) Intel SGX driver.

Implements the paper's two-level page-management contract (§5.2.1):

* **OS-managed pages** may be evicted and fetched by the driver at any
  time — clock eviction for legacy enclaves, FIFO for self-paging
  enclaves (whose A/D bits the driver can no longer read, §5.1.4 /
  §7 "Setup").
* **Enclave-managed pages** are pinned while the enclave is runnable:
  the driver refuses to evict them.  Only the enclave's own
  ``ay_evict_pages`` may move them out.  If the OS must reclaim memory
  anyway, its only option is suspending the whole enclave and restoring
  every page before resume (:meth:`SgxDriver.suspend_enclave`).

The Autarky system calls (implemented as IOCTLs in the real prototype)
are :meth:`ay_set_os_managed`, :meth:`ay_set_enclave_managed`,
:meth:`ay_fetch_pages` and :meth:`ay_evict_pages`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.clock import Category
from repro.errors import EpcExhausted, SgxError
from repro.sgx.epcm import Permissions
from repro.sgx.params import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, page_base, vpn_of


@dataclass(frozen=True)
class Region:
    """A declared range of enclave virtual memory."""

    start: int
    npages: int
    writable: bool = True
    executable: bool = False
    #: Derived once: the vpn bounds ``[first_vpn, end_vpn)`` and the
    #: EPCM permissions every page of the region is loaded with.
    first_vpn: int = field(init=False, repr=False, compare=False)
    end_vpn: int = field(init=False, repr=False, compare=False)
    perms: Permissions = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        first = self.start >> PAGE_SHIFT
        object.__setattr__(self, "first_vpn", first)
        object.__setattr__(self, "end_vpn", first + self.npages)
        object.__setattr__(self, "perms", Permissions(
            True, self.writable, self.executable))


@dataclass
class EnclaveHostState:
    """Driver bookkeeping for one enclave."""

    enclave: object
    quota_pages: int
    regions: list = field(default_factory=list)
    #: vpns the enclave claimed via ay_set_enclave_managed (pinned).
    enclave_managed: set = field(default_factory=set)
    #: Eviction order over resident OS-managed vpns.  ``fifo_set`` is
    #: the live membership; stale deque entries are skipped lazily.
    #: ``fifo_queued`` is the deque's membership: a vpn is queued at most
    #: once, and one re-added while still queued keeps its earlier place.
    fifo: deque = field(default_factory=deque)
    fifo_set: set = field(default_factory=set)
    fifo_queued: set = field(default_factory=set)
    suspended: bool = False
    #: Pages force-evicted by suspend, to be restored on resume.
    suspend_set: list = field(default_factory=list)

    def region_for(self, vpn):
        for region in self.regions:
            if region.first_vpn <= vpn < region.end_vpn:
                return region
        return None

    def fifo_add(self, vpn):
        self.fifo_set.add(vpn)
        if vpn not in self.fifo_queued:
            self.fifo.append(vpn)
            self.fifo_queued.add(vpn)

    def fifo_discard(self, vpn):
        self.fifo_set.discard(vpn)


class SgxDriver:
    """Privileged driver: EPC management and the Autarky IOCTLs."""

    def __init__(self, instructions, page_table, backing, clock, cost):
        self.instr = instructions
        self.page_table = page_table
        self.backing = backing
        self.clock = clock
        self.cost = cost
        self._states = {}
        #: Event counters for experiments.
        self.pages_in = 0
        self.pages_out = 0

    # -- lifecycle ---------------------------------------------------------

    def create_enclave(self, base, size_pages, attributes=None,
                       quota_pages=None):
        enclave = self.instr.ecreate(base, size_pages, attributes)
        state = EnclaveHostState(
            enclave=enclave,
            quota_pages=quota_pages or self.instr.epc.total_pages,
        )
        self._states[enclave.enclave_id] = state
        return enclave

    def state(self, enclave):
        return self._states[enclave.enclave_id]

    def declare_region(self, enclave, start, npages, writable=True,
                       executable=False):
        """Register a lazily-populated range of enclave memory."""
        if start % PAGE_SIZE:
            raise SgxError("region start must be page aligned")
        if not enclave.contains(start) or \
                not enclave.contains(start + (npages - 1) * PAGE_SIZE):
            raise SgxError("region outside the enclave range")
        region = Region(start, npages, writable, executable)
        self.state(enclave).regions.append(region)
        return region

    # -- residency primitives ----------------------------------------------

    def resident(self, enclave, vaddr):
        return vpn_of(vaddr) in enclave.backed

    def resident_count(self, enclave):
        return len(enclave.backed)

    def page_in(self, enclave, vaddr):
        """Make one page resident and map it (privileged SGX1 path).

        First touch of a never-swapped page is a zero-fill allocation
        (EAUG-style); a swapped page is reloaded with ELDU, which
        verifies integrity and freshness.
        """
        state = self.state(enclave)
        vpn = vpn_of(vaddr)
        region = state.region_for(vpn)
        if region is None:
            raise SgxError(f"access outside any declared region: {vaddr:#x}")
        if vpn in enclave.backed:
            raise SgxError(f"page_in of already-resident {vaddr:#x}")

        self.make_room(enclave, 1)
        base = page_base(vaddr)
        self._load_frame(enclave, base, region)
        self.map_page(enclave, base, region)
        if vpn not in state.enclave_managed:
            state.fifo_add(vpn)
        self.pages_in += 1
        self.clock.charge(self.cost.pte_update, Category.OS)
        return base

    def evict_page(self, enclave, vaddr):
        """Evict one OS-managed page (unmap, shoot down, EWB, store)."""
        state = self.state(enclave)
        vpn = vpn_of(vaddr)
        if vpn in state.enclave_managed and not state.suspended:
            raise SgxError(
                f"driver may not evict enclave-managed page {vaddr:#x}"
            )
        # The architectural eviction sequence: EBLOCK (no new TLB
        # fills), unmap + shootdown (ETRACK/IPIs), EWB, then store.
        self.instr.ewb_run(enclave, (page_base(vaddr),), self.page_table,
                           self.backing)
        state.fifo_discard(vpn)
        self.pages_out += 1
        self.clock.charge(self.cost.pte_update, Category.OS)

    def os_resolve(self, enclave, vaddr):
        """Resolve a fault the OS is responsible for: remap a resident
        page whose PTE was clobbered, restore downgraded permissions,
        or page in a non-resident page.  Used both by the legacy fault
        path and by self-paging enclaves forwarding faults on their
        OS-managed pages."""
        state = self.state(enclave)
        if self.resident(enclave, vaddr):
            region = state.region_for(vpn_of(vaddr))
            pte = self.page_table.lookup(vaddr)
            if pte is None or not pte.present:
                self.map_page(enclave, page_base(vaddr), region)
            else:
                self.page_table.set_protection(
                    vaddr,
                    writable=region.writable,
                    executable=region.executable,
                )
                if enclave.self_paging:
                    self.page_table.set_accessed_dirty(
                        vaddr, accessed=True, dirty=True
                    )
            self.clock.charge(self.cost.pte_update, Category.OS)
        else:
            self.page_in(enclave, vaddr)

    def make_room(self, enclave, need):
        """Ensure ``need`` pages fit under the enclave's quota, evicting
        OS-managed pages if necessary.  Raises when pinned pages leave
        nothing to evict — the self-paging runtime must free memory
        itself in that case (the §5.2.1 contract)."""
        state = self.state(enclave)
        # Every iteration must evict exactly one resident page; the
        # guard turns a bookkeeping bug (or a hostile quota that moves
        # under us) into a diagnosable error instead of a kernel hang.
        guard = self.resident_count(enclave) + 1
        while self.resident_count(enclave) + need > state.quota_pages:
            guard -= 1
            if guard <= 0:
                raise EpcExhausted(
                    f"EPC quota exceeded and eviction is making no "
                    f"progress (need={need}, "
                    f"resident={self.resident_count(enclave)}, "
                    f"quota={state.quota_pages})"
                )
            victim = self._select_victim(state)
            if victim is None:
                raise EpcExhausted(
                    f"EPC quota exceeded and no OS-managed page is "
                    f"evictable (need={need}, "
                    f"resident={self.resident_count(enclave)}, "
                    f"quota={state.quota_pages}, "
                    f"enclave_managed={len(state.enclave_managed)}, "
                    f"os_evictable={len(state.fifo_set)})"
                )
            self.evict_page(enclave, victim << 12)

    def _select_victim(self, state):
        """Clock (second chance) for legacy enclaves; plain FIFO for
        self-paging enclaves, whose PTE accessed bits are useless
        because Autarky requires them to be permanently set."""
        fifo = state.fifo
        use_clock = not state.enclave.self_paging
        rotations = 0
        while fifo:
            vpn = fifo[0]
            if vpn not in state.fifo_set:
                fifo.popleft()
                state.fifo_queued.discard(vpn)
                continue
            if use_clock and rotations < 2 * len(fifo):
                accessed, _dirty = \
                    self.page_table.read_accessed_dirty(vpn << 12)
                if accessed:
                    self.page_table.set_accessed_dirty(
                        vpn << 12, accessed=False
                    )
                    fifo.rotate(-1)
                    rotations += 1
                    continue
            return vpn
        return None

    def map_page(self, enclave, vaddr, region):
        """Install the PTE.  For self-paging enclaves both A and D are
        pre-set, otherwise the Autarky fill check would refuse the
        mapping the driver itself just created."""
        pre_set = enclave.self_paging
        self.page_table.map(
            vaddr,
            enclave.backed[vpn_of(vaddr)],
            writable=region.writable,
            executable=region.executable,
            accessed=pre_set,
            dirty=pre_set,
        )

    def _load_frame(self, enclave, base, region):
        """Bring page contents into a fresh EPC frame.

        EAUG pages start RW; executable regions are extended with the
        enclave's EMODPE after acceptance (zero-fill lazy code loading,
        as a JIT or loader would do)."""
        if self.backing.has(enclave.enclave_id, base):
            sealed = self.backing.take(enclave.enclave_id, base)
            self.instr.eldu(enclave, base, sealed, region.perms)
        else:
            self.instr.eaug(enclave, base)
            self.instr.eaccept(enclave, base)
            if region.executable:
                # EMODPE can only extend, so the page becomes RWX; a
                # hardening pass could EMODPR the W bit away afterwards.
                self.instr.emodpe(enclave, base, Permissions.RWX)

    # -- Autarky IOCTLs (§5.2.1) -------------------------------------------

    def ay_set_enclave_managed(self, enclave, vaddrs):
        """Claim pages for enclave management; returns their residency
        so the runtime can update its state and page in if desired."""
        state = self.state(enclave)
        residency = {}
        for vaddr in vaddrs:
            vpn = vpn_of(vaddr)
            state.enclave_managed.add(vpn)
            state.fifo_discard(vpn)
            residency[page_base(vaddr)] = vpn in enclave.backed
        self.clock.charge(self.cost.syscall, Category.OS)
        return residency

    def ay_set_os_managed(self, enclave, vaddrs):
        """Yield pages back to OS management."""
        state = self.state(enclave)
        for vaddr in vaddrs:
            vpn = vpn_of(vaddr)
            state.enclave_managed.discard(vpn)
            if vpn in enclave.backed:
                state.fifo_add(vpn)
        self.clock.charge(self.cost.syscall, Category.OS)

    def ay_fetch_pages(self, enclave, vaddrs):
        """Batched page-in of enclave-managed pages (SGX1 path: the
        privileged ELDU runs in the driver).  The runtime must have
        made room first via ay_evict_pages.

        Pages load in request order; resident and repeated pages are
        skipped.  A page the enclave does not manage is refused after
        every page before it has loaded."""
        state = self.state(enclave)
        bases, refused = self._plan_batch(state, enclave, vaddrs, False)
        fetched = []
        try:
            self._load_pages(state, enclave, bases, fetched)
        finally:
            self.pages_in += len(fetched)
        if refused is not None:
            raise SgxError(
                f"ay_fetch_pages on non-enclave-managed {refused:#x}"
            )
        return fetched

    @staticmethod
    def _plan_batch(state, enclave, vaddrs, resident):
        """The page bases a batched IOCTL acts on, in request order:
        each requested page once, when its residency is ``resident``,
        up to the first page the enclave does not manage.  That page's
        base is returned as the refusal, which the IOCTL raises once
        the pages before it are done (reads only: nothing the batch
        does changes which pages the plan picks)."""
        managed = state.enclave_managed
        backed = enclave.backed
        bases = []
        planned = set()
        for vaddr in vaddrs:
            base = vaddr & PAGE_MASK
            vpn = base >> PAGE_SHIFT
            if vpn not in managed:
                return bases, base
            if (vpn in backed) is resident and vpn not in planned:
                planned.add(vpn)
                bases.append(base)
        return bases, None

    def _load_pages(self, state, enclave, bases, loaded):
        """Load and map non-resident pages in order, appending each base
        to ``loaded`` as it completes; a page outside every declared
        region is refused before anything is done for it.

        A stretch of swapped-out pages in one region that fits under
        the quota loads as one ELDU run.  ``make_room(1)`` runs before
        every page that would not fit, exactly where the page-at-a-time
        loop ran it with effect (skipping it is only sound while
        ``len(backed) + 1 <= quota``, its loop condition; one
        ``make_room(n)`` up front would evict more eagerly and, the EPC
        free list being LIFO, reorder PFN assignment).  First-touch
        pages are zero-filled one at a time."""
        backed = enclave.backed
        enclave_id = enclave.enclave_id
        quota = state.quota_pages
        has = self.backing.has
        i, n = 0, len(bases)
        while i < n:
            base = bases[i]
            region = state.region_for(base >> PAGE_SHIFT)
            if region is None:
                raise SgxError(
                    f"ay_fetch_pages outside any declared region: "
                    f"{base:#x}"
                )
            if len(backed) >= quota:
                self.make_room(enclave, 1)
            if not has(enclave_id, base):
                self._load_frame(enclave, base, region)
                self.map_page(enclave, base, region)
                loaded.append(base)
                i += 1
                continue
            first, end = region.first_vpn, region.end_vpn
            stop = min(n, i + quota - len(backed))
            j = i + 1
            while (j < stop and first <= bases[j] >> PAGE_SHIFT < end
                   and has(enclave_id, bases[j])):
                j += 1
            self.instr.eldu_run(enclave, bases[i:j], region.perms,
                                self.backing.take, self.page_table, loaded)
            i = j

    def ay_evict_pages(self, enclave, vaddrs):
        """Batched eviction of enclave-managed pages at the enclave's
        request (SGX1 path): one EBLOCK→drop→EWB→store run over the
        resident pages, in request order."""
        state = self.state(enclave)
        bases, refused = self._plan_batch(state, enclave, vaddrs, True)
        evicted = []
        try:
            self.instr.ewb_run(enclave, bases, self.page_table,
                               self.backing, evicted)
        finally:
            self.pages_out += len(evicted)
        if refused is not None:
            raise SgxError(
                f"ay_evict_pages on non-enclave-managed {refused:#x}"
            )

    # -- SGX2 privileged halves (used by the runtime's SGX2 paging ops) ----

    def sgx2_augment(self, enclave, vaddr):
        """EAUG a pending enclave-managed page and pre-map it (A/D set).

        The page stays EPCM-pending until the enclave EACCEPTs or
        EACCEPTCOPYs it, so the OS cannot slip contents in unilaterally.
        """
        state = self.state(enclave)
        base = page_base(vaddr)
        if vpn_of(base) not in state.enclave_managed:
            raise SgxError(f"sgx2_augment on non-enclave-managed {base:#x}")
        self.make_room(enclave, 1)
        self.instr.eaug(enclave, base)
        region = state.region_for(vpn_of(base))
        self.map_page(enclave, base, region)
        self.pages_in += 1

    def sgx2_augment_batch(self, enclave, vaddrs):
        """EAUG a batch of pending enclave-managed pages.

        Pages already backed are skipped so a batch that failed
        part-way (EPC pressure, injected refusal) can be retried
        without double-EAUGing the pages that did succeed."""
        for vaddr in vaddrs:
            if vpn_of(vaddr) not in enclave.backed:
                self.sgx2_augment(enclave, vaddr)

    def sgx2_modpr_batch(self, enclave, vaddrs, perms):
        """EMODPR: propose permission reductions (enclave must EACCEPT).

        The reduction only bites once stale TLB entries are gone, so
        the flow mirrors the PTE and performs the shootdown — without
        it a concurrent writer could race the §6 eviction freeze
        through a cached writable translation."""
        for vaddr in vaddrs:
            base = page_base(vaddr)
            self.instr.emodpr(enclave, base, perms)
            if self.page_table.lookup(base) is not None:
                self.page_table.set_protection(
                    base,
                    writable=perms.write,
                    executable=perms.execute,
                )

    def sgx2_trim_batch(self, enclave, vaddrs):
        """EMODT the pages to TRIM (enclave must EACCEPT)."""
        for vaddr in vaddrs:
            self.instr.emodt(enclave, page_base(vaddr))

    def sgx2_remove_batch(self, enclave, vaddrs):
        """Drop mappings and EREMOVE trimmed-and-accepted pages."""
        for vaddr in vaddrs:
            base = page_base(vaddr)
            self.page_table.drop(base)
            self.instr.eremove(enclave, base)
            self.pages_out += 1

    def reclaim_enclave(self, enclave):
        """Tear down a dead (crashed or aborted) enclave's footprint.

        Frees every EPC frame the corpse still holds (EREMOVE is legal
        once the enclave is dead), drops its mappings, and forgets the
        driver-side state — the host-resource half of recovery, and the
        fix for the multi-enclave supervisor's EPC leak.  The enclave's
        sealed blobs stay in the backing store: untrusted memory has no
        delete, and recovery replays against them."""
        enclave.dead = True
        for vpn in list(enclave.backed):
            base = vpn << 12
            self.page_table.drop(base)
            self.instr.eremove(enclave, base)
        state = self._states.pop(enclave.enclave_id, None)
        if state is not None:
            state.fifo.clear()
            state.fifo_set.clear()
            state.fifo_queued.clear()
            state.enclave_managed.clear()
        self.clock.charge(self.cost.syscall, Category.OS)

    # -- whole-enclave swap (the OS's only big hammer, §5.2.1) -------------

    def suspend_enclave(self, enclave):
        """Swap out the entire enclave (all pages, pinned or not)."""
        state = self.state(enclave)
        state.suspended = True
        state.suspend_set = evicted = []
        try:
            self.instr.ewb_run(
                enclave, [vpn << PAGE_SHIFT for vpn in enclave.backed],
                self.page_table, self.backing, evicted,
            )
        finally:
            for base in evicted:
                state.fifo_discard(base >> PAGE_SHIFT)
            self.pages_out += len(evicted)
            if evicted:
                self.clock.charge(len(evicted) * self.cost.pte_update,
                                  Category.OS)

    def resume_enclave(self, enclave):
        """Restore every page evicted at suspension before the enclave
        may run again — the contract that makes suspension safe.

        The restore needs one free EPC frame per page.  When the EPC
        cannot hold it, the resume is refused before any blob is
        taken: the enclave stays suspended with nothing restored, and
        a later resume (once EPC is freed) can still succeed."""
        state = self.state(enclave)
        if not state.suspended:
            raise SgxError("resume of a non-suspended enclave")
        suspend_set = state.suspend_set
        free = self.instr.epc.free_pages
        if free < len(suspend_set):
            raise EpcExhausted(
                f"resume needs {len(suspend_set)} EPC pages, "
                f"{free} free"
            )
        restored = []
        try:
            for region, bases in self._region_runs(state, suspend_set):
                if region is None:
                    # Metadata pages (TCS) live outside declared
                    # regions: reload the frame but install no user
                    # mapping.
                    self.instr.eldu_run(enclave, bases, Permissions.RW,
                                        self.backing.take, None, restored)
                else:
                    self.instr.eldu_run(enclave, bases, region.perms,
                                        self.backing.take, self.page_table,
                                        restored)
        finally:
            managed = state.enclave_managed
            for base in restored:
                vpn = base >> PAGE_SHIFT
                if vpn not in managed:
                    state.fifo_add(vpn)
            self.pages_in += len(restored)
        state.suspend_set = []
        state.suspended = False
        return restored

    @staticmethod
    def _region_runs(state, bases):
        """Split ``bases`` into maximal consecutive runs of pages in one
        declared region (``None``: outside every region)."""
        runs = []
        for base in bases:
            region = state.region_for(base >> PAGE_SHIFT)
            if runs and runs[-1][0] is region:
                runs[-1][1].append(base)
            else:
                runs.append((region, [base]))
        return runs
