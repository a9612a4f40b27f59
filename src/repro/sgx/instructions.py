"""The SGX instruction set (the subset the paper's flows depend on).

Launch:    ECREATE, EADD, EINIT
Paging v1: EWB, ELDU                       (privileged, driver-executed)
Paging v2: EAUG, EACCEPT, EACCEPTCOPY, EMODPR, EMODT, EREMOVE
           (OS proposes, unprivileged enclave code confirms)

Every instruction enforces the architectural rules: the OS cannot forge
contents (crypto), cannot replay stale pages (versioning), and cannot
change a live enclave's memory without the enclave's EACCEPT.  Costs
are charged to :data:`Category.SGX_PAGING` so Figure 5 can be rebuilt.
"""

from __future__ import annotations

from repro.clock import Category
from repro.errors import SgxError
from repro.sgx.enclave import Enclave
from repro.sgx.epcm import PageType, Permissions
from repro.sgx.epoch import TranslationEpoch
from repro.sgx.params import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, vpn_of
from repro.sgx.tcs import Tcs


class SgxInstructions:
    """Executes SGX instructions against shared EPC/EPCM state."""

    def __init__(self, epc, epcm, clock, cost, epoch=None):
        self.epc = epc
        self.epcm = epcm
        self.clock = clock
        self.cost = cost
        #: Translation generation stamp, bumped by every instruction
        #: that mutates EPCM state (the kernel shares one stamp across
        #: the whole machine; standalone rigs get a private one).
        self.epoch = epoch if epoch is not None else TranslationEpoch()
        #: The CPU's EWB/ELDU sealing engine (one key per package).
        from repro.sgx.crypto import PagingCrypto
        self.hw_crypto = PagingCrypto()
        self.enclaves = {}
        #: Registered by the kernel at boot so EWB can verify the
        #: ETRACK shootdown completed (no stale translations).
        self.tlb = None
        #: Optional chaos hook consulted before EAUG allocates: a
        #: scripted host may refuse the augmentation (EPC pressure) by
        #: raising from the hook.  See repro.chaos.
        self.fault_hook = None
        #: Optional lifecycle witness, called ``op_observer(name,
        #: enclave, vaddr)`` after each protocol-relevant instruction
        #: *completes* (a refused instruction never happened).  The
        #: model checker's runtime oracle feeds these into the same
        #: automata the static lifecycle pass runs.
        self.op_observer = None

    def _observe(self, name, enclave, vaddr=None):
        if self.op_observer is not None:
            self.op_observer(name, enclave, vaddr)

    # -- launch ----------------------------------------------------------

    def ecreate(self, base, size_pages, attributes=None):
        enclave = Enclave(base, size_pages, attributes)
        self.enclaves[enclave.enclave_id] = enclave
        enclave.measurement.extend("ECREATE", base)
        self._observe("ecreate", enclave)
        return enclave

    def eadd(self, enclave, vaddr, contents=None, perms=Permissions.RW,
             page_type=PageType.REG):
        """Add and measure an initial page (pre-EINIT)."""
        self._check_range(enclave, vaddr)
        if enclave.initialized:
            raise SgxError("EADD after EINIT")
        pfn = self._install(enclave, vaddr, contents, perms, page_type)
        enclave.measurement.extend("EADD", vaddr)
        self._observe("eadd", enclave, vaddr)
        return pfn

    def eadd_tcs(self, enclave, vaddr, nssa=None):
        """Add a TCS page; returns the TCS object."""
        from repro.sgx.params import DEFAULT_NSSA
        tcs = Tcs(nssa or DEFAULT_NSSA)
        self.eadd(enclave, vaddr, contents=tcs, perms=Permissions.RW,
                  page_type=PageType.TCS)
        enclave.add_tcs(tcs)
        return tcs

    def einit(self, enclave):
        if enclave.initialized:
            raise SgxError("double EINIT")
        enclave.initialized = True
        self._observe("einit", enclave)

    # -- SGX1 paging (privileged) ------------------------------------------

    # EBLOCK's few hundred cycles are folded into the EWB figure the
    # cost model calibrates against (§7.1 measures the eviction
    # sequence as a whole), so charging here would double-count.
    # repro: allow[cycle-accounting] cost folded into the EWB figure
    def eblock(self, enclave, vaddr):
        """Mark a page blocked: no *new* TLB translations may be
        created for it (existing ones persist until shot down — the
        window ETRACK exists to close)."""
        self.epoch.value += 1
        entry = self._entry_for(enclave, vaddr)
        if entry.blocked:
            raise SgxError(f"EBLOCK: {vaddr:#x} already blocked")
        entry.blocked = True
        self._observe("eblock", enclave, vaddr)

    # EWB and ELDU each have one implementation: a run over a page
    # vector (ewb_run / eldu_run), of which the single-page methods are
    # the 1-element case.  A run performs every per-page check, epoch
    # bump and observer call at the same point in the same order as a
    # sequence of single-page calls would, but charges the clock once,
    # in a ``finally``, for exactly the pages that reached the per-page
    # charge point.  Nothing reads the clock inside a run, so the totals
    # and every reading taken outside one are those of the per-page
    # sequence, even when a page in the middle is refused.

    def ewb(self, enclave, vaddr):
        """Evict a page: seal contents, free the frame, return the blob.

        Architectural preconditions enforced here (§2.1): the page must
        be EBLOCKed, and no logical processor may still hold a cached
        translation — i.e. the ETRACK/IPI shootdown sequence completed.
        We verify the latter directly against the TLB when the kernel
        registered one.
        """
        return self.ewb_run(enclave, (vaddr,))[0]

    def ewb_run(self, enclave, vaddrs, page_table=None, backing=None,
                done=None):
        """EWB over a page vector, in order.

        Without ``page_table`` every page must already be EBLOCKed and
        shot down, and the sealed blobs are returned.  With it, the run
        is the whole eviction sequence of each page before the next
        page is touched: EBLOCK (no new TLB fills), drop the mapping
        (the ETRACK/IPI shootdown), EWB, and ``backing.put`` of the
        blob — so no sealed blob is lost when a later page is refused.
        ``done`` receives each page's base as it completes; after an
        exception it holds exactly the completed prefix.
        """
        epoch = self.epoch
        backed = enclave.backed
        enclave_id = enclave.enclave_id
        entry_of = self.epcm.entry
        frame_of = self.epc.frame
        free = self.epc.free
        seal = self.hw_crypto.seal
        tlb = self.tlb
        observe = self.op_observer
        blobs = []
        charged = 0
        try:
            for vaddr in vaddrs:
                base = vaddr & PAGE_MASK
                if page_table is not None:
                    self.eblock(enclave, vaddr)
                    page_table.drop(base)
                epoch.value += 1
                charged += 1
                vpn = vaddr >> PAGE_SHIFT
                pfn = backed.get(vpn)
                if pfn is None:
                    raise SgxError(f"EWB: {vaddr:#x} not backed by EPC")
                entry = entry_of(pfn)
                if not entry.blocked:
                    raise SgxError(
                        f"EWB: {vaddr:#x} not blocked (EBLOCK required "
                        "first)"
                    )
                if tlb is not None and base in tlb:
                    raise SgxError(
                        f"EWB: stale TLB translation for {vaddr:#x} "
                        "(ETRACK shootdown incomplete)"
                    )
                frame = frame_of(pfn)
                sealed = seal(enclave_id, base, frame.contents)
                entry.valid = False
                entry.blocked = False
                free(frame)
                del backed[vpn]
                if observe is not None:
                    observe("ewb", enclave, vaddr)
                if backing is None:
                    blobs.append(sealed)
                else:
                    backing.put(enclave_id, base, sealed)
                if done is not None:
                    done.append(base)
        finally:
            if charged:
                self.clock.charge(charged * self.cost.ewb,
                                  Category.SGX_PAGING)
        return blobs

    def eldu(self, enclave, vaddr, sealed, perms=Permissions.RW):
        """Reload an evicted page, verifying integrity and freshness."""
        self.eldu_run(enclave, (vaddr,), perms, lambda _eid, _va: sealed)
        return enclave.backed[vaddr >> PAGE_SHIFT]

    def eldu_run(self, enclave, vaddrs, perms, take, page_table=None,
                 done=None):
        """ELDU over a page vector, in order, every page with ``perms``.

        ``take(enclave_id, vaddr)`` hands over each page's sealed blob
        when its turn comes (the backing store's ``take``), so a page
        refused at position k leaves the blobs after k untouched.  With
        ``page_table`` each page is mapped as soon as it is installed,
        with PTE bits matching ``perms`` and, for a self-paging enclave,
        accessed/dirty pre-set (the driver's ``map_page``).  ``done``
        receives each page's base as it completes.
        """
        enclave_id = enclave.enclave_id
        base_lo, base_hi = enclave.base, enclave.limit
        unseal = self.hw_crypto.unseal
        install = self._install
        observe = self.op_observer
        if page_table is not None:
            map_pte = page_table.map
            writable, executable = perms.write, perms.execute
            pre_set = enclave.self_paging
        charged = 0
        try:
            for vaddr in vaddrs:
                sealed = take(enclave_id, vaddr)
                if not base_lo <= vaddr < base_hi:
                    self._check_range(enclave, vaddr)
                charged += 1
                contents = unseal(enclave_id, vaddr & PAGE_MASK, sealed)
                pfn = install(enclave, vaddr, contents, perms, PageType.REG)
                if observe is not None:
                    observe("eldu", enclave, vaddr)
                if page_table is not None:
                    map_pte(vaddr, pfn, writable, executable, pre_set,
                            pre_set)
                if done is not None:
                    done.append(vaddr)
        finally:
            if charged:
                self.clock.charge(charged * self.cost.eldu,
                                  Category.SGX_PAGING)

    # -- SGX2 dynamic memory management ------------------------------------

    def eaug(self, enclave, vaddr):
        """OS adds a zeroed page in pending state (needs EACCEPT[COPY])."""
        self._check_range(enclave, vaddr)
        if not enclave.attributes.sgx2:
            raise SgxError("EAUG requires SGX2")
        if self.fault_hook is not None:
            self.fault_hook("eaug", enclave, vaddr)
        self.clock.charge(self.cost.eaug, Category.SGX_PAGING)
        pfn = self._install(enclave, vaddr, None, Permissions.RW,
                            PageType.REG)
        self.epcm.entry(pfn).pending = True
        return pfn

    def eaccept(self, enclave, vaddr):
        """Enclave confirms an OS-proposed change (clears pending/modified)."""
        self.epoch.value += 1
        self.clock.charge(self.cost.eaccept, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        if not (entry.pending or entry.modified):
            raise SgxError(f"EACCEPT: nothing pending at {vaddr:#x}")
        entry.pending = False
        entry.modified = False

    def eacceptcopy(self, enclave, vaddr, contents):
        """Enclave accepts a pending page, initializing its contents —
        the SGX2 page-in path (contents were decrypted in-enclave)."""
        self.epoch.value += 1
        self.clock.charge(self.cost.eacceptcopy, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        if not entry.pending:
            raise SgxError(f"EACCEPTCOPY: page not pending at {vaddr:#x}")
        entry.pending = False
        pfn = enclave.backed[vpn_of(vaddr)]
        self.epc.frame(pfn).contents = contents
        return pfn

    def emodpe(self, enclave, vaddr, perms):
        """Enclave-side permission *extension* (e.g. RW → RX after the
        enclave verified freshly-loaded code).  Unlike EMODPR this runs
        inside the enclave and takes effect immediately."""
        self.epoch.value += 1
        self.clock.charge(self.cost.eaccept, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        if (entry.perms.read and not perms.read) or \
           (entry.perms.write and not perms.write) or \
           (entry.perms.execute and not perms.execute):
            raise SgxError("EMODPE can only extend permissions")
        entry.perms = perms

    def emodpr(self, enclave, vaddr, perms):
        """OS proposes a permission *reduction* (needs EACCEPT)."""
        self.epoch.value += 1
        self.clock.charge(self.cost.emodpr, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        if (perms.read and not entry.perms.read) or \
           (perms.write and not entry.perms.write) or \
           (perms.execute and not entry.perms.execute):
            raise SgxError("EMODPR can only reduce permissions")
        entry.perms = perms
        entry.modified = True

    def emodt(self, enclave, vaddr, page_type=PageType.TRIM):
        """OS proposes a type change — trimming for deallocation."""
        self.epoch.value += 1
        self.clock.charge(self.cost.emodt, Category.SGX_PAGING)
        entry = self._entry_for(enclave, vaddr)
        entry.page_type = page_type
        entry.modified = True

    def eremove(self, enclave, vaddr):
        """Free a trimmed-and-accepted (or dead-enclave) page."""
        self.epoch.value += 1
        self.clock.charge(self.cost.eremove, Category.SGX_PAGING)
        vpn = vpn_of(vaddr)
        pfn = enclave.backed.get(vpn)
        if pfn is None:
            raise SgxError(f"EREMOVE: {vaddr:#x} not backed")
        entry = self.epcm.entry(pfn)
        trimmed = entry.page_type is PageType.TRIM and not entry.modified
        if not (trimmed or enclave.dead):
            raise SgxError(
                "EREMOVE on a live, untrimmed page (would break the enclave)"
            )
        entry.valid = False
        entry.page_type = PageType.REG
        self.epc.free(self.epc.frame(pfn))
        del enclave.backed[vpn]

    def epc_parity_violations(self):
        """Free EPC frames plus every enclave's backed pages equal the
        EPC size: no frame lost, none owned twice."""
        backed = sum(len(enclave.backed) for enclave in self.enclaves.values())
        if self.epc.free_pages + backed != self.epc.total_pages:
            return [
                f"EPC parity broken: {self.epc.free_pages} free + {backed} "
                f"backed != {self.epc.total_pages} total"
            ]
        return []

    # -- helpers -----------------------------------------------------------

    def _install(self, enclave, vaddr, contents, perms, page_type):
        if vaddr % PAGE_SIZE:
            raise SgxError(f"unaligned enclave page {vaddr:#x}")
        self.epoch.value += 1
        vpn = vaddr >> PAGE_SHIFT
        if vpn in enclave.backed:
            raise SgxError(f"{vaddr:#x} already backed by EPC")
        frame = self.epc.alloc()
        frame.contents = contents
        entry = self.epcm.entry(frame.pfn)
        entry.valid = True
        entry.page_type = page_type
        entry.enclave_id = enclave.enclave_id
        entry.vaddr = vaddr
        entry.perms = perms
        entry.pending = False
        entry.modified = False
        entry.blocked = False
        enclave.backed[vpn] = frame.pfn
        return frame.pfn

    def _entry_for(self, enclave, vaddr):
        pfn = enclave.backed.get(vaddr >> PAGE_SHIFT)
        if pfn is None:
            raise SgxError(f"{vaddr:#x} not backed by EPC")
        return self.epcm.entry(pfn)

    def _check_range(self, enclave, vaddr):
        if not enclave.contains(vaddr):
            raise SgxError(
                f"{vaddr:#x} outside enclave "
                f"[{enclave.base:#x}, {enclave.limit:#x})"
            )
