"""Stateful property testing of the driver's page-management contract.

Drives the raw driver (no runtime) with interleavings of page-in,
eviction, Autarky management-transfer IOCTLs, and suspend/resume,
checking the §5.2.1 contract after every step:

* resident enclave-managed pages are pinned (driver eviction refuses);
* the quota is never exceeded;
* EPC frames never leak or double-count;
* contents survive arbitrary swap cycles (crypto accepted every blob);
* the PTE view is consistent with residency for OS-managed pages;
* a resume the EPC cannot hold is refused whole: nothing restored,
  no blob taken, the enclave still suspended.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import pytest

from repro.errors import EpcExhausted, SgxError
from repro.host.kernel import HostKernel
from repro.sgx.params import PAGE_SIZE

BASE = 0x1000_0000
NPAGES = 64
QUOTA = 24
#: Where a rule's short-lived second enclave takes EPC frames from.
HOG = 0x4000_0000


class DriverMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kernel = HostKernel(epc_pages=256)
        self.driver = self.kernel.driver
        self.enclave = self.driver.create_enclave(
            BASE, NPAGES, quota_pages=QUOTA,
        )
        self.driver.declare_region(self.enclave, BASE, NPAGES)
        self.kernel.instr.einit(self.enclave)
        self.enclave_managed = set()
        #: page -> token we last wrote into its frame contents.
        self.written = {}
        self.suspended = False

    def _page(self, index):
        return BASE + index * PAGE_SIZE

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1), token=st.integers())
    def os_pages_in_and_writes(self, index, token):
        page = self._page(index)
        if self.driver.resident(self.enclave, page):
            return
        try:
            self.driver.page_in(self.enclave, page)
        except EpcExhausted:
            # Legal when pinned pages fill the quota.
            assert len(self.enclave_managed) >= QUOTA - 1
            return
        pfn = self.enclave.backed[page >> 12]
        self.kernel.epc.frame(pfn).contents = token
        self.written[page] = token

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def os_tries_evict(self, index):
        page = self._page(index)
        if not self.driver.resident(self.enclave, page):
            return
        if page >> 12 in self.driver.state(self.enclave).enclave_managed:
            with pytest.raises(SgxError):
                self.driver.evict_page(self.enclave, page)
        else:
            self.driver.evict_page(self.enclave, page)

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def enclave_claims(self, index):
        page = self._page(index)
        self.driver.ay_set_enclave_managed(self.enclave, [page])
        self.enclave_managed.add(page)

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def enclave_releases(self, index):
        page = self._page(index)
        self.driver.ay_set_os_managed(self.enclave, [page])
        self.enclave_managed.discard(page)

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def enclave_fetches(self, index):
        page = self._page(index)
        if page not in self.enclave_managed:
            return
        if self.driver.resident(self.enclave, page):
            return
        try:
            self.driver.ay_fetch_pages(self.enclave, [page])
        except EpcExhausted:
            assert len(self.enclave_managed) >= QUOTA - 1

    @precondition(lambda self: not self.suspended)
    @rule(index=st.integers(0, NPAGES - 1))
    def enclave_evicts(self, index):
        page = self._page(index)
        if page in self.enclave_managed:
            self.driver.ay_evict_pages(self.enclave, [page])

    @precondition(lambda self: not self.suspended)
    @rule()
    def os_suspends(self):
        self.driver.suspend_enclave(self.enclave)
        self.suspended = True

    @precondition(lambda self: self.suspended)
    @rule()
    def os_resumes(self):
        self.driver.resume_enclave(self.enclave)
        self.suspended = False

    @precondition(lambda self: self.suspended)
    @rule()
    def os_resumes_short_of_epc(self):
        """Another enclave leaves one frame too few: the resume is
        refused before any blob is taken, and the suspension stays
        whole (the next resume, with the frames back, restores it)."""
        state = self.driver.state(self.enclave)
        need = len(state.suspend_set)
        if not need:
            return
        hog = self.driver.create_enclave(HOG, NPAGES * 4)
        self.driver.declare_region(hog, HOG, NPAGES * 4)
        self.kernel.instr.einit(hog)
        for i in range(self.kernel.epc.free_pages - need + 1):
            self.driver.page_in(hog, HOG + i * PAGE_SIZE)
        suspend_set = list(state.suspend_set)
        eid = self.enclave.enclave_id
        blobs = {v: self.kernel.backing.get(eid, v)
                 for v in self.kernel.backing.swapped_pages(eid)}
        with pytest.raises(EpcExhausted):
            self.driver.resume_enclave(self.enclave)
        assert self.enclave.backed == {}
        assert state.suspended and state.suspend_set == suspend_set
        assert {v: self.kernel.backing.get(eid, v)
                for v in self.kernel.backing.swapped_pages(eid)} == blobs
        self.driver.reclaim_enclave(hog)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def quota_respected(self):
        assert self.driver.resident_count(self.enclave) <= QUOTA

    @invariant()
    def epc_accounting_exact(self):
        assert self.kernel.epc.used_pages == len(self.enclave.backed)

    @invariant()
    def contents_never_corrupted(self):
        for page, token in self.written.items():
            vpn = page >> 12
            if vpn in self.enclave.backed:
                frame = self.kernel.epc.frame(self.enclave.backed[vpn])
                assert frame.contents == token

    @invariant()
    def pte_matches_residency(self):
        if self.suspended:
            return
        for index in range(NPAGES):
            page = self._page(index)
            pte = self.kernel.page_table.lookup(page)
            if self.driver.resident(self.enclave, page):
                assert pte is not None and pte.present
            else:
                assert pte is None or not pte.present


DriverMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None,
)
TestDriverMachine = DriverMachine.TestCase
