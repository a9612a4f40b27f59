"""The SGX1 paging IOCTLs' observable contract, pinned exactly.

``ay_fetch_pages``, ``ay_evict_pages``, ``suspend_enclave`` and
``resume_enclave`` are driven on a small :class:`HostKernel` with the
lifecycle oracle attached.  Each scenario asserts what a caller or a
digest can see: the oracle's op stream (EBLOCK, drop, EWB, ELDU per
page, in order), ``clock.by_category``, the final translation epoch,
the page → PFN assignment (the EPC free list is LIFO, so reordering
allocations moves PFNs), the backing store's keys and blob versions,
and the driver's page counters.  Two partial failures are pinned too:
a forged blob at position k of a fetch, and a quota shortage in
``make_room`` half-way through one.  In both, the pages before k stay
resident and mapped and the blobs after k are not taken.
"""

from dataclasses import replace

import pytest

from repro.analysis.passes.lifecycle.oracle import LifecycleOracle
from repro.errors import EpcExhausted, IntegrityError, SgxError
from repro.host.kernel import HostKernel
from repro.sgx.enclave import EnclaveAttributes
from repro.sgx.params import PAGE_SIZE

BASE = 0x1000_0000
#: The code region starts here (read-only, executable).
CODE = 24
#: A TCS page outside every declared region: resume reloads it
#: without a user mapping.
TCS = 30


def page(i):
    return BASE + i * PAGE_SIZE


def boot(quota, epc_pages=48):
    kernel = HostKernel(epc_pages=epc_pages)
    enclave = kernel.driver.create_enclave(
        BASE, 32, attributes=EnclaveAttributes(self_paging=True),
        quota_pages=quota,
    )
    kernel.driver.declare_region(enclave, BASE, CODE)
    kernel.driver.declare_region(enclave, page(CODE), 4, writable=False,
                                 executable=True)
    kernel.instr.eadd_tcs(enclave, page(TCS))
    kernel.instr.einit(enclave)
    oracle = LifecycleOracle().install(kernel)
    return kernel, enclave, oracle


def trace(oracle):
    """The op stream as ``name@page-index`` (``drop`` carries no
    enclave, but its page is enough to place it)."""
    out = []
    for _seq, name, _encl, key in oracle.trace:
        index = (int(key.rsplit(":", 1)[1], 16) - BASE) // PAGE_SIZE
        out.append(f"{name}@{index}")
    return out


def pfns(enclave):
    return {(vpn << 12) - BASE >> 12: pfn
            for vpn, pfn in sorted(enclave.backed.items())}


def swapped(kernel, enclave):
    eid = enclave.enclave_id
    return {(vaddr - BASE) // PAGE_SIZE:
            kernel.backing.get(eid, vaddr).version
            for vaddr in kernel.backing.swapped_pages(eid)}


def mapped(kernel):
    return sorted(
        (((vpn << 12) - BASE) // PAGE_SIZE, pte.pfn, pte.writable,
         pte.executable, pte.accessed, pte.dirty)
        for vpn, pte in kernel.page_table._ptes.items()
    )


def write_tokens(kernel, enclave, indices):
    for i in indices:
        frame = kernel.epc.frame(enclave.backed[page(i) >> 12])
        frame.contents = f"token-{i}"


def contents(kernel, enclave, indices):
    return {i: kernel.epc.frame(enclave.backed[page(i) >> 12]).contents
            for i in indices}


class TestRoundTrip:
    """Fetch, evict, refetch, suspend, resume: the whole SGX1 cycle."""

    def test_fetch_evict_suspend_resume(self):
        kernel, enclave, oracle = boot(quota=11)
        driver = kernel.driver
        # Three OS-managed pages (one in the code region), resident
        # before the enclave claims anything: make_room evicts the two
        # oldest from inside the first fetch batch.
        for i in (20, 21, CODE):
            driver.page_in(enclave, page(i))
        driver.ay_set_enclave_managed(enclave, [page(i) for i in range(10)])

        first = driver.ay_fetch_pages(enclave, [page(i) for i in range(9)])
        assert first == [page(i) for i in range(9)]
        write_tokens(kernel, enclave, range(9))
        assert pfns(enclave) == {
            0: 4, 1: 5, 2: 6, 3: 7, 4: 8, 5: 9, 6: 10, 7: 1, 8: 2,
            CODE: 3, TCS: 0,
        }
        assert swapped(kernel, enclave) == {20: 1, 21: 1}

        # Duplicates and a non-resident page are skipped in place.
        driver.ay_evict_pages(
            enclave, [page(i) for i in (2, 5, 2, 7, 3, 9, 8, 1)])
        assert swapped(kernel, enclave) == {
            1: 1, 2: 1, 3: 1, 5: 1, 7: 1, 8: 1, 20: 1, 21: 1,
        }
        again = driver.ay_fetch_pages(
            enclave, [page(i) for i in (7, 0, 3, 7, 2)])
        assert again == [page(7), page(3), page(2)]
        assert contents(kernel, enclave, (7, 3, 2)) == {
            7: "token-7", 3: "token-3", 2: "token-2",
        }

        driver.suspend_enclave(enclave)
        assert enclave.backed == {}
        assert swapped(kernel, enclave) == {
            0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1, 6: 1, 7: 2, 8: 1,
            20: 1, 21: 1, CODE: 1, TCS: 1,
        }
        restored = driver.resume_enclave(enclave)
        assert restored == [page(i) for i in (TCS, CODE, 0, 4, 6, 7, 3, 2)]
        assert contents(kernel, enclave, (0, 2, 3, 4, 6, 7)) == {
            i: f"token-{i}" for i in (0, 2, 3, 4, 6, 7)
        }

        assert oracle.violations == []
        assert trace(oracle) == [
            # first fetch: the EAUG page-ins are unobserved; make_room
            # evicts the two oldest OS pages as the quota fills
            "eblock@20", "drop@20", "ewb@20",
            "eblock@21", "drop@21", "ewb@21",
            # evict batch: per page EBLOCK, drop, EWB
            "eblock@2", "drop@2", "ewb@2",
            "eblock@5", "drop@5", "ewb@5",
            "eblock@7", "drop@7", "ewb@7",
            "eblock@3", "drop@3", "ewb@3",
            "eblock@8", "drop@8", "ewb@8",
            "eblock@1", "drop@1", "ewb@1",
            # refetch
            "eldu@7", "eldu@3", "eldu@2",
            # suspend: every backed page, in residency order
            "eblock@30", "drop@30", "ewb@30",
            "eblock@24", "drop@24", "ewb@24",
            "eblock@0", "drop@0", "ewb@0",
            "eblock@4", "drop@4", "ewb@4",
            "eblock@6", "drop@6", "ewb@6",
            "eblock@7", "drop@7", "ewb@7",
            "eblock@3", "drop@3", "ewb@3",
            "eblock@2", "drop@2", "ewb@2",
            # resume: the suspend set, in suspend order
            "eldu@30", "eldu@24", "eldu@0", "eldu@4", "eldu@6",
            "eldu@7", "eldu@3", "eldu@2",
        ]
        assert dict(kernel.clock.by_category) == {
            "sgx_paging": 310_000,
            "os": 5_400,
        }
        assert kernel.epoch.value == 123
        assert pfns(enclave) == {
            0: 5, 2: 0, 3: 3, 4: 10, 6: 8, 7: 4, CODE: 2, TCS: 7,
        }
        # The TCS page is restored without a user mapping.
        assert mapped(kernel) == [
            (0, 5, True, False, True, True),
            (2, 0, True, False, True, True),
            (3, 3, True, False, True, True),
            (4, 10, True, False, True, True),
            (6, 8, True, False, True, True),
            (7, 4, True, False, True, True),
            (CODE, 2, False, True, True, True),
        ]
        assert swapped(kernel, enclave) == {1: 1, 5: 1, 8: 1, 20: 1, 21: 1}
        assert (driver.pages_in, driver.pages_out) == (23, 16)
        state = driver.state(enclave)
        # Each vpn is queued once: CODE, re-added at resume while still
        # queued, keeps its earlier place; 21 is a stale entry.
        assert list(state.fifo) == [page(i) >> 12 for i in (21, CODE, TCS)]
        assert state.fifo_set == {page(CODE) >> 12, page(TCS) >> 12}
        assert not state.suspended and state.suspend_set == []

    def test_fetch_rejects_unmanaged_page_after_the_prefix(self):
        kernel, enclave, _oracle = boot(quota=10)
        driver = kernel.driver
        driver.ay_set_enclave_managed(enclave, [page(0), page(1)])
        with pytest.raises(SgxError, match="non-enclave-managed"):
            driver.ay_fetch_pages(enclave, [page(0), page(9), page(1)])
        assert pfns(enclave) == {0: 1, TCS: 0}
        assert driver.pages_in == 1


def evicted_batch(quota=10, n=6):
    """``n`` enclave-managed pages fetched, tagged, then evicted."""
    kernel, enclave, oracle = boot(quota=quota)
    driver = kernel.driver
    pages = [page(i) for i in range(n)]
    driver.ay_set_enclave_managed(enclave, pages)
    driver.ay_fetch_pages(enclave, pages)
    write_tokens(kernel, enclave, range(n))
    driver.ay_evict_pages(enclave, pages)
    return kernel, enclave, oracle


class TestPartialFailure:
    def test_forged_blob_at_k(self):
        kernel, enclave, oracle = evicted_batch()
        eid = enclave.enclave_id
        genuine = kernel.backing.get(eid, page(3))
        kernel.backing.substitute(
            eid, page(3), replace(genuine, mac=genuine.mac + 1))
        before = kernel.clock.by_category["sgx_paging"]

        with pytest.raises(IntegrityError, match="MAC mismatch"):
            kernel.driver.ay_fetch_pages(
                enclave, [page(i) for i in range(6)])

        # Pages before k: resident, mapped, contents intact.
        assert pfns(enclave) == {0: 6, 1: 5, 2: 4, TCS: 0}
        assert mapped(kernel) == [
            (0, 6, True, False, True, True),
            (1, 5, True, False, True, True),
            (2, 4, True, False, True, True),
        ]
        assert contents(kernel, enclave, (0, 1, 2)) == {
            i: f"token-{i}" for i in (0, 1, 2)
        }
        # The forged blob was taken (and refused); the blobs after it
        # were never touched.
        assert swapped(kernel, enclave) == {4: 1, 5: 1}
        # k's ELDU reached its charge point; the later pages did not.
        assert kernel.clock.by_category["sgx_paging"] - before == \
            4 * kernel.cost.eldu
        assert kernel.driver.pages_in == 6 + 3
        assert trace(oracle)[-4:] == ["ewb@5", "eldu@0", "eldu@1", "eldu@2"]
        assert oracle.violations == []
        assert kernel.epoch.value == 49
        assert kernel.epc.free_pages + len(enclave.backed) == 48

    def test_quota_shortage_mid_fetch(self):
        kernel, enclave, oracle = evicted_batch(quota=10)
        driver = kernel.driver
        # Seven pinned pages elsewhere (plus the TCS) leave room for
        # two of the six.
        hog = [page(i) for i in range(10, 17)]
        driver.ay_set_enclave_managed(enclave, hog)
        driver.ay_fetch_pages(enclave, hog)
        before = kernel.clock.by_category["sgx_paging"]

        with pytest.raises(EpcExhausted, match="no OS-managed page"):
            driver.ay_fetch_pages(enclave, [page(i) for i in range(6)])

        assert pfns(enclave) == {
            0: 8, 1: 9, 10: 6, 11: 5, 12: 4, 13: 3, 14: 2, 15: 1, 16: 7,
            TCS: 0,
        }
        assert mapped(kernel)[:2] == [
            (0, 8, True, False, True, True),
            (1, 9, True, False, True, True),
        ]
        assert swapped(kernel, enclave) == {2: 1, 3: 1, 4: 1, 5: 1}
        assert kernel.clock.by_category["sgx_paging"] - before == \
            2 * kernel.cost.eldu
        assert trace(oracle)[-3:] == ["ewb@5", "eldu@0", "eldu@1"]
        assert driver.pages_in == 15
        assert kernel.epoch.value == 68
