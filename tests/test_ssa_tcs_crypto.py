"""SSA stack, TCS, and paging-crypto unit tests."""

import pytest

from repro.errors import IntegrityError, SgxError
from repro.sgx.crypto import PagingCrypto
from repro.sgx.params import AccessType
from repro.sgx.ssa import ExitInfo, SsaFrame, SsaStack
from repro.sgx.tcs import Tcs


class TestSsaStack:
    def _frame(self, vaddr=0x1000):
        return SsaFrame(exitinfo=ExitInfo(
            vector="#PF", vaddr=vaddr, access=AccessType.READ,
            present=False,
        ))

    def test_push_pop(self):
        ssa = SsaStack(2)
        frame = self._frame()
        ssa.push(frame)
        assert ssa.depth == 1
        assert ssa.pop() is frame
        assert ssa.depth == 0

    def test_peek_does_not_pop(self):
        ssa = SsaStack(2)
        ssa.push(self._frame())
        assert ssa.peek() is not None
        assert ssa.depth == 1

    def test_peek_empty_is_none(self):
        assert SsaStack(1).peek() is None

    def test_overflow_detected(self):
        """Exhausting the SSA stack (nested AEX) must be loud — the
        re-entrancy attack §5.3 provisions extra frames to detect."""
        ssa = SsaStack(1)
        ssa.push(self._frame())
        with pytest.raises(SgxError):
            ssa.push(self._frame())

    def test_pop_empty_rejected(self):
        with pytest.raises(SgxError):
            SsaStack(1).pop()

    def test_lifo_order(self):
        ssa = SsaStack(3)
        frames = [self._frame(v) for v in (1, 2, 3)]
        for f in frames:
            ssa.push(f)
        assert ssa.pop() is frames[2]
        assert ssa.pop() is frames[1]

    def test_needs_at_least_one_frame(self):
        with pytest.raises(ValueError):
            SsaStack(0)


class TestTcs:
    def test_fresh_tcs_state(self):
        tcs = Tcs()
        assert not tcs.busy
        assert not tcs.pending_exception
        assert tcs.ssa.depth == 0

    def test_unique_ids(self):
        assert Tcs().tcs_id != Tcs().tcs_id


class TestPagingCrypto:
    def test_seal_unseal_roundtrip(self):
        crypto = PagingCrypto()
        sealed = crypto.seal(1, 0x1000, "contents")
        assert crypto.unseal(1, 0x1000, sealed) == "contents"

    def test_replay_of_stale_version_rejected(self):
        """The anti-replay property EWB/ELDU's version arrays provide."""
        crypto = PagingCrypto()
        old = crypto.seal(1, 0x1000, "v1")
        crypto.unseal(1, 0x1000, old)           # legitimate reload
        fresh = crypto.seal(1, 0x1000, "v2")    # evicted again
        with pytest.raises(IntegrityError):
            crypto.unseal(1, 0x1000, old)       # replay the stale blob
        assert crypto.unseal(1, 0x1000, fresh) == "v2"

    def test_double_unseal_rejected(self):
        crypto = PagingCrypto()
        sealed = crypto.seal(1, 0x1000, "x")
        crypto.unseal(1, 0x1000, sealed)
        with pytest.raises(IntegrityError):
            crypto.unseal(1, 0x1000, sealed)

    def test_cross_enclave_substitution_rejected(self):
        crypto = PagingCrypto()
        sealed = crypto.seal(1, 0x1000, "x")
        with pytest.raises(IntegrityError):
            crypto.unseal(2, 0x1000, sealed)

    def test_cross_address_substitution_rejected(self):
        crypto = PagingCrypto()
        crypto.seal(1, 0x2000, "other")
        sealed = crypto.seal(1, 0x1000, "x")
        with pytest.raises(IntegrityError):
            crypto.unseal(1, 0x2000, sealed)

    def test_tampered_mac_rejected(self):
        import dataclasses
        crypto = PagingCrypto()
        sealed = crypto.seal(1, 0x1000, "x")
        forged = dataclasses.replace(sealed, mac=sealed.mac ^ 1)
        with pytest.raises(IntegrityError):
            crypto.unseal(1, 0x1000, forged)

    def test_unseal_without_outstanding_copy_rejected(self):
        crypto_a, crypto_b = PagingCrypto(), PagingCrypto()
        foreign = crypto_a.seal(1, 0x1000, "x")
        with pytest.raises(IntegrityError):
            crypto_b.unseal(1, 0x1000, foreign)

    def test_deep_copy_keeps_genuine_blobs_genuine(self):
        # A model checker's successor world is a deep copy: the copied
        # blob's mutable ciphertext (a TCS page) is a new object, and
        # the copy must still verify; a forged copy must still fail.
        import copy
        import dataclasses
        crypto = PagingCrypto()
        genuine = crypto.seal(1, 0x1000, Tcs())
        forged = dataclasses.replace(
            crypto.seal(1, 0x2000, Tcs()), mac="forged")
        crypto_copy, genuine_copy, forged_copy = copy.deepcopy(
            (crypto, genuine, forged))
        assert genuine_copy.ciphertext is not genuine.ciphertext
        assert crypto_copy.unseal(1, 0x1000, genuine_copy) \
            is genuine_copy.ciphertext
        with pytest.raises(IntegrityError):
            crypto_copy.unseal(1, 0x2000, forged_copy)
