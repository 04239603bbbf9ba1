"""Tests for the double-layer compression scheme."""

import numpy as np
import pytest

from repro.homenc import DoubleLheParams, DoubleLheScheme
from repro.homenc.double import CompressedHint
from repro.lwe import LweParams
from repro.lwe.sampling import seeded_rng
from repro.rlwe.bfv import BfvCiphertext


def toy_params(q_bits=64, p=2**12, m=48, n_inner=32, n_outer=64):
    inner = LweParams(n=n_inner, q_bits=q_bits, p=p, sigma=6.4, m=m)
    return DoubleLheParams(
        inner=inner, outer_n=n_outer, outer_prime_bits=30, outer_num_primes=3
    )


@pytest.fixture(scope="module")
def scheme():
    return DoubleLheScheme(toy_params(), a_seed=b"D" * 32)


@pytest.fixture(scope="module")
def keyed(scheme):
    rng = seeded_rng(42)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    return keys, enc_key


class TestHintOutsourcing:
    def test_hint_product_matches_direct_computation(self, scheme, keyed):
        keys, enc_key = keyed
        rng = seeded_rng(1)
        matrix = rng.integers(-8, 8, size=(20, scheme.params.inner.m))
        prep = scheme.preprocess(matrix)
        compressed = scheme.evaluate_hint(enc_key, prep)
        got = scheme.decrypt_hint_product(keys, compressed)
        t = scheme.params.switch_modulus
        want = (
            prep.switched_hint.astype(object) @ keys.inner.signed().astype(object)
        ) % t
        assert np.array_equal(got.astype(object), want)

    def test_multi_chunk_hint(self, scheme, keyed):
        keys, enc_key = keyed
        rng = seeded_rng(2)
        rows = scheme.params.outer_n * 2 + 5  # forces three chunks
        matrix = rng.integers(-8, 8, size=(rows, scheme.params.inner.m))
        prep = scheme.preprocess(matrix)
        compressed = scheme.evaluate_hint(enc_key, prep)
        assert len(compressed.chunks) == 3
        got = scheme.decrypt_hint_product(keys, compressed)
        assert got.shape == (rows,)


class TestEndToEnd:
    def test_full_pipeline_matches_plaintext(self, scheme, keyed):
        keys, enc_key = keyed
        rng = seeded_rng(3)
        msg = rng.integers(-8, 8, scheme.params.inner.m)
        matrix = rng.integers(-8, 8, size=(30, scheme.params.inner.m))
        prep = scheme.preprocess(matrix)
        hint_product = scheme.decrypt_hint_product(
            keys, scheme.evaluate_hint(enc_key, prep)
        )
        ct = scheme.encrypt(keys, msg, rng)
        answer = scheme.apply(matrix, ct)
        got = scheme.decrypt_centered(keys, answer, hint_product)
        assert np.array_equal(got, matrix @ msg)

    def test_pipeline_with_32_bit_inner(self):
        scheme32 = DoubleLheScheme(
            toy_params(q_bits=32, p=2**8, m=40), a_seed=b"E" * 32
        )
        rng = seeded_rng(4)
        keys = scheme32.gen_keys(rng)
        enc_key = scheme32.encrypt_key(keys, rng)
        msg = rng.integers(0, 2, scheme32.params.inner.m)
        matrix = rng.integers(0, 8, size=(16, scheme32.params.inner.m))
        prep = scheme32.preprocess(matrix)
        hint_product = scheme32.decrypt_hint_product(
            keys, scheme32.evaluate_hint(enc_key, prep)
        )
        ct = scheme32.encrypt(keys, msg, rng)
        got = scheme32.decrypt(keys, scheme32.apply(matrix, ct), hint_product)
        assert np.array_equal(got, (matrix @ msg) % scheme32.params.inner.p)

    def test_boundary_messages(self, scheme, keyed):
        keys, enc_key = keyed
        rng = seeded_rng(5)
        p = scheme.params.inner.p
        # Top-of-range plaintexts wrap through the negative half of T.
        msg = np.full(scheme.params.inner.m, p - 1)
        eye = np.eye(scheme.params.inner.m, dtype=np.int64)
        prep = scheme.preprocess(eye)
        hint_product = scheme.decrypt_hint_product(
            keys, scheme.evaluate_hint(enc_key, prep)
        )
        ct = scheme.encrypt(keys, msg, rng)
        got = scheme.decrypt(keys, scheme.apply(eye, ct), hint_product)
        assert np.array_equal(got, msg)


class TestCompression:
    def test_compressed_hint_is_much_smaller_than_hint(self, scheme):
        rows = 500
        raw = scheme.inner.hint_bytes(rows)
        compressed = scheme.compressed_hint_bytes(rows)
        assert compressed < raw / 2

    def test_key_upload_accounting(self, scheme, keyed):
        _, enc_key = keyed
        assert enc_key.wire_bytes() == scheme.key_upload_bytes()


class TestValidation:
    def test_even_switch_modulus_rejected(self):
        inner = LweParams(n=16, q_bits=32, p=16, sigma=6.4, m=8)
        with pytest.raises(ValueError):
            DoubleLheParams(inner=inner, switch_modulus=1 << 20)

    def test_oversized_switch_modulus_rejected(self):
        inner = LweParams(n=16, q_bits=32, p=16, sigma=6.4, m=8)
        with pytest.raises(ValueError):
            DoubleLheParams(inner=inner, switch_modulus=(1 << 32) + 1)


class TestMalformedToken:
    """decrypt_hint_product refuses a token whose chunks do not cover
    exactly ``rows`` hint rows in well-shaped outer ciphertexts."""

    @pytest.fixture(scope="class")
    def url_hint(self, scheme, keyed):
        # 577 rows at n_outer = 64: ten chunks, the last one partial.
        _, enc_key = keyed
        matrix = seeded_rng(5).integers(0, 8, size=(577, scheme.params.inner.m))
        return scheme.evaluate_hint(enc_key, scheme.preprocess(matrix))

    def test_well_formed_hint_decrypts(self, scheme, keyed, url_hint):
        assert len(url_hint.chunks) == 10
        got = scheme.decrypt_hint_product(keyed[0], url_hint)
        assert got.shape == (577,)

    @pytest.mark.parametrize("count", [0, 3, 9, 11])
    def test_wrong_chunk_count_rejected(self, scheme, keyed, url_hint, count):
        chunks = (url_hint.chunks * 2)[:count]
        with pytest.raises(ValueError, match="10 chunks"):
            scheme.decrypt_hint_product(
                keyed[0], CompressedHint(chunks=chunks, rows=577)
            )

    @pytest.mark.parametrize(
        "cut",
        [
            lambda c: BfvCiphertext(b=c.b[:2], a=c.a[:2]),
            lambda c: BfvCiphertext(b=c.b[:, :32], a=c.a[:, :32]),
            lambda c: BfvCiphertext(b=c.b, a=c.a[:, :32]),
            lambda c: BfvCiphertext(b=c.b[None], a=c.a[None]),
        ],
        ids=["primes", "ring", "a-only", "stacked"],
    )
    def test_wrong_chunk_shape_rejected(self, scheme, keyed, url_hint, cut):
        chunks = list(url_hint.chunks)
        chunks[4] = cut(chunks[4])
        with pytest.raises(ValueError, match="chunk 4"):
            scheme.decrypt_hint_product(
                keyed[0], CompressedHint(chunks=tuple(chunks), rows=577)
            )
