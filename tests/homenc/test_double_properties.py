"""Property-based tests: the double-layer pipeline over random shapes.

One strategy instance = one full Enc -> Preproc -> Apply -> compress
-> decrypt pipeline with randomized dimensions, moduli, messages, and
matrices.  The invariant is total: the recovered plaintext equals the
plaintext matrix-vector product, for every parameter combination the
scheme accepts.

The client's outer layer is batched -- one outer encryption of all
inner-secret components, one decryption of all hint chunks -- and
must stay bit-identical to the per-component and per-chunk loops, and
to the bytes recorded before it was batched.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.homenc import DoubleLheParams, DoubleLheScheme
from repro.homenc.double import EncryptedKey
from repro.homenc.token import make_client_keys
from repro.lwe import LweParams
from repro.lwe.sampling import seeded_rng


@st.composite
def pipeline_cases(draw):
    q_bits = draw(st.sampled_from([32, 64]))
    p_bits = draw(st.integers(6, 10 if q_bits == 32 else 14))
    m = draw(st.integers(4, 24))
    rows = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    return q_bits, 1 << p_bits, m, rows, seed


@given(pipeline_cases())
@settings(max_examples=15, deadline=None)
def test_pipeline_total_correctness(case):
    q_bits, p, m, rows, seed = case
    inner = LweParams(n=24, q_bits=q_bits, p=p, sigma=3.2, m=m)
    scheme = DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=32, outer_num_primes=3),
        a_seed=seed.to_bytes(4, "little") * 8,
    )
    rng = seeded_rng(seed)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    bound = 4
    matrix = rng.integers(-bound, bound + 1, size=(rows, m))
    msg = rng.integers(-bound, bound + 1, m)
    prep = scheme.preprocess(matrix)
    hint_product = scheme.decrypt_hint_product(
        keys, scheme.evaluate_hint(enc_key, prep)
    )
    ct = scheme.encrypt(keys, msg, rng)
    got = scheme.decrypt_centered(keys, scheme.apply(matrix, ct), hint_product)
    want = matrix @ msg
    # The product must stay inside the centered plaintext range.
    if np.abs(want).max() < p // 2:
        assert np.array_equal(got, want)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_one_key_many_matrices(seed, num_matrices):
    """One encrypted key serves any number of preprocessed matrices."""
    inner = LweParams(n=16, q_bits=64, p=2**10, sigma=3.2, m=8)
    scheme = DoubleLheScheme(
        DoubleLheParams(inner=inner, outer_n=32), a_seed=b"H" * 32
    )
    rng = seeded_rng(seed)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    msg = rng.integers(-3, 4, 8)
    ct = scheme.encrypt(keys, msg, rng)
    for _ in range(num_matrices):
        matrix = rng.integers(-3, 4, size=(6, 8))
        prep = scheme.preprocess(matrix)
        hint_product = scheme.decrypt_hint_product(
            keys, scheme.evaluate_hint(enc_key, prep)
        )
        got = scheme.decrypt_centered(
            keys, scheme.apply(matrix, ct), hint_product
        )
        assert np.array_equal(got, matrix @ msg)


def small_scheme(q_bits, n_inner=24, m=16, seed=b"D" * 32):
    p = 2**8 if q_bits == 32 else 2**10
    inner = LweParams(n=n_inner, q_bits=q_bits, p=p, sigma=3.2, m=m)
    return DoubleLheScheme(DoubleLheParams(inner=inner, outer_n=32), a_seed=seed)


@given(st.sampled_from([32, 64]), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_batched_encrypt_key_equals_per_component_loop(q_bits, n_inner, seed):
    """encrypt_key is one batched outer encryption; component i must be
    the i-th of n_inner single encryptions drawn from the same rng."""
    scheme = small_scheme(q_bits, n_inner=n_inner)
    keys = scheme.gen_keys(seeded_rng(seed))
    batched = scheme.encrypt_key(keys, seeded_rng(seed + 1))
    rng = seeded_rng(seed + 1)
    cts = [
        scheme.outer.encrypt(keys.outer, np.array([s_i]), rng)
        for s_i in keys.inner.signed()
    ]
    assert batched.z_b.shape == (n_inner, scheme.outer.ring.k, 32)
    assert np.array_equal(batched.z_b, np.stack([ct.b for ct in cts]))
    assert np.array_equal(batched.z_a, np.stack([ct.a for ct in cts]))


@given(st.sampled_from([32, 64]), st.integers(1, 100), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_batched_hint_decrypt_equals_per_chunk_decrypt(q_bits, rows, seed):
    """decrypt_hint_product decrypts every chunk in one stacked pass;
    the result must equal decrypting chunk by chunk."""
    scheme = small_scheme(q_bits)
    rng = seeded_rng(seed)
    keys = scheme.gen_keys(rng)
    matrix = rng.integers(-8, 8, size=(rows, scheme.params.inner.m))
    hint = scheme.evaluate_hint(
        scheme.encrypt_key(keys, rng), scheme.preprocess(matrix)
    )
    per_chunk = np.concatenate(
        [scheme.outer.decrypt(keys.outer, chunk) for chunk in hint.chunks]
    )
    got = scheme.decrypt_hint_product(keys, hint)
    assert got.dtype == np.uint64
    assert np.array_equal(got, per_chunk[:rows].astype(np.uint64))


def _key_digest(enc_key: EncryptedKey) -> str:
    return hashlib.sha256(enc_key.z_b.tobytes() + enc_key.z_a.tobytes()).hexdigest()


#: sha256 digests recorded from the per-component / per-chunk outer layer,
#: before it was batched: (encrypted key, hint product) per inner q.
FROZEN = {
    32: (
        "3c168615aeb4f2931dc2751fb5cc26dd6c4047cecfa1cc5acfb43f683aedfc51",
        "9da11249abfc5db9af157d928765928a37dac91c471dcbb01dde34dfa6e3dad7",
    ),
    64: (
        "3c168615aeb4f2931dc2751fb5cc26dd6c4047cecfa1cc5acfb43f683aedfc51",
        "ada3343f5df17501cf14eded8b35443191acda539edfe8a4078431c7b3f6cc88",
    ),
}


@pytest.mark.parametrize("q_bits", [32, 64])
def test_outer_layer_bytes_are_frozen(q_bits):
    """Same seed, same bits as the unbatched implementation: tokens and
    seeded replays (set_default_seed) do not change with batching."""
    scheme = small_scheme(q_bits)
    rng = seeded_rng(20231023)
    keys = scheme.gen_keys(rng)
    enc_key = scheme.encrypt_key(keys, rng)
    matrix = rng.integers(-3, 4, size=(70, 16))
    hint = scheme.evaluate_hint(enc_key, scheme.preprocess(matrix))
    product = scheme.decrypt_hint_product(keys, hint)
    assert product.dtype == np.uint64 and product.shape == (70,)
    assert _key_digest(enc_key) == FROZEN[q_bits][0]
    assert hashlib.sha256(product.tobytes()).hexdigest() == FROZEN[q_bits][1]


def test_shared_key_upload_bytes_are_frozen():
    """make_client_keys over two services of different inner dimension
    (two uploads, drawn in group order) keeps its recorded bytes."""
    schemes = {
        "rank": small_scheme(64, seed=b"R" * 32),
        "url": DoubleLheScheme(
            DoubleLheParams(
                inner=LweParams(n=16, q_bits=32, p=2**8, sigma=3.2, m=8),
                outer_n=32,
            ),
            a_seed=b"U" * 32,
        ),
    }
    _, enc_keys, upload = make_client_keys(schemes, seeded_rng(7))
    digest = hashlib.sha256()
    for name in sorted(enc_keys):
        digest.update(enc_keys[name].z_b.tobytes())
        digest.update(enc_keys[name].z_a.tobytes())
    assert upload == 61440
    assert digest.hexdigest() == (
        "1d8974d398f375413a19885323a7169e76d9283cbe2521152760f895ebc02274"
    )
