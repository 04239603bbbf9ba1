"""Tests for RNS ring arithmetic."""

import numpy as np
import pytest

from repro.rlwe.ntt import find_ntt_primes, negacyclic_convolve_reference
from repro.rlwe.poly import RnsContext


@pytest.fixture(scope="module")
def ring():
    return RnsContext(32, find_ntt_primes(32, 28, 2))


class TestRepresentation:
    def test_int_round_trip(self, ring):
        rng = np.random.default_rng(0)
        coeffs = [int(x) for x in rng.integers(0, ring.q, size=ring.n)]
        assert ring.to_ints(ring.from_ints(coeffs)) == coeffs

    def test_signed_round_trip(self, ring):
        coeffs = np.array([-3, -1, 0, 1, 5] + [0] * (ring.n - 5))
        centered = ring.to_centered_ints(ring.from_signed(coeffs))
        assert centered == list(coeffs)

    def test_distinct_primes_enforced(self):
        p = find_ntt_primes(32, 28, 1)[0]
        with pytest.raises(ValueError):
            RnsContext(32, (p, p))


class TestArithmetic:
    def test_add_sub_match_integers(self, ring):
        rng = np.random.default_rng(1)
        a = [int(x) for x in rng.integers(0, ring.q, size=ring.n)]
        b = [int(x) for x in rng.integers(0, ring.q, size=ring.n)]
        got = ring.to_ints(ring.add(ring.from_ints(a), ring.from_ints(b)))
        assert got == [(x + y) % ring.q for x, y in zip(a, b)]
        got = ring.to_ints(ring.sub(ring.from_ints(a), ring.from_ints(b)))
        assert got == [(x - y) % ring.q for x, y in zip(a, b)]

    def test_neg(self, ring):
        a = ring.from_ints([1] + [0] * (ring.n - 1))
        assert ring.to_ints(ring.neg(a))[0] == ring.q - 1

    def test_scalar_mul(self, ring):
        a = ring.from_ints([2] + [0] * (ring.n - 1))
        out = ring.to_ints(ring.scalar_mul(a, ring.q - 1))  # times -1
        assert out[0] == ring.q - 2

    def test_multiply_matches_reference_per_prime(self, ring):
        rng = np.random.default_rng(2)
        a = [int(x) for x in rng.integers(0, 1000, size=ring.n)]
        b = [int(x) for x in rng.integers(0, 1000, size=ring.n)]
        got = ring.multiply(ring.from_ints(a), ring.from_ints(b))
        for i, p in enumerate(ring.primes):
            want = negacyclic_convolve_reference(
                np.array(a, dtype=np.uint64) % np.uint64(p),
                np.array(b, dtype=np.uint64) % np.uint64(p),
                p,
            )
            assert np.array_equal(got[i], want)


class TestSampling:
    def test_uniform_covers_range(self, ring):
        rng = np.random.default_rng(3)
        poly = ring.sample_uniform(rng)
        assert poly.shape == (ring.k, ring.n)
        for i, p in enumerate(ring.primes):
            assert poly[i].max() < p

    def test_ternary_values(self, ring):
        rng = np.random.default_rng(4)
        vals = set(ring.to_centered_ints(ring.sample_ternary(rng)))
        assert vals <= {-1, 0, 1}

    def test_gaussian_is_small(self, ring):
        rng = np.random.default_rng(5)
        vals = ring.to_centered_ints(ring.sample_gaussian(rng, 3.2))
        assert max(abs(v) for v in vals) < 40


class TestScaling:
    """scale_up / scale_down are the BFV encode / decode roundings; both
    must equal the Python-int formulas exactly, for every t < 2^32."""

    @pytest.fixture(scope="class")
    def wide(self):
        return RnsContext(32, find_ntt_primes(32, 30, 3))

    @pytest.mark.parametrize("t", [2, 1 << 16, 65537, 4294967291])
    def test_scale_up_matches_python_ints(self, wide, t):
        rng = np.random.default_rng(t)
        m = np.concatenate([[0, 1, t - 1], rng.integers(0, t, size=61)])
        want = [[(int(v) * wide.q + t // 2) // t % p for v in m] for p in wide.primes]
        got = wide.scale_up(m.reshape(2, 32), t)
        assert got.shape == (2, wide.k, 32)
        assert np.array_equal(np.concatenate(list(got), axis=1), np.array(want))

    @pytest.mark.parametrize("t", [2, 1 << 16, 65537, 4294967291])
    def test_scale_down_matches_python_ints(self, wide, t):
        rng = np.random.default_rng(t + 1)
        q = wide.q
        xs = [int.from_bytes(rng.bytes(16), "little") % q for _ in range(32)]
        # The coefficients whose x*t/q lies closest to j + 1/2: a float
        # sum of the CRT fractions cannot tell which way they round.
        for j in rng.integers(0, t, size=16):
            edge = (2 * int(j) + 1) * q // (2 * t)
            xs += [edge, edge + 1]
        xs += [0, q - 1]
        want = [((x * t + q // 2) // q) % t for x in xs]
        assert wide.scale_down(wide.from_ints(xs), t).tolist() == want

    def test_out_of_range_plaintext_modulus_rejected(self, wide):
        with pytest.raises(ValueError):
            wide.scale_up(np.zeros(4), 1 << 32)
        with pytest.raises(ValueError):
            wide.scale_down(wide.zero(), 1)
