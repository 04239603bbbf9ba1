"""The ring Z_q[x] / (x^n + 1) in residue-number-system form.

The outer scheme's ciphertext modulus q is a product of NTT-friendly
primes; ring elements are stored as a stack of per-prime residue
polynomials (shape ``(k, n)`` for k primes).  Because the CRT map is a
ring isomorphism, all arithmetic -- including uniform sampling -- is
done independently per prime.  Every method also accepts a stack of
ring elements shaped ``(..., k, n)`` and then costs one NumPy pass per
prime for the whole stack, not one per element.
"""

from __future__ import annotations

import math

import numpy as np

from repro.lwe import sampling
from repro.rlwe.ntt import ntt_context

#: Distance from a rounding edge below which :meth:`RnsContext.scale_down`
#: recomputes the carry exactly; float64 sums of k < 8 fractions in
#: [0, 1) are off by far less.
_EDGE = 1e-9


def _check_plain_modulus(t: int) -> None:
    if not 2 <= t < 1 << 32:
        raise ValueError(f"plaintext modulus {t} must lie in [2, 2^32)")


class RnsContext:
    """Arithmetic for Z_q[x]/(x^n + 1) with q a product of NTT primes."""

    def __init__(self, n: int, primes: tuple[int, ...]):
        if len(set(primes)) != len(primes):
            raise ValueError("RNS primes must be distinct")
        self.n = n
        self.primes = tuple(int(p) for p in primes)
        self.q = math.prod(self.primes)
        # Shared per-(n, p) contexts: twiddle tables are built once per
        # process, not once per scheme instance (see rlwe.ntt).
        self.ntts = [ntt_context(n, p) for p in self.primes]
        self._primes_arr = np.array(self.primes, dtype=np.uint64).reshape(-1, 1)
        # CRT reconstruction constants: x = sum_i (r_i * y_i mod p_i) * qhat_i.
        self._qhat = [self.q // p for p in self.primes]
        self._qhat_inv = [
            pow(self.q // p, p - 2, p) for p in self.primes
        ]

    @property
    def k(self) -> int:
        """Number of RNS channels."""
        return len(self.primes)

    # -- representation ---------------------------------------------------

    def from_signed(self, coeffs: np.ndarray) -> np.ndarray:
        """Lift small signed coefficients ``(..., n)`` into RNS ``(..., k, n)``."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        residues = coeffs[..., None, :] % self._primes_arr.astype(np.int64)
        return residues.astype(np.uint64)

    def from_ints(self, coeffs: list[int] | np.ndarray) -> np.ndarray:
        """Lift arbitrary-precision integer coefficients into RNS form."""
        out = np.empty((self.k, len(coeffs)), dtype=np.uint64)
        for i, p in enumerate(self.primes):
            out[i] = np.array([int(c) % p for c in coeffs], dtype=np.uint64)
        return out

    def to_ints(self, rns: np.ndarray) -> list[int]:
        """CRT-reconstruct coefficients as Python ints in [0, q)."""
        n = rns.shape[-1]
        acc = [0] * n
        for i, p in enumerate(self.primes):
            scaled = [
                (int(r) * self._qhat_inv[i]) % p for r in rns[i]
            ]
            qhat = self._qhat[i]
            for j in range(n):
                acc[j] += scaled[j] * qhat
        return [a % self.q for a in acc]

    def to_centered_ints(self, rns: np.ndarray) -> list[int]:
        """CRT-reconstruct coefficients centered in [-q/2, q/2)."""
        half = self.q // 2
        return [x - self.q if x >= half else x for x in self.to_ints(rns)]

    # -- scaling between Z_t and Z_q (BFV encode / decode) ----------------

    def scale_up(self, values: np.ndarray, t: int) -> np.ndarray:
        """RNS residues of ``round(m * q / t)`` for each ``m`` in ``[0, t)``.

        ``values`` is ``(..., L)``; the result is ``(..., k, L)``.  With
        ``q = Q*t + R`` the rounded quotient splits exactly into
        ``m*Q + (m*R + t//2) // t``, and every partial product stays in
        uint64 because ``m, R < t < 2^32`` and residues are below 2^31.
        """
        _check_plain_modulus(t)
        m = np.asarray(values, dtype=np.uint64)
        big_q, rem = divmod(self.q, t)
        low = (m * np.uint64(rem) + np.uint64(t // 2)) // np.uint64(t)
        q_res = np.array(
            [big_q % p for p in self.primes], dtype=np.uint64
        ).reshape(-1, 1)
        m = m[..., None, :]
        return (m * q_res % self._primes_arr + low[..., None, :]) % self._primes_arr

    def scale_down(self, rns: np.ndarray, t: int) -> np.ndarray:
        """``round(x * t / q) mod t`` for ``x`` the CRT value of each coefficient.

        ``rns`` is ``(..., k, n)``; the result is ``(..., n)`` int64 and
        equals ``((x*t + q//2) // q) % t`` on Python ints exactly.  With
        ``y_i = r_i * (q/p_i)^-1 mod p_i`` the value ``x*t/q`` is
        ``sum_i y_i*t/p_i`` minus a multiple of t, so it splits into the
        integer parts ``u_i = y_i*t // p_i`` and the fractions
        ``w_i / p_i``.  Only the rounding carry of the fractions needs
        more than uint64; it is read off a float64 sum and recomputed
        on Python ints where that sum lies too near a rounding edge.
        """
        _check_plain_modulus(t)
        qhat_inv = np.array(self._qhat_inv, dtype=np.uint64).reshape(-1, 1)
        y = rns * qhat_inv % self._primes_arr
        u, w = np.divmod(y * np.uint64(t), self._primes_arr)
        frac = (w / self._primes_arr.astype(np.float64)).sum(axis=-2) + 0.5
        carry = np.floor(frac).astype(np.int64)
        # q is odd, so the exact value is never a half-integer; only a
        # float sum within its rounding error of one can round wrongly.
        near = np.abs(frac - np.rint(frac)) < _EDGE
        if near.any():
            q = self.q
            carry[near] = [
                (2 * sum(int(wi) * qh for wi, qh in zip(col, self._qhat)) + q)
                // (2 * q)
                for col in np.moveaxis(w, -2, -1)[near]
            ]
        return (u.sum(axis=-2).astype(np.int64) + carry) % t

    # -- arithmetic (elementwise per prime; valid in NTT or coeff domain) --

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self._primes_arr

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + self._primes_arr - b) % self._primes_arr

    def neg(self, a: np.ndarray) -> np.ndarray:
        return (self._primes_arr - a) % self._primes_arr

    def mul_pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Pointwise product (= ring product when both are in NTT form)."""
        return a * b % self._primes_arr

    def scalar_mul(self, a: np.ndarray, c: int) -> np.ndarray:
        residues = np.array(
            [c % p for p in self.primes], dtype=np.uint64
        ).reshape(-1, 1)
        return a * residues % self._primes_arr

    # -- transforms --------------------------------------------------------

    def to_ntt(self, rns: np.ndarray) -> np.ndarray:
        """Forward NTT of ``(..., k, n)``: one transform call per prime."""
        return np.stack(
            [self.ntts[i].forward(rns[..., i, :]) for i in range(self.k)],
            axis=-2,
        )

    def from_ntt(self, rns: np.ndarray) -> np.ndarray:
        """Inverse NTT of ``(..., k, n)``: one transform call per prime."""
        return np.stack(
            [self.ntts[i].inverse(rns[..., i, :]) for i in range(self.k)],
            axis=-2,
        )

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Full ring product of two coefficient-domain elements."""
        return self.from_ntt(self.mul_pointwise(self.to_ntt(a), self.to_ntt(b)))

    # -- sampling -----------------------------------------------------------

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform ring element (independent uniform residues, by CRT)."""
        out = np.empty((self.k, self.n), dtype=np.uint64)
        for i, p in enumerate(self.primes):
            out[i] = rng.integers(0, p, size=self.n, dtype=np.uint64)
        return out

    def sample_gaussian(
        self, rng: np.random.Generator, sigma: float
    ) -> np.ndarray:
        """A rounded-Gaussian error element, lifted into RNS."""
        return self.from_signed(sampling.rounded_gaussian(rng, sigma, self.n))

    def sample_ternary(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly ternary ring element, lifted into RNS."""
        raw = rng.integers(-1, 2, size=self.n, dtype=np.int64)
        return self.from_signed(raw)

    def zero(self) -> np.ndarray:
        return np.zeros((self.k, self.n), dtype=np.uint64)
