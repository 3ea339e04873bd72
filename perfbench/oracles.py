"""Independent oracles for the benchmark's output checks.

Pure Python integers and floats only: nothing here imports ringcond or numpy,
so a defect in the program cannot also hide in the oracle.
"""
from __future__ import annotations

import math


def factor(n: int) -> list:
    """Prime factorization by trial division, ascending (prime, exponent)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def phi(n: int) -> int:
    out = 1
    for p, e in factor(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def rad(n: int) -> int:
    return math.prod(p for p, _ in factor(n))


def closed_power(n: int):
    """phi(n) sqrt(2 - 2/p) for n with at most one odd prime (two-powers take
    p = 2); None where the power-basis closed form does not apply."""
    odd = [p for p, _ in factor(n) if p != 2]
    if len(odd) > 1:
        return None
    p = odd[0] if odd else 2
    return phi(n) * math.sqrt(2 - 2 / p)


def closed_twisted(n: int) -> float:
    """phi(n) sqrt(2^omega prod (1 - 1/p)), the twisted-basis closed form."""
    f = factor(n)
    return phi(n) * math.sqrt(2 ** len(f) * math.prod(1 - 1 / p for p, _ in f))


def cyclotomic_height(n: int) -> int:
    """max |coefficient| of Phi_n, from the Moebius product
    prod_{d | rad} (1 - x^d)^{mu(rad/d)} truncated past the palindrome's
    middle (A(n) = A(rad n))."""
    primes = [p for p, _ in factor(n)]
    r = math.prod(primes)
    if r == 1:
        return 1
    terms = phi(r) // 2 + 1
    a = [0] * terms
    a[0] = 1
    for mask in range(1 << len(primes)):
        d = math.prod(p for i, p in enumerate(primes) if mask >> i & 1)
        if d >= terms:
            continue
        if (len(primes) - bin(mask).count("1")) % 2 == 0:    # times (1 - x^d)
            for i in range(terms - 1, d - 1, -1):
                a[i] -= a[i - d]
        else:                                                # over (1 - x^d)
            for i in range(d, terms):
                a[i] += a[i - d]
    return max(abs(v) for v in a)


def crt(residues, moduli) -> int:
    """The integer in [0, prod moduli) with the given residues."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        t = (r - x) * pow(m, -1, q) % q
        x += m * t
        m *= q
    return x
