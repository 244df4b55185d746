"""Integral group homology H_n(K; Z) from the literature, used as the
closed-form answer for the bar-homology workload.

Only values that can be cited are listed (K. S. Brown, *Cohomology of
Groups*, GTM 87: cyclic groups III.1; H_1 = K^ab; H_2 = the Schur
multiplier; H_3(S3) = H_3(A4) = Z/6; H_3(V4) = (Z/2)^3 by the Kuenneth
formula).  Each entry is a list of cyclic orders per degree, 0 meaning a
copy of Z.  A degree missing from a row is not known to this table and
must not be requested.
"""

from __future__ import annotations


def _cyclic(n):
    if n == 1:
        return [[0], [], [], []]
    return [[0], [n], [], [n]]


# keyed by isomorphism type name
GROUP_HOMOLOGY = {
    "1": _cyclic(1),
    "C2": _cyclic(2),
    "C3": _cyclic(3),
    "C4": _cyclic(4),
    "C5": _cyclic(5),
    "C6": _cyclic(6),
    "V4": [[0], [2, 2], [2], [2, 2, 2]],
    "S3": [[0], [2], [], [6]],
    "D4": [[0], [2, 2], [2]],
    "A4": [[0], [3], [2], [6]],
    "S4": [[0], [2], [2]],
}

# isomorphism type from (order, multiset of element orders); this
# separates every subgroup of the groups the benchmark uses
_TYPES = {
    (1, (1,)): "1",
    (2, (1, 2)): "C2",
    (3, (1, 3, 3)): "C3",
    (4, (1, 2, 4, 4)): "C4",
    (4, (1, 2, 2, 2)): "V4",
    (5, (1, 5, 5, 5, 5)): "C5",
    (6, (1, 2, 3, 3, 6, 6)): "C6",
    (6, (1, 2, 2, 2, 3, 3)): "S3",
    (8, (1, 2, 2, 2, 2, 2, 4, 4)): "D4",
    (12, (1, 2, 2, 2) + (3,) * 8): "A4",
    (24, (1,) + (2,) * 9 + (3,) * 8 + (4,) * 6): "S4",
}


def element_order(group, x):
    k, y = 1, x
    while y != group.identity:
        y = group.mul(y, x)
        k += 1
    return k


def iso_type(group, K):
    """Name of the isomorphism type of the subgroup K (a set of indices)."""
    key = (len(K), tuple(sorted(element_order(group, x) for x in K)))
    try:
        return _TYPES[key]
    except KeyError:
        raise ValueError(f"no textbook entry for a subgroup of order {len(K)}") from None


def invariant_factors(orders):
    """Torsion coefficients d1 | d2 | ... of a direct sum of cyclic
    groups Z/n (n > 1), as the program reports them."""
    by_prime = {}
    for n in orders:
        p = 2
        while n > 1:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                by_prime.setdefault(p, []).append(p**e)
            p += 1
    length = max((len(v) for v in by_prime.values()), default=0)
    out = [1] * length
    for powers in by_prime.values():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            out[i] *= q
    return tuple(sorted(out))


def expected_homology(slice_types, maxdeg):
    """Per degree (rank, torsion) of the sum over slices of H_*(K; Z),
    each slice given by the type name of its component stabilizer
    (Shapiro's lemma)."""
    degrees = []
    for n in range(maxdeg + 1):
        torsion = []
        rank = 0
        for t in slice_types:
            row = GROUP_HOMOLOGY[t]
            if n >= len(row):
                raise ValueError(f"H_{n}({t}; Z) is not in the textbook table")
            for c in row[n]:
                if c == 0:
                    rank += 1
                else:
                    torsion.append(c)
        degrees.append((rank, invariant_factors(torsion)))
    return tuple(degrees)
