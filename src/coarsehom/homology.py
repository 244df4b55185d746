"""Chain-level equivariant coarse ordinary homology with transfers.

Degree-n chains on a finite space are G-invariant integer functions on
(n+1)-tuples whose support is controlled and locally finite; on a
finite carrier controlled means component-constrained and local
finiteness is automatic, so the chain group is free on the G-orbits of
component-constrained tuples.  The differential is the alternating sum
of the face maps omitting one entry (entry i with sign (-1)^i).

Every orbit is named by its least tuple (``canonical_tuple``), and the
differential and the chain maps are read off canonical tuples and
stabilizer orders, never by walking an orbit (the induction isomorphism):
the orbit sum [t] has boundary sum_i (-1)^i |Stab(d_i t)|/|Stab(t)| [d_i t],
and an equivariant map f sends [t] to |Stab(f t)|/|Stab(t)| [f t].

A generalized morphism [W, w, f] acts by f_* o w^*, where w^* pulls
back along the covering and multiplies by the characteristic function
of component-constrained tuples, and f_* sums over fibers.  Homology
is exact over Z via Smith normal form, computed slice by slice over
G-orbits of coarse components (boundaries never mix slices).

A complex builds nothing up front: each degree's basis, the slice
tables, the boundaries and the homology data are built on first read
and memoized, so a caller pays only for the degrees it reads.  A
complex depends only on its carrier and block labels (space equality
ignores names and generators), so callers that read maps between the
same spaces share complexes through ``space_complex``, a small
module-level LRU cache.  No memo refers back to its complex, so a
complex is freed as soon as its last reference goes.
Every complex is the full complex of a space; excision reads the
complement of its coarsely closed member as a subspace.  Only
``homology``, which reads invariants and drops its complex, stays out
of the cache.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

from .errors import InternalCheckError, OutOfScopeError, ValidationError
from .snf import AbHom, FPAbGroup, smith_normal_form
from .spaces import BornCoarseSpace, components_gset
from .spans import Span


def _require_finite(X, what="this operation"):
    if not isinstance(X, BornCoarseSpace):
        raise OutOfScopeError(f"{what} supports finite carriers only")


def canonical_tuple(X: BornCoarseSpace, t):
    """The least tuple in the G-orbit of t, and |Stab(t)|.  The least
    tuple starts at m, the least point of the orbit of t[0], so only the
    g with g.t[0] = m are tried: a coset of Stab(t[0]), read from the
    carrier's transporter table (``GSet.transporters``), exactly |Stab(t)|
    of whose elements move t onto the least tuple."""
    rows = X.carrier.transporters[t[0]]
    if len(t) == 1:  # every transporter sends t onto (m,)
        return (rows[0][t[0]],), len(rows)
    if len(rows) == 1:  # t[0] is a free point: one transporter, Stab(t) = 1
        return itemgetter(*t)(rows[0]), 1
    images = list(map(itemgetter(*t), rows))
    least = min(images)
    return least, images.count(least)


def chain_basis(X: BornCoarseSpace, n):
    """The G-orbits of component-constrained (n+1)-tuples: a dict from
    each orbit's canonical tuple to its stabilizer order, in sorted
    order.  Each orbit meets the tuples (m, t1..tn) with m the least
    point of a carrier orbit and every ti in m's component."""
    _require_finite(X, "chain_basis")
    comps = X.components()
    transporters = X.carrier.transporters
    reps = {}
    for m in (orbit[0] for orbit in X.carrier.orbits()):
        tuples = ((m,) + rest for rest in itertools.product(comps[X.coarse.block[m]], repeat=n))
        if len(transporters[m]) == 1:  # Stab(m) = 1: each tuple is its own least form
            reps.update(dict.fromkeys(tuples, 1))
        else:
            reps.update(canonical_tuple(X, t) for t in tuples)
    return dict(sorted(reps.items()))


# -- sparse column helpers ---------------------------------------------------


def scols_mul(A_cols, B_cols):
    """Columns of A o B where each column maps row index -> value."""
    out = []
    for colB in B_cols:
        acc = {}
        for k, v in colB.items():
            for i, w in A_cols[k].items():
                acc[i] = acc.get(i, 0) + v * w
        out.append({i: v for i, v in acc.items() if v})
    return out


def scols_eq(A_cols, B_cols):
    if len(A_cols) != len(B_cols):
        return False
    for a, b in zip(A_cols, B_cols):
        if {k: v for k, v in a.items() if v} != {k: v for k, v in b.items() if v}:
            return False
    return True


def scols_apply(cols, vec, nrows):
    if len(vec) != len(cols):
        raise ValidationError(f"chain vector has {len(vec)} entries for a basis of {len(cols)}")
    out = [0] * nrows
    for j, col in enumerate(cols):
        v = vec[j]
        if v:
            for i, w in col.items():
                out[i] += v * w
    return out


# -- the complex -------------------------------------------------------------


class _Degree(NamedTuple):
    """One degree of a complex: the canonical tuples of the basis orbits
    in sorted order, their positions, and their stabilizer orders."""

    basis: list
    index: dict
    stabs: list


class SpaceComplex:
    """The invariant controlled chain complex of X in degrees
    0..maxdeg+1, built on first read: ``degree(n)`` enumerates degree n
    once, ``boundary_cols`` and ``homology_data`` read only the degrees
    they use, and the slice tables are built by the first
    ``homology_data`` call.  Every memo is a plain dict of values that
    hold no reference back to the complex."""

    def __init__(self, X: BornCoarseSpace, maxdeg):
        _require_finite(X, "chain complexes")
        if maxdeg < 0:
            raise ValidationError(f"chain complexes need a degree >= 0, got {maxdeg}")
        self.X = X
        self.N = maxdeg
        self._degrees = {}
        self._slices = {}
        self._point_slice = None
        self._boundaries = {}
        self._hom = {}

    def degree(self, n):
        """The basis, index and stabilizer orders of degree n, from one
        ``chain_basis`` call on first read."""
        deg = self._degrees.get(n)
        if deg is None:
            if not 0 <= n <= self.N + 1:
                raise ValidationError("chain degree out of range")
            basis = chain_basis(self.X, n)
            deg = _Degree(list(basis), {t: i for i, t in enumerate(basis)}, list(basis.values()))
            self._degrees[n] = deg
        return deg

    def _rows_by_slice(self, n):
        """Per slice, the ascending positions of the degree-n basis orbits
        in it.  A slice is a G-orbit of coarse components, read off a
        tuple's first entry."""
        rows = self._slices.get(n)
        if rows is None:
            if self._point_slice is None:
                comps, comp_of = components_gset(self.X)
                orbits = comps.orbits()
                slice_of_comp = {c: s for s, orbit in enumerate(orbits) for c in orbit}
                self._point_slice = ([slice_of_comp[c] for c in comp_of], len(orbits))
            point_slice, nslices = self._point_slice
            rows = [[] for _ in range(nslices)]
            for i, t in enumerate(self.degree(n).basis):
                rows[point_slice[t[0]]].append(i)
            self._slices[n] = rows
        return rows

    def boundary_cols(self, n):
        """Columns of d_n: C_n -> C_{n-1} in the orbit bases."""
        if n in self._boundaries:
            return self._boundaries[n]
        if n == 0 or n > self.N + 1:
            raise ValidationError("boundary degree out of range")
        cols = []
        _, lower, lower_stabs = self.degree(n - 1)
        upper = self.degree(n)
        transporters = self.X.carrier.transporters
        for rep, stab in zip(upper.basis, upper.stabs):
            if len(transporters[rep[0]]) == 1:
                # rep[0] is a free point, least in its orbit: every face
                # that keeps rep[0] is canonical
                faces = [canonical_tuple(self.X, rep[1:])[0]]
                faces += [rep[:i] + rep[i + 1 :] for i in range(1, n + 1)]
            else:
                faces = [canonical_tuple(self.X, rep[:i] + rep[i + 1 :])[0] for i in range(n + 1)]
            col = {}
            for i, face in enumerate(faces):
                idx = lower[face]
                col[idx] = col.get(idx, 0) + (-1) ** i * (lower_stabs[idx] // stab)
            cols.append({i: v for i, v in col.items() if v})
        self._boundaries[n] = cols
        return cols

    def check_dd_zero(self):
        for n in range(2, self.N + 2):
            prod = scols_mul(self.boundary_cols(n - 1), self.boundary_cols(n))
            if any(col for col in prod):
                return False
        return True

    def homology_data(self, n):
        """Kernel/quotient data per slice, assembled into one canonical
        global presentation; cached.

        Per slice: diagonalize d_n = U^-1 D V^-1; the kernel lattice is
        spanned by the V-columns at non-pivot positions (kept sparse), and
        the V^-1-coordinates of a chain are read off the columns of V^-1,
        so boundary images and cycle classes need no per-column solves.
        """
        if n in self._hom:
            return self._hom[n]
        if not (0 <= n <= self.N):
            raise ValidationError("homology degree out of range")
        slices = []
        rows_by_slice = self._rows_by_slice(n)
        upper_by_slice = self._rows_by_slice(n - 1) if n else None
        for s, (rows, cols_np1) in enumerate(zip(rows_by_slice, self._rows_by_slice(n + 1))):
            row_pos = {r: k for k, r in enumerate(rows)}
            m_local = len(rows)
            if m_local == 0:
                slices.append(_SliceHom(s, rows, [], None, None))
                continue

            if n == 0:
                kernel_cols = list(range(m_local))
                K = [{j: 1} for j in kernel_cols]
                vinv_cols = [{j: 1} for j in kernel_cols]
            else:
                upper_rows = upper_by_slice[s]
                upos = {r: k for k, r in enumerate(upper_rows)}
                dn = self.boundary_cols(n)
                dense = [[0] * m_local for _ in range(len(upper_rows))]
                for k, j in enumerate(rows):
                    for i, v in dn[j].items():
                        dense[upos[i]][k] = v
                res = smith_normal_form(dense, len(upper_rows), m_local, track_v=True)
                pivot_cols = {pj for (_pi, pj) in res.pivots}
                kernel_cols = [j for j in range(m_local) if j not in pivot_cols]
                K = [res.v_cols[j] for j in kernel_cols]
                vinv_cols = [{} for _ in range(m_local)]
                for r, vinv_row in enumerate(res.vinv_rows):
                    for k, v in vinv_row.items():
                        vinv_cols[k][r] = v
            kdim = len(kernel_cols)
            solver = _CycleCoords(vinv_cols, kernel_cols, row_pos)

            dnp1 = self.boundary_cols(n + 1)
            img_coords = []
            for j in cols_np1:
                x = solver.coords(dnp1[j])
                if x is None:
                    raise InternalCheckError("boundary image is not a cycle")
                img_coords.append(x)
            fp = FPAbGroup(kdim, img_coords)
            slices.append(_SliceHom(s, rows, K, solver, fp))

        # global canonical presentation: the kept coordinates (divisor
        # not 1) of every slice, in slice then coordinate order
        total = []
        for sl in slices:
            if sl.fp is None:
                continue
            sl.keep = [i for i in range(sl.fp.ngens) if sl.fp._coord_divisor[i] != 1]
            for i in sl.keep:
                total.append(sl.fp._coord_divisor[i])
        relations = []
        for gi, d in enumerate(total):
            if d > 1:
                col = [0] * len(total)
                col[gi] = d
                relations.append(col)
        group = FPAbGroup(len(total), relations)

        # canonical_generators enumerates kept coordinates in coordinate
        # order, matching the global order; push them down to chains
        cycles = []
        size = len(self.degree(n).basis)
        for sl in slices:
            if sl.fp is None:
                continue
            for local_vec in sl.fp.canonical_generators():
                chain = [0] * size
                loc = scols_apply(sl.K, local_vec, len(sl.rows))
                for k, r in enumerate(sl.rows):
                    chain[r] = loc[k]
                cycles.append(chain)
        data = _HomologyGroup(slices, group, cycles)
        self._hom[n] = data
        return data


class _CycleCoords:
    """Kernel coordinates of cycles in one slice.

    The V^-1-coordinates of a chain c are sum_k c_k (column k of V^-1);
    c is a cycle iff they vanish at every pivot position, and then the
    coordinates at the kernel positions are its coordinates in the
    kernel basis.
    """

    def __init__(self, vinv_cols, kernel_cols, row_pos):
        self.vinv_cols = vinv_cols
        self.kernel_pos = {j: k for k, j in enumerate(kernel_cols)}
        self.row_pos = row_pos

    def coords(self, col):
        """Kernel coordinates of a chain given as a sparse column over
        global row indices, or None if it is not a cycle of this slice."""
        acc = {}
        for i, c in col.items():
            if not c:
                continue
            k = self.row_pos.get(i)
            if k is None:
                return None  # support outside the slice
            for r, w in self.vinv_cols[k].items():
                acc[r] = acc.get(r, 0) + c * w
        out = [0] * len(self.kernel_pos)
        for r, v in acc.items():
            if v:
                k = self.kernel_pos.get(r)
                if k is None:
                    return None  # a nonzero pivot coordinate
                out[k] = v
        return out


class _SliceHom:
    def __init__(self, slice_id, rows, K, solver, fp):
        self.slice_id = slice_id
        self.rows = rows
        self.K = K
        self.solver = solver
        self.fp = fp
        self.keep = []


@dataclass
class _HomologyGroup:
    """Homology data of one degree.  It holds no reference back to its
    complex, which caches it: without that cycle a complex and its
    homology data are freed as soon as the last reference goes."""

    slices: list
    group: FPAbGroup
    gen_cycles: list  # one chain vector per canonical generator

    def class_of(self, chain):
        """Canonical coordinates of a cycle's homology class."""
        out = []
        for sl in self.slices:
            if sl.fp is None:
                continue
            x = sl.solver.coords({r: chain[r] for r in sl.rows})
            if x is None:
                raise ValidationError("chain is not a cycle")
            red = sl.fp.reduce(x)
            out.extend(red[i] for i in sl.keep)
        return tuple(out)

    def invariants(self):
        return self.group.invariants()


@dataclass(frozen=True)
class GradedAbGroup:
    """Per degree: free rank and torsion coefficients in divisibility order."""

    degrees: tuple  # tuple of (rank, torsion tuple)

    def describe(self):
        out = []
        for n, (rank, torsion) in enumerate(self.degrees):
            parts = ["Z"] * rank + [f"Z/{d}" for d in torsion]
            out.append(f"H_{n} = " + (" + ".join(parts) if parts else "0"))
        return "\n".join(out)


# Eight complexes cover the spaces one axiom check or one Mackey
# computation reads in turn (with four, mackey-assembly reuses only
# about a fifth of its requests).
@lru_cache(maxsize=8)
def space_complex(X: BornCoarseSpace, maxdeg):
    """The complex of X in degrees 0..maxdeg, shared by every caller that
    asks for an equal space and degree; callers only read it."""
    return SpaceComplex(X, maxdeg)


def homology(X: BornCoarseSpace, maxdeg=3):
    """Homology of the invariant controlled chain complex, degrees 0..maxdeg."""
    _require_finite(X, "homology")
    # not through space_complex: only the invariants are read, and a
    # small job that evicts a large cached complex pays more than it saves
    cx = SpaceComplex(X, maxdeg)
    return GradedAbGroup(tuple(cx.homology_data(n).invariants() for n in range(maxdeg + 1)))


# -- chain maps --------------------------------------------------------------


def pullback_chain_cols(w, W: BornCoarseSpace, X: BornCoarseSpace, cxW, cxX, n):
    """w^*: C_n(X) -> C_n(W) for a bounded covering w (columns over the
    X-basis).  The pullback is cut by the characteristic function of
    component-constrained tuples, identically 1 on basis orbits."""
    index = cxX.degree(n).index
    cols = [dict() for _ in index]
    for row, repW in enumerate(cxW.degree(n).basis):
        cols[index[canonical_tuple(X, tuple(w[x] for x in repW))[0]]][row] = 1
    return cols


def pushforward_chain_cols(f, W: BornCoarseSpace, Y: BornCoarseSpace, cxW, cxY, n):
    """f_*: C_n(W) -> C_n(Y) for a controlled proper map: fiber sums."""
    cols = []
    _, index, stabs = cxY.degree(n)
    degW = cxW.degree(n)
    for repW, stab in zip(degW.basis, degW.stabs):
        idx = index[canonical_tuple(Y, tuple(f[x] for x in repW))[0]]
        cols.append({idx: stabs[idx] // stab})
    return cols


def span_chain_cols(span: Span, cxX, cxW, cxY, n):
    """[W, w, f]_* = f_* o w^* in the orbit bases."""
    back = pullback_chain_cols(span.left, span.apex, span.src, cxW, cxX, n)
    push = pushforward_chain_cols(span.right, span.apex, span.dst, cxW, cxY, n)
    return scols_mul(push, back)


def chain_map_commutes(cols_by_deg, cx_src, cx_dst, upto):
    """d o T = T o d as exact sparse identities for degrees 1..upto."""
    for n in range(1, upto + 1):
        lhs = scols_mul(cx_dst.boundary_cols(n), cols_by_deg[n])
        rhs = scols_mul(cols_by_deg[n - 1], cx_src.boundary_cols(n))
        if not scols_eq(lhs, rhs):
            return False
    return True


def homology_map_from_chain_cols(cols, cx_src, cx_dst, n):
    """Descend the degree-n columns of a chain map to the homomorphism
    H_n(src) -> H_n(dst) it induces; one degree per call, so a caller
    builds and descends only the degrees it reads."""
    hX = cx_src.homology_data(n)
    hY = cx_dst.homology_data(n)
    matrix = [[0] * hX.group.ngens for _ in range(hY.group.ngens)]
    for gi, cycle in enumerate(hX.gen_cycles):
        img = scols_apply(cols, cycle, len(cx_dst.degree(n).basis))
        for i, c in enumerate(hY.class_of(img)):
            matrix[i][gi] = c
    return AbHom(hX.group, hY.group, matrix)


def induced_map(span: Span, maxdeg=3):
    """Per-degree homomorphisms on homology for a generalized morphism;
    validates that the chain map commutes with the differential."""
    for s in (span.src, span.apex, span.dst):
        _require_finite(s, "induced maps")
    cxX, cxW, cxY = (space_complex(s, maxdeg) for s in (span.src, span.apex, span.dst))
    cols = [span_chain_cols(span, cxX, cxW, cxY, n) for n in range(maxdeg + 2)]
    if not chain_map_commutes(cols, cxX, cxY, maxdeg + 1):
        raise InternalCheckError("induced chain map does not commute with the differential")
    return [homology_map_from_chain_cols(cols[n], cxX, cxY, n) for n in range(maxdeg + 1)]


def validate_chain_table(X: BornCoarseSpace, n, table):
    """Check a function table on (n+1)-tuples against the chain
    invariants (G-invariance, controlled support) and convert it to a
    vector over the orbit basis.  Local finiteness is automatic on
    finite carriers."""
    _require_finite(X, "chain tables")
    act = X.carrier.action
    for t, v in table.items():
        if len(t) != n + 1:
            raise ValidationError(f"tuple {t} has wrong length")
        if any(x not in range(X.size) for x in t):
            raise ValidationError(f"tuple {t} has a point outside the carrier")
        if v == 0:
            continue
        for g in X.group.elements():
            gt = tuple(act[g][x] for x in t)
            if table.get(gt, 0) != v:
                raise ValidationError(f"table is not G-invariant at {t}")
        if len({X.coarse.block[x] for x in t}) != 1:
            raise ValidationError(f"support tuple {t} is not controlled")
    return [table.get(t, 0) for t in chain_basis(X, n)]


def pushforward_chain(f, W: BornCoarseSpace, Y: BornCoarseSpace, vec, n):
    """f_* on a chain vector (orbit bases); f must be controlled and
    proper so that the fiber sums are finite."""
    from .spaces import map_predicates

    controlled, proper, _ = map_predicates(f, W, Y)
    if not (controlled and proper):
        raise ValidationError("pushforward requires a controlled proper map")
    cxW = SpaceComplex(W, n)
    cxY = SpaceComplex(Y, n)
    cols = pushforward_chain_cols(f, W, Y, cxW, cxY, n)
    return scols_apply(cols, vec, len(cxY.degree(n).basis))


def transfer_chain(w, W: BornCoarseSpace, X: BornCoarseSpace, vec, n):
    """w^* on a chain vector for a validated bounded covering w."""
    from .spans import is_bounded_covering

    ok, diag = is_bounded_covering(w, W, X)
    if not ok:
        raise ValidationError(f"transfer requires a bounded covering: {diag}")
    cxW = SpaceComplex(W, n)
    cxX = SpaceComplex(X, n)
    cols = pullback_chain_cols(w, W, X, cxW, cxX, n)
    return scols_apply(cols, vec, len(cxW.degree(n).basis))


def hom_is_identity(h: AbHom):
    return hom_is_multiplication_by(h, 1)


def hom_is_multiplication_by(h: AbHom, k):
    """Is h multiplication by k?  Compared column by column modulo the
    relations of h.dst; a shape mismatch is False."""
    n = h.src.ngens
    return n == h.dst.ngens and h.agrees_with([[k if i == j else 0 for j in range(n)] for i in range(n)])
