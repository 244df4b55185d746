"""Independent oracles for the test suite.

Deliberately separate implementation paths from the package: dense
first-nonzero-pivot Smith reduction (no sparsity, no pivot strategy),
the package's earlier sparse Smith normal form (every pivot and
transform of the fast one must equal it),
brute-force homology via full tuple enumeration, the chain layer by
whole-group orbit scans (no canonical tuples, no stabilizers), a second
construction of orbit-category colimits with its own verdict decisions,
subgroup lattices by testing every subset for closure, cosets, double
cosets and orbit-category hom-sets by scans over every group element,
equivariance pair by pair, the span layer's earlier predicates by
quadratic pair sets, fiber products and component G-sets by the
package's earlier hashed-tuple and per-element bodies, split
injectivity as one integer linear system for a retraction, the
preimage lattice of a homomorphism as an integer kernel, the dense
identity and equality helpers, the unit and equality of Burnside
spans, and associativity and the action law checked on every triple.
"""

import itertools
from types import SimpleNamespace


def naive_smith(A):
    """Textbook dense Smith reduction: returns (divisors, rank).

    Finds any nonzero entry, walks it to the pivot by Euclid row/column
    steps, folds in non-divisible entries, repeats.  No transforms.
    """
    A = [list(r) for r in A]
    m = len(A)
    n = len(A[0]) if m else 0
    divisors = []
    t = 0
    while True:
        pi = pj = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j]:
                    pi, pj = i, j
                    break
            if pi is not None:
                break
        if pi is None:
            break
        A[t], A[pi] = A[pi], A[t]
        for row in A:
            row[t], row[pj] = row[pj], row[t]
        while True:
            moved = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        moved = True
                        break
            if moved:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        moved = True
                        break
            if not moved:
                break
        # fold in entries the pivot does not divide
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(t, n):
                A[t][j] += A[offender][j]
            continue
        if A[t][t] < 0:
            for j in range(t, n):
                A[t][j] = -A[t][j]
        divisors.append(A[t][t])
        t += 1
    return divisors, len(divisors)


def naive_rank(A):
    return naive_smith(A)[1]


def naive_kernel(A):
    """Integer kernel basis from column reduction against a tracked
    identity block (dense)."""
    m = len(A)
    n = len(A[0]) if m else 0
    work = [list(r) for r in A]
    track = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def colop(j, k, q):
        for i in range(m):
            work[i][j] -= q * work[i][k]
        for i in range(n):
            track[i][j] -= q * track[i][k]

    def colswap(j, k):
        for i in range(m):
            work[i][j], work[i][k] = work[i][k], work[i][j]
        for i in range(n):
            track[i][j], track[i][k] = track[i][k], track[i][j]

    lead = 0
    for row in range(m):
        # find a column with minimal nonzero entry in this row at >= lead
        while True:
            cols = [j for j in range(lead, n) if work[row][j]]
            if not cols:
                break
            piv = min(cols, key=lambda j: abs(work[row][j]))
            colswap(lead, piv)
            done = True
            for j in range(lead + 1, n):
                if work[row][j]:
                    q = work[row][j] // work[row][lead]
                    colop(j, lead, q)
                    if work[row][j]:
                        done = False
            if done:
                lead += 1
                break
    basis = []
    for j in range(lead, n):
        if all(work[i][j] == 0 for i in range(m)):
            basis.append([track[i][j] for i in range(n)])
    # columns beyond lead are zero by construction; also scan the rest
    for j in range(lead):
        if all(work[i][j] == 0 for i in range(m)):
            basis.append([track[i][j] for i in range(n)])
    return basis


def naive_solve(A, b):
    """One integer solution of A x = b via the kernel of [A | -b]."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [list(r) + [-bv] for r, bv in zip(A, b)] if m else []
    if m == 0:
        return [0] * n
    ker = naive_kernel(aug)
    for k in ker:
        if k[n] == 1:
            return k[:n]
        if k[n] == -1:
            return [-v for v in k[:n]]
    # build a combination with last coordinate 1 via an extended gcd sweep
    cur = None
    curv = 0
    for k in ker:
        if k[n] == 0:
            continue
        if cur is None:
            cur, curv = list(k), k[n]
            continue
        a, b2 = curv, k[n]
        # extended gcd
        old_r, r = a, b2
        old_s, s = 1, 0
        old_t, t2 = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t2 = t2, old_t - q * t2
        cur = [old_s * x + old_t * y for x, y in zip(cur, k)]
        curv = old_r
    if cur is None or curv not in (1, -1):
        return None
    if curv == -1:
        cur = [-v for v in cur]
    return cur[:n]


def lattice_member(cols, v):
    if not cols:
        return all(x == 0 for x in v)
    n = len(cols[0])
    A = [[c[i] for c in cols] for i in range(n)]
    return naive_solve(A, list(v)) is not None


# -- brute-force homology ------------------------------------------------------


def brute_force_homology(X, maxdeg):
    """Homology invariants via full tuple enumeration: the invariant
    chain groups are spanned by orbit sums of all component-constrained
    tuples; torsion comes from the naive Smith form of the boundary,
    ranks from kernel minus image dimensions."""
    comps = X.components()
    act = X.carrier.action
    G = X.group

    def all_tuples(n):
        out = []
        for comp in comps:
            out.extend(itertools.product(comp, repeat=n + 1))
        return sorted(out)

    def orbit_reps(tuples):
        seen = set()
        reps = []
        for t in tuples:
            if t in seen:
                continue
            orb = {tuple(act[g][x] for x in t) for g in G.elements()}
            seen |= orb
            reps.append(min(orb))
        return sorted(reps)

    tuples = [all_tuples(n) for n in range(maxdeg + 2)]
    reps = [orbit_reps(ts) for ts in tuples]
    rep_index = [{t: i for i, t in enumerate(r)} for r in reps]

    def boundary(n):
        rows = len(reps[n - 1])
        cols = len(reps[n])
        M = [[0] * cols for _ in range(rows)]
        for j, rep in enumerate(reps[n]):
            orb = {tuple(act[g][x] for x in rep) for g in G.elements()}
            acc = {}
            for t in orb:
                for i in range(n + 1):
                    face = t[:i] + t[i + 1 :]
                    acc[face] = acc.get(face, 0) + (1 if i % 2 == 0 else -1)
            for face, v in acc.items():
                if v and face == min(
                    tuple(act[g][x] for x in face) for g in G.elements()
                ):
                    M[rep_index[n - 1][face]][j] += v
        return M

    out = []
    for n in range(maxdeg + 1):
        cn = len(reps[n])
        if n == 0:
            dim_ker = cn
        else:
            dim_ker = cn - naive_rank(boundary(n))
        dnp1 = boundary(n + 1)
        divisors, rank_im = naive_smith(dnp1)
        torsion = tuple(sorted(d for d in divisors if d > 1))
        out.append((dim_ker - rank_im, torsion))
    return tuple(out)


# -- the Smith normal form with the reference pivot rule -----------------------


def _oracle_addmul(target, src, q):
    """target += q * src."""
    if not q:
        return
    for k, v in src.items():
        x = target.get(k, 0) + q * v
        if x:
            target[k] = x
        else:
            del target[k]


class _OracleSparse:
    """Row-major sparse matrix with a column index."""

    def __init__(self, dense, m, n):
        self.m, self.n = m, n
        self.rows = {}
        self.cols = {}
        for i in range(m):
            for j in range(n):
                v = dense[i][j]
                if v:
                    self.rows.setdefault(i, {})[j] = v
                    self.cols.setdefault(j, set()).add(i)

    def get(self, i, j):
        return self.rows.get(i, {}).get(j, 0)

    def set(self, i, j, v):
        if v:
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)
        else:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
                col = self.cols[j]
                col.discard(i)
                if not col:
                    del self.cols[j]


def oracle_smith_normal_form(dense, m=None, n=None, track_u=False, track_v=False):
    """Smith normal form with partial pivoting on magnitude, as the
    package computed it before its pivot loop dropped dead filters and
    rescans; its pivots and transforms are the reference.  Returns the
    fields of ``snf.SNFResult`` without the dense views.

    Each round picks the nonzero entry of least absolute value (ties by
    least fill), clears its row and column by Euclid steps, then folds
    in any remaining entry the pivot fails to divide; the diagonal
    therefore comes out in divisibility order.
    """
    if m is None:
        m = len(dense)
    if n is None:
        n = len(dense[0]) if dense else 0
    A = _OracleSparse(dense, m, n)
    U = [{i: 1} for i in range(m)] if track_u else None  # rows
    Uinv = [{i: 1} for i in range(m)] if track_u else None  # columns
    V = [{j: 1} for j in range(n)] if track_v else None  # columns
    Vinv = [{j: 1} for j in range(n)] if track_v else None  # rows

    def row_oracle_addmul(k, i, q):
        """row_k += q * row_i, with U := E U and Uinv := Uinv E^{-1}."""
        for j, v in list(A.rows.get(i, {}).items()):
            A.set(k, j, A.get(k, j) + q * v)
        if track_u:
            _oracle_addmul(U[k], U[i], q)
            _oracle_addmul(Uinv[i], Uinv[k], -q)

    def col_oracle_addmul(l, j, q):
        """col_l += q * col_j, with V := V E and Vinv := E^{-1} Vinv."""
        for i in list(A.cols.get(j, set())):
            A.set(i, l, A.get(i, l) + q * A.rows[i][j])
        if track_v:
            _oracle_addmul(V[l], V[j], q)
            _oracle_addmul(Vinv[j], Vinv[l], -q)

    def negate_row(i):
        for j in list(A.rows.get(i, {})):
            A.rows[i][j] = -A.rows[i][j]
        if track_u:
            U[i] = {j: -v for j, v in U[i].items()}
            Uinv[i] = {r: -v for r, v in Uinv[i].items()}

    active_rows = set(range(m))
    active_cols = set(range(n))
    pivots = []
    divisors = []

    def eliminate(pi, pj):
        """Clear the pivot row and column; the pivot walks to wherever a
        smaller remainder appears, so |pivot| strictly decreases and the
        loop terminates.  Returns the final pivot position."""
        while True:
            moved = False
            for k in list(A.cols.get(pj, set())):
                if k == pi or k not in active_rows:
                    continue
                piv = A.get(pi, pj)
                q = A.get(k, pj) // piv
                row_oracle_addmul(k, pi, -q)
                if A.get(k, pj) != 0:
                    pi = k
                    moved = True
                    break
            if moved:
                continue
            for l in list(A.rows.get(pi, {})):
                if l == pj or l not in active_cols:
                    continue
                piv = A.get(pi, pj)
                q = A.get(pi, l) // piv
                col_oracle_addmul(l, pj, -q)
                if A.get(pi, l) != 0:
                    pj = l
                    moved = True
                    break
            if not moved:
                return pi, pj

    while True:
        best = None
        for i in active_rows:
            row = A.rows.get(i)
            if not row:
                continue
            nr = sum(1 for j in row if j in active_cols)
            for j, v in row.items():
                if j not in active_cols:
                    continue
                key = (abs(v), (nr - 1) * (len(A.cols[j]) - 1))
                if best is None or key < best[0]:
                    best = (key, i, j)
            if best and best[0] == (1, 0):
                break
        if best is None:
            break
        _, pi, pj = best

        pi, pj = eliminate(pi, pj)
        while True:
            piv = A.get(pi, pj)
            offender = None
            for i in active_rows:
                if i == pi:
                    continue
                row = A.rows.get(i)
                if not row:
                    continue
                for j, v in row.items():
                    if j in active_cols and v % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_oracle_addmul(pi, offender, 1)
            pi, pj = eliminate(pi, pj)

        if A.get(pi, pj) < 0:
            negate_row(pi)
        pivots.append((pi, pj))
        divisors.append(A.get(pi, pj))
        active_rows.discard(pi)
        active_cols.discard(pj)

    for a, b in zip(divisors, divisors[1:]):
        if b % a != 0:
            raise AssertionError("smith divisors out of divisibility order")
    return SimpleNamespace(
        m=m, n=n, divisors=divisors, pivots=pivots, u_rows=U, uinv_cols=Uinv, v_cols=V, vinv_rows=Vinv
    )


# -- the chain layer by whole orbits -------------------------------------------


def _orbit(X, t):
    act = X.carrier.action
    return {tuple(act[g][x] for x in t) for g in X.group.elements()}


def oracle_chain_basis(X, n):
    """The least tuple of the orbit of every component-constrained
    (n+1)-tuple, found by applying every group element, sorted."""
    return sorted(
        {min(_orbit(X, t)) for comp in X.components() for t in itertools.product(comp, repeat=n + 1)}
    )


def oracle_boundary_cols(X, basis, lower_basis):
    """Columns of d over the given orbit bases: every face of every point
    of each basis orbit, counted where it is a lower basis tuple."""
    lower = {t: i for i, t in enumerate(lower_basis)}
    cols = []
    for rep in basis:
        col = {}
        for t in _orbit(X, rep):
            for i in range(len(t)):
                idx = lower.get(t[:i] + t[i + 1 :])
                if idx is not None:
                    col[idx] = col.get(idx, 0) + (-1) ** i
        cols.append({i: v for i, v in col.items() if v})
    return cols


def oracle_pullback_cols(w, X, basis_W, basis_X):
    """w^*: every W-basis orbit goes into the column of the X-orbit of
    its image."""
    index = {t: i for i, t in enumerate(basis_X)}
    cols = [{} for _ in basis_X]
    for row, rep in enumerate(basis_W):
        j = index.get(min(_orbit(X, tuple(w[x] for x in rep))))
        if j is not None:
            cols[j][row] = 1
    return cols


def oracle_pushforward_cols(f, W, basis_W, basis_Y):
    """f_*: the image of every point of each W-basis orbit, counted where
    it is a Y-basis tuple."""
    index = {t: i for i, t in enumerate(basis_Y)}
    cols = []
    for rep in basis_W:
        col = {}
        for t in _orbit(W, rep):
            idx = index.get(tuple(f[x] for x in t))
            if idx is not None:
                col[idx] = col.get(idx, 0) + 1
        cols.append(col)
    return cols


# -- subgroup lattice ---------------------------------------------------------


def is_closed_subset(group, H):
    """H contains the identity and is closed under the table product:
    in a finite group, exactly the subgroups."""
    return group.identity in H and all(group.table[a][b] in H for a in H for b in H)


def oracle_subgroups(group):
    """Every subgroup of a group of order at most 12, by testing each
    subset that contains the identity for closure."""
    if group.order > 12:
        raise ValueError("subset enumeration is meant for |G| <= 12")
    e = group.identity
    rest = [x for x in group.elements() if x != e]
    return [
        H
        for r in range(len(rest) + 1)
        for extra in itertools.combinations(rest, r)
        if is_closed_subset(group, H := frozenset((e,) + extra))
    ]


# subgroups per order, from the textbook subgroup lattices
SUBGROUPS_PER_ORDER = {
    "S4": {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1},
    "A5": {1: 1, 2: 15, 3: 10, 4: 5, 5: 6, 6: 10, 10: 6, 12: 5, 60: 1},
}


def is_lattice(subs):
    """The sets ``subs`` are closed under intersection, and every two of
    them have a least upper bound among them (their join)."""
    members = set(subs)
    for i, H in enumerate(subs):
        for K in subs[i:]:
            if H & K not in members:
                return False
            bounds = [L for L in subs if H <= L and K <= L]
            least = min(bounds, key=len)
            if not all(least <= L for L in bounds):
                return False
    return True


# -- coset combinatorics, element by element ---------------------------------


def _oracle_cosets(group, H):
    """Left cosets xH by minimal element: (minimal elements, element -> index)."""
    reps, where = [], {}
    for x in group.elements():
        if x not in where:
            for h in H:
                where[group.mul(x, h)] = len(reps)
            reps.append(x)
    return reps, where


def oracle_coset_gset(group, H):
    """G/H through the validating ``GSet`` constructor."""
    from coarsehom.groups import GSet

    reps, where = _oracle_cosets(group, H)
    action = tuple(tuple(where[group.mul(g, x)] for x in reps) for g in group.elements())
    return GSet(group, len(reps), action)


def oracle_double_coset_representatives(group, K, H):
    """The package's earlier enumeration: scan G in order and keep each g
    whose double coset KgH, built as a set, is new."""
    seen, reps = set(), []
    for g in group.elements():
        coset = frozenset(group.mul(group.mul(k, g), h) for k in K for h in H)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)
    return reps


def oracle_orbit_category_homs(group, family):
    """The package's earlier hom-sets: (i, j) -> sorted images of
    xH -> xgK over every g in G with g^-1 H g <= K."""
    reps = family.class_representatives()
    cosets = [_oracle_cosets(group, H) for H in reps]
    homs = {}
    for i, H in enumerate(reps):
        for j, K in enumerate(reps):
            where = cosets[j][1]
            maps = {
                tuple(where[group.mul(x, g)] for x in cosets[i][0])
                for g in group.elements()
                if all(group.conj(group.inv(g), h) in K for h in H)
            }
            homs[(i, j)] = sorted(maps)
    return homs


# -- independent colimit / assembly oracle ------------------------------------


def oracle_assembly_verdicts(group, family):
    """Degree-0 assembly verdicts by a second path: the diagram of
    fiber-count multiplications over the family's orbit category, the
    coequalizer presentation of its colimit, and verdict decisions by
    the naive solvers above.  Returns (injective, split)."""
    from coarsehom.groups import (
        conjugacy_classes_of_subgroups,
        coset_gset,
    )

    reps = [
        cls[0] for cls in conjugacy_classes_of_subgroups(group) if cls[0] in family.members
    ]
    sizes = [group.order // len(H) for H in reps]
    nobj = len(reps)

    # morphisms G/H -> G/K: distinct coset maps, each multiplying H_0 by
    # |G/H| / |G/K| (fiber count); enumerated directly from the group
    relations = []
    for i, H in enumerate(reps):
        for j, K in enumerate(reps):
            maps = set()
            for g in group.elements():
                gi = group.inv(g)
                if all(group.mul(group.mul(gi, h), g) in K for h in H):
                    img = frozenset(group.mul(g, k) for k in K)
                    maps.add(img)
            for img in sorted(maps, key=min):
                if i == j and img == frozenset(K):
                    continue  # the identity arrow
                col = [0] * nobj
                col[i] += 1
                col[j] -= sizes[i] // sizes[j]
                relations.append(col)

    alpha = [sizes]  # one row: multiplication by |G/H| into Z

    # injectivity: ker(alpha) on Z^nobj must land in the relation lattice
    ker = naive_kernel(alpha)
    injective = all(lattice_member(relations, k) for k in ker)

    # split: find c in Z^nobj with, for every generator e_i,
    # alpha_i * c = e_i modulo relations: one linear system
    nrel = len(relations)
    rows = []
    rhs = []
    for i in range(nobj):
        for r in range(nobj):
            row = [0] * (nobj + nobj * nrel)
            row[r] = sizes[i]
            for l in range(nrel):
                row[nobj + i * nrel + l] = -relations[l][r]
            rows.append(row)
            rhs.append(1 if r == i else 0)
    split = injective and (naive_solve(rows, rhs) is not None)
    return injective, split


# -- weak-transfer projection -------------------------------------------------


def weak_transfer_projection_cols(X, j, cxX, cxW, n):
    """The excision projection p^ex_j: C_n(I_min,min ox X) -> C_n(X) built
    by hand: an orbit of tuples that lies in copy j (points j*|X| + x)
    goes to the orbit of its X-coordinates, every other orbit to 0."""
    cols = []
    index = cxX.degree(n).index
    for rep in cxW.degree(n).basis:
        if all(p // X.size == j for p in rep):
            cols.append({index[tuple(p % X.size for p in rep)]: 1})
        else:
            cols.append({})
    return cols


# -- equivariance, point by point ---------------------------------------------


def oracle_is_equivariant(f, src, dst):
    """The package's earlier body of ``groups.is_equivariant``: range
    checked image by image, then g.f(x) = f(g.x) compared pair by pair."""
    if len(f) != src.size or any(not (0 <= y < dst.size) for y in f):
        return False
    G = src.group
    return all(
        dst.action[g][f[x]] == f[src.action[g][x]]
        for g in G.elements()
        for x in range(src.size)
    )


# -- span-layer predicates by pair sets ----------------------------------------
# The package's earlier bodies of map_predicates, find_space_isomorphism
# and is_bounded_coarse_covering, verbatim apart from names, annotations
# and imports: they decide controlledness and the covering conditions
# with O(n^2) sets of pairs, and compute the invariants of every point
# from scratch.  The package's verdicts, diagnostics, error messages and
# bijections must equal theirs, except that the oracle covering check
# raises ValidationError("covering candidate is not controlled") where
# the package returns that diagnostic as a failed check.


def oracle_map_predicates(f, X, Y):
    """(controlled, proper, bornological) for a finite-carrier map."""
    from coarsehom.groups import require_equivariant

    require_equivariant(f, X.carrier, Y.carrier)
    controlled = all(
        Y.coarse.related(f[a], f[b])
        for a in range(X.size)
        for b in range(X.size)
        if X.coarse.related(a, b)
    )
    return controlled, True, True


def oracle_find_space_isomorphism(X, Y, allowed=None):
    """Search for an equivariant bijection X -> Y preserving the coarse
    structure; ``allowed(p, q)`` can veto images pointwise (used by span
    isomorphism to pin down leg compatibility).  Returns the bijection
    as a tuple, or None.

    Complete backtracking over orbit representatives with invariant
    pruning; carriers in intended use have at most 64 points.
    """
    if X.group != Y.group or X.size != Y.size:
        return None
    G = X.group

    comps_x = X.components()
    comps_y = Y.components()
    if sorted(map(len, comps_x)) != sorted(map(len, comps_y)):
        return None

    def invariant(space, x):
        comp = len(space.components()[space.coarse.block[x]])
        orb = len(space.carrier.orbit(x))
        stab = len(space.carrier.stabilizer(x))
        return (comp, orb, stab)

    inv_y = {}
    for y in range(Y.size):
        inv_y.setdefault(invariant(Y, y), []).append(y)

    orbits = X.carrier.orbits()
    phi = [None] * X.size
    used = [False] * Y.size

    def assign_orbit(k):
        if k == len(orbits):
            return check_full()
        orb = orbits[k]
        rep = orb[0]
        stab_rep = X.carrier.stabilizer(rep)
        for q in inv_y.get(invariant(X, rep), []):
            if used[q]:
                continue
            if allowed is not None and not allowed(rep, q):
                continue
            if not stab_rep <= Y.carrier.stabilizer(q):
                continue
            images = {}
            ok = True
            for g in G.elements():
                p2 = X.carrier.act(g, rep)
                q2 = Y.carrier.act(g, q)
                if p2 in images and images[p2] != q2:
                    ok = False
                    break
                images[p2] = q2
            if not ok or len(set(images.values())) != len(orb):
                continue
            if any(used[v] for v in images.values()):
                continue
            if allowed is not None and any(
                not allowed(p, v) for p, v in images.items()
            ):
                continue
            for p, v in images.items():
                phi[p] = v
                used[v] = True
            res = assign_orbit(k + 1)
            if res is not None:
                return res
            for p, v in images.items():
                phi[p] = None
                used[v] = False
        return None

    def check_full():
        for a in range(X.size):
            for b in range(X.size):
                if X.coarse.related(a, b) != Y.coarse.related(phi[a], phi[b]):
                    return None
        return tuple(phi)

    return assign_orbit(0)


def oracle_is_bounded_coarse_covering(w, W, Z):
    """Conditions: (1) the induced structure restricted along pi_0(W)
    equals the structure of W; (2) every coarse component of W maps
    isomorphically onto a coarse component of Z.  Returns (ok, diagnostic)."""
    from coarsehom.errors import ValidationError
    from coarsehom.groups import require_equivariant

    require_equivariant(w, W.carrier, Z.carrier, "covering candidate")
    controlled, _, _ = oracle_map_predicates(w, W, Z)
    if not controlled:
        raise ValidationError("covering candidate is not controlled")

    comps = W.components()
    induced = oracle_induced_structure(w, W.carrier, Z)
    # intersecting two equivalence relations yields one; no closure needed
    restricted = induced.closure_entourage() & oracle_partition_entourage(comps)
    if restricted != W.coarse.closure_entourage():
        missing = W.coarse.closure_entourage() - restricted
        extra = restricted - W.coarse.closure_entourage()
        witness = next(iter(missing or extra))
        return False, f"condition 1 fails: restricted induced structure differs at pair {witness}"

    for comp in comps:
        images = [w[x] for x in comp]
        if len(set(images)) != len(images):
            dup = next(a for a in comp for b in comp if a < b and w[a] == w[b])
            return False, f"condition 2 fails: component {comp} not injective (witness point {dup})"
        target_block = {Z.coarse.block[v] for v in images}
        if len(target_block) != 1:
            return False, f"condition 2 fails: component {comp} maps into several components"
        tb = target_block.pop()
        target = sorted(v for v in range(Z.size) if Z.coarse.block[v] == tb)
        if sorted(images) != target:
            return False, f"condition 2 fails: component {comp} does not cover its target component"
    return True, "bounded coarse covering"


# -- constructors by pair sets -------------------------------------------------
# The package's earlier bodies of the space constructors, the invariance
# check of BornCoarseSpace and randgen.random_controlled_map, verbatim
# apart from names, annotations and imports: they build O(n^2) sets of
# pairs and derive the partition from them by union-find.  The package
# builds block labels directly; the structures (and, for the random
# target, the map and the generator state) must be equal.


def oracle_is_invariant_structure(carrier, coarse):
    """Whether g.x ~ g.y iff x ~ y for every g and every pair x < y."""
    act = carrier.action
    blk = coarse.block
    for g in carrier.group.elements():
        for x in range(carrier.size):
            for y in range(x + 1, carrier.size):
                if (blk[x] == blk[y]) != (blk[act[g][x]] == blk[act[g][y]]):
                    return False
    return True


def oracle_partition_entourage(parts):
    out = set()
    for p in parts:
        out.update((a, b) for a in p for b in p)
    return frozenset(out)


def oracle_maximal_space(gset, name=""):
    from coarsehom.spaces import make_space

    if gset.size == 0:
        return make_space(gset, (), name=name)
    full = frozenset((a, b) for a in range(gset.size) for b in range(gset.size))
    return make_space(gset, (full,), name=name)


def oracle_restrict_by_partition(X, parts):
    """The structure generated by the intersections of structure entourages
    with the block entourage of an equivariant partition."""
    from coarsehom.errors import ValidationError
    from coarsehom.spaces import generate_structure, is_equivariant_partition

    if not is_equivariant_partition(parts, X.carrier):
        raise ValidationError("partition is not equivariant")
    upart = oracle_partition_entourage(parts)
    maxgen = X.coarse.closure_entourage() & upart
    return generate_structure((maxgen,), X.carrier)


def oracle_induced_structure(w, src_gset, target):
    """w^{-1} C: the maximal coarse structure on the source making w controlled."""
    from coarsehom.groups import require_equivariant
    from coarsehom.spaces import generate_structure

    require_equivariant(w, src_gset, target.carrier, "induced_structure map")
    pre = frozenset(
        (a, b)
        for a in range(src_gset.size)
        for b in range(src_gset.size)
        if target.coarse.related(w[a], w[b])
    )
    return generate_structure((pre,), src_gset)


def oracle_tensor(X, Y, name=""):
    """Product carrier; entourages generated by products of entourages.
    Point (x, y) has index x * Y.size + y."""
    from coarsehom.errors import ValidationError
    from coarsehom.groups import product_gset
    from coarsehom.spaces import make_space

    if X.group != Y.group:
        raise ValidationError("tensor: group mismatch")
    gset = product_gset(X.carrier, Y.carrier)
    if gset.size == 0:
        return make_space(gset, (), name=name)
    gen = frozenset(
        (a * Y.size + c, b * Y.size + d)
        for (a, b) in X.coarse.closure_entourage()
        for (c, d) in Y.coarse.closure_entourage()
    )
    return make_space(gset, (gen,), name=name or f"({X.name})x({Y.name})")


def oracle_coproduct(parts, name=""):
    """Disjoint union with blockwise structure; returns (space, offsets)."""
    from coarsehom.errors import ValidationError
    from coarsehom.groups import _trusted, disjoint_union_gsets
    from coarsehom.spaces import BornCoarseSpace, CoarseStructure, _partition_from_relation

    if not parts:
        raise ValidationError("coproduct of an empty list; pass the group's empty space")
    if any(p.group != parts[0].group for p in parts):
        raise ValidationError("coproduct: group mismatch")
    gset, offsets = disjoint_union_gsets([p.carrier for p in parts])
    pairs = set()
    for p, off in zip(parts, offsets):
        pairs.update((a + off, b + off) for (a, b) in p.coarse.closure_entourage())
    block = _partition_from_relation(gset.size, pairs)
    space = _trusted(BornCoarseSpace, gset, CoarseStructure(gset.size, block), name)
    return space, offsets


def oracle_random_controlled_map(rng, W, cfg):
    """A random controlled equivariant map out of W; the target carrier
    is grown from the orbit types of W, the target structure is generated
    by the image of the source structure plus invariant noise.
    Returns (f, Y)."""
    from coarsehom.groups import coset_gset, disjoint_union_gsets, trivial_gset
    from coarsehom.randgen import _invariant_pair_orbit, random_gset
    from coarsehom.spaces import make_space

    group = W.group
    target_parts = []
    for _ in range(rng.randrange(0, 2)):
        target_parts.append(random_gset(rng, group, max(1, cfg.max_points // 2)))
    images = {}
    for orb in W.carrier.orbits():
        rep = orb[0]
        stab = W.carrier.stabilizer(rep)
        candidates = []
        offset = 0
        for part in target_parts:
            for q in range(part.size):
                if stab <= part.stabilizer(q):
                    candidates.append(offset + q)
            offset += part.size
        if not candidates or rng.random() < 0.3:
            target_parts.append(coset_gset(group, stab))
            images[rep] = offset
        else:
            images[rep] = candidates[rng.randrange(len(candidates))]
    if len(target_parts) > 1:
        gs, _ = disjoint_union_gsets(target_parts)
    elif target_parts:
        gs = target_parts[0]
    else:
        gs = trivial_gset(group, 0)
    f = [None] * W.size
    for orb in W.carrier.orbits():
        rep = orb[0]
        for g in group.elements():
            f[W.carrier.act(g, rep)] = gs.action[g][images[rep]]
    f = tuple(f)
    pushed = set()
    for (a, b) in W.coarse.closure_entourage():
        pushed.add((f[a], f[b]))
        pushed.add((f[b], f[a]))
    gens = [frozenset(pushed)] if pushed else []
    if gs.size >= 2:
        for _ in range(rng.randrange(0, 2)):
            a, b = rng.randrange(gs.size), rng.randrange(gs.size)
            if a != b:
                gens.append(_invariant_pair_orbit(gs, a, b))
    Y = make_space(gs, gens, name="target")
    if Y.components() and max(len(c) for c in Y.components()) > 2 * cfg.max_component:
        Y = make_space(gs, gens[:1], name="target")
    return f, Y


def oracle_has_entourage(T, U):
    """The package's earlier ``TapeSpace.has_entourage``: membership of
    the fiber pairs in the fiber closure, built as a pair set."""
    R = T.fiber.coarse.closure_entourage()
    if T.coarse_preset == "discrete":
        band_ok = (U.radius == 0 and U.fiber_rel <= R) or not U.fiber_rel
        extra_ok = all(i == j and (x, y) in R for ((i, x), (j, y)) in U.extra)
    else:
        band_ok = (U.radius is not None and U.fiber_rel <= R) or not U.fiber_rel
        extra_ok = all((x, y) in R for ((i, x), (j, y)) in U.extra)
    return band_ok and extra_ok


# -- admissible squares, map by map ------------------------------------------


def oracle_is_admissible(sq):
    """The package's earlier body of ``spans.is_admissible``: equivariance
    checked up front and again inside ``map_predicates`` and the covering
    checks."""
    from coarsehom.errors import InternalCheckError
    from coarsehom.groups import require_equivariant
    from coarsehom.spaces import map_predicates
    from coarsehom.spans import _square_defect, is_bounded_covering

    W, U, V, Z = sq.W, sq.U, sq.V, sq.Z
    f, w, g, u = sq.f, sq.w, sq.g, sq.u
    require_equivariant(f, W.carrier, U.carrier, "square map f")
    require_equivariant(w, W.carrier, V.carrier, "square map w")
    require_equivariant(g, V.carrier, Z.carrier, "square map g")
    require_equivariant(u, U.carrier, Z.carrier, "square map u")

    cg, pg, bg = map_predicates(g, V, Z)
    if not (cg and pg and bg):
        return False, "g is not controlled+proper+bornological"
    cf, pf, bf = map_predicates(f, W, U)
    if not (cf and pf and bf):
        return False, "f is not controlled+proper+bornological"
    cw, _, _ = map_predicates(w, W, V)
    if not cw:
        return False, "w is not controlled"

    ok, diag = is_bounded_covering(u, U, Z)
    if not ok:
        return False, f"u is not a bounded covering: {diag}"

    defect = _square_defect(sq)
    if defect:
        return False, defect
    ok, diag = is_bounded_covering(w, W, V)
    if not ok:
        raise InternalCheckError(f"admissible square with non-covering left edge: {diag}")
    return True, "admissible"


# -- dense matrix helpers ------------------------------------------------------


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_eq(A, B):
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


# -- split injectivity by an explicit retraction -------------------------------


def preimage_lattice(hom):
    """Columns spanning {x | M x lies in the relation lattice of dst}:
    the kernel of [M | R], cut to its first src.ngens coordinates."""
    from coarsehom.snf import kernel_basis

    a, b = hom.src.ngens, hom.dst.ngens
    cols = [[hom.matrix[i][j] for i in range(b)] for j in range(a)]
    cols.extend(list(c) for c in hom.dst.relations)
    if b == 0:
        return [[1 if i == j else 0 for i in range(a)] for j in range(a)]
    A = [[cols[j][i] for j in range(len(cols))] for i in range(b)]
    return [k[:a] for k in kernel_basis(A, b, len(cols))]


def oracle_is_split_injective(hom):
    """The package's earlier decision: exists beta with beta . alpha = id
    on src, i.e. beta M = I + Rs Z and beta Rd = Rs Y for integer
    multiplier matrices Z, Y.  Solved as one integer linear system in the
    entries of beta, Z and Y (a*b + nrs*a + nrs*nrd unknowns)."""
    from coarsehom.snf import solve_int

    a, b = hom.src.ngens, hom.dst.ngens
    rs = hom.src.relations
    rd = hom.dst.relations
    nrs, nrd = len(rs), len(rd)
    nbeta = a * b
    nZ = nrs * a
    nY = nrs * nrd
    rows = []
    rhs = []
    # beta M - Rs Z = I over (i, j) in a x a; Z is nrs x a
    for i in range(a):
        for j in range(a):
            row = [0] * (nbeta + nZ + nY)
            for k in range(b):
                row[i * b + k] = hom.matrix[k][j]
            for l in range(nrs):
                row[nbeta + l * a + j] -= rs[l][i]
            rows.append(row)
            rhs.append(1 if i == j else 0)
    # beta Rd - Rs Y = 0 over (i, c) in a x nrd; Y is nrs x nrd
    for i in range(a):
        for c in range(nrd):
            row = [0] * (nbeta + nZ + nY)
            for k in range(b):
                row[i * b + k] = rd[c][k]
            for l in range(nrs):
                row[nbeta + nZ + l * nrd + c] -= rs[l][i]
            rows.append(row)
            rhs.append(0)
    if not rows:
        return True
    return solve_int(rows, rhs, len(rows), nbeta + nZ + nY) is not None


# -- G-set tables by hashed tuples and per-element rows ------------------------


def oracle_fiber_product_gset(A, a, B, b):
    """{(x, y) | a(x) = b(y)} in lexicographic order, each g.(x, y) found
    by hashing the tuple (g.x, g.y)."""
    from coarsehom.groups import GSet, _trusted

    pts = [(x, y) for x in range(A.size) for y in range(B.size) if a[x] == b[y]]
    index = {p: k for k, p in enumerate(pts)}
    action = tuple(
        tuple(index[(A.action[g][x], B.action[g][y])] for (x, y) in pts)
        for g in A.group.elements()
    )
    return _trusted(GSet, A.group, len(pts), action), pts


def oracle_components_gset(X):
    """pi_0(X) with the action row of each g read per component."""
    from coarsehom.groups import GSet, _trusted

    comps = X.components()
    label = X.coarse.block
    act = tuple(
        tuple(label[X.carrier.action[g][comp[0]]] for comp in comps)
        for g in X.group.elements()
    )
    return _trusted(GSet, X.group, len(comps), act), label


def composable_gfin_span_pairs(group):
    """Test inputs: the pairs (s1, s2) that ``compose_gfin_spans`` takes
    for res_K o tr_H (apex G/H x G/K, as in ``double_coset_check``) and
    for tr_H o res_H (apex G/H), over every pair of subgroup class
    representatives H, K."""
    from coarsehom.groups import subgroup_class_representatives
    from coarsehom.mackey import restriction_span, transfer_span

    reps = subgroup_class_representatives(group)
    pairs = [(restriction_span(group, K), transfer_span(group, H)) for H in reps for K in reps]
    pairs += [(transfer_span(group, H), restriction_span(group, H)) for H in reps]
    return pairs


def identity_gfin_span(S):
    """The identity morphism of S in the effective Burnside category."""
    from coarsehom.mackey import GFinSpan

    ident = tuple(range(S.size))
    return GFinSpan(S, S, S, ident, ident)


def gfin_spans_equal(s1, s2):
    """Equality of Burnside morphisms: an equivariant apex bijection
    commuting with both legs, found by the oracle isomorphism search on
    the minimal spaces of the apexes."""
    from coarsehom.spaces import minimal_space

    assert s1.src == s2.src and s1.dst == s2.dst, "span endpoints do not match"

    def allowed(p, q):
        return s1.left[p] == s2.left[q] and s1.right[p] == s2.right[q]

    iso = oracle_find_space_isomorphism(minimal_space(s1.apex), minimal_space(s2.apex), allowed)
    return iso is not None


def oracle_is_associative(table):
    """(ab)c = a(bc) on every triple of a multiplication table."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def oracle_is_action(group, size, action):
    """g.(h.x) = (gh).x for every pair of elements and every point, with
    rows of the right shape and the identity acting trivially."""
    if len(action) != group.order or any(
        len(row) != size or any(not (0 <= x < size) for x in row) for row in action
    ):
        return False
    if tuple(action[group.identity]) != tuple(range(size)):
        return False
    return all(
        action[g][action[h][x]] == action[group.mul(g, h)][x]
        for g in group.elements()
        for h in group.elements()
        for x in range(size)
    )
