"""Exact integer linear algebra: sparse Smith normal form with
magnitude pivoting, integer kernels and solvers, finitely presented
abelian groups, and decision procedures for homomorphisms between them
(injectivity, surjectivity, isomorphism, split injectivity).

The transforms U, U^-1, V and V^-1 are stored sparse, each in the
orientation its updates touch (rows of U and V^-1, columns of U^-1 and
V), so a row or column operation costs the nonzeros of one row or
column of each transform.  Dense list-of-rows views exist for tests and
diagnostics only.

Everything runs over Python's arbitrary-precision integers; entries
grow under elimination and must not be truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import compress

from .errors import InternalCheckError, ValidationError


# -- dense matrix helpers ----------------------------------------------------


def mat_mul(A, B):
    m = len(A)
    k = len(B)
    n = len(B[0]) if k else 0
    if any(len(row) != k for row in A):
        raise ValidationError("matrix dimensions do not match")
    out = [[0] * n for _ in range(m)]
    for i in range(m):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(n):
                    if Bt[j]:
                        Oi[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


# -- sparse vectors (dicts index -> nonzero entry) ---------------------------


def _addmul(target, src, q):
    """target += q * src."""
    if not q:
        return
    for k, v in src.items():
        x = target.get(k, 0) + q * v
        if x:
            target[k] = x
        else:
            del target[k]


def _dense_vec(vec, n):
    out = [0] * n
    for i, v in vec.items():
        out[i] = v
    return out


def _dense_square(vecs, n, columns):
    """Dense list-of-rows form of n sparse rows, or of n sparse columns."""
    rows = [_dense_vec(v, n) for v in vecs]
    return [list(r) for r in zip(*rows)] if columns else rows


# -- sparse Smith normal form ------------------------------------------------


def _sparse(dense, m, n):
    """Row dicts and column index sets of the nonzeros of a dense m x n
    matrix, rows in ascending column order."""
    rows, cols = {}, {}
    positions = range(n)
    for i in range(m):
        row = dense[i]
        if len(row) != n:
            raise ValidationError(f"matrix row {i} has {len(row)} entries, not {n}")
        for j in compress(positions, row):
            rows.setdefault(i, {})[j] = row[j]
            cols.setdefault(j, set()).add(i)
    return rows, cols


@dataclass
class SNFResult:
    """U A V = D with U, V unimodular (tracked on demand).

    divisors: the nonzero diagonal of D in divisibility order d1 | d2 | ...
    pivots:   (row, col) positions of the diagonal in the original indexing.

    The transforms are stored sparse, as dicts index -> nonzero entry:
    ``u_rows[i]`` is row i of U, ``uinv_cols[i]`` column i of U^-1,
    ``v_cols[j]`` column j of V and ``vinv_rows[j]`` row j of V^-1; each
    is None when not tracked.  ``U``, ``Uinv``, ``V`` and ``Vinv`` are
    dense list-of-rows views, built on first access, for tests and
    diagnostics (None when not tracked).
    """

    m: int
    n: int
    divisors: list
    pivots: list
    u_rows: list = None
    uinv_cols: list = None
    v_cols: list = None
    vinv_rows: list = None

    @property
    def rank(self):
        return len(self.divisors)

    @cached_property
    def U(self):
        return None if self.u_rows is None else _dense_square(self.u_rows, self.m, columns=False)

    @cached_property
    def Uinv(self):
        return None if self.uinv_cols is None else _dense_square(self.uinv_cols, self.m, columns=True)

    @cached_property
    def V(self):
        return None if self.v_cols is None else _dense_square(self.v_cols, self.n, columns=True)

    @cached_property
    def Vinv(self):
        return None if self.vinv_rows is None else _dense_square(self.vinv_rows, self.n, columns=False)


def smith_normal_form(dense, m=None, n=None, track_u=False, track_v=False):
    """Smith normal form with partial pivoting on magnitude.

    Pivot rule: each round takes, over the active rows in ascending order
    and the entries of each row in insertion order, the first entry of
    least |v|, ties broken by least fill (len(row) - 1) * (len(col) - 1).
    An entry with key (1, 0) -- a unit in a row or column of length 1 --
    is least, so the first of them is the pivot whenever one exists.
    Elimination clears the pivot's row and column by Euclid steps, then
    folds in any remaining entry the pivot fails to divide, so the
    diagonal comes out in divisibility order.  The fold is skipped after
    a pivot of +-1, which divides everything.

    Invariant: active rows hold entries only in active columns, and a
    finished pivot row and column hold only their diagonal entry.  So the
    active block needs no column filter, and a row's active length is
    its length.

    Worklist: a min-heap holds every active row that has a (1, 0) entry,
    and possibly stale rows besides.  An entry turns (1, 0) only when its
    row or its column shrinks to one entry: a row operation writes only
    into columns its source row also meets, so never into a column of
    length 1, and a column operation writes only into the pivot row,
    where a unit remainder becomes the final pivot.  So a row is queued
    at the start if it, or a column it meets, holds a single unit; after
    ``row_addmul`` if the target row is left with one entry; and in
    ``drop`` when a column shrinks to one entry, a unit.  Popping the
    least queued row that still has a (1, 0) entry, and taking its first
    one in insertion order, gives the pivot the full scan takes.

    Fallback: with the heap empty there is no (1, 0) entry, so every
    unit entry lies in a column of length >= 2 and has fill >= len(row)
    - 1.  Once a unit of fill f is found, a row with len(row) - 1 >= f
    cannot beat it and is skipped unscanned.
    """
    if m is None:
        m = len(dense)
    if n is None:
        n = len(dense[0]) if dense else 0
    rows, cols = _sparse(dense, m, n)
    U = [{i: 1} for i in range(m)] if track_u else None  # rows
    Uinv = [{i: 1} for i in range(m)] if track_u else None  # columns
    V = [{j: 1} for j in range(n)] if track_v else None  # columns
    Vinv = [{j: 1} for j in range(n)] if track_v else None  # rows

    if not rows:
        return SNFResult(m, n, [], [], U, Uinv, V, Vinv)

    queue = []
    for i, row in rows.items():
        if len(row) == 1 and next(iter(row.values())) in (1, -1):
            queue.append(i)
    for j, col in cols.items():
        if len(col) == 1:
            i = next(iter(col))
            if rows[i][j] in (1, -1):
                queue.append(i)
    heapify(queue)

    def drop(i, j):
        """Remove (i, j) from the column index once the entry is zero."""
        col = cols[j]
        col.discard(i)
        if len(col) == 1:
            r = next(iter(col))
            if rows[r][j] in (1, -1):
                heappush(queue, r)
        elif not col:
            del cols[j]

    def row_addmul(k, i, q):
        """row_k += q * row_i, with U := E U and Uinv := Uinv E^{-1}."""
        if not q:
            return
        dst = rows[k]
        for j, v in rows[i].items():
            x = dst.get(j, 0) + q * v
            if x:
                if j not in dst:
                    cols.setdefault(j, set()).add(k)
                dst[j] = x
            elif j in dst:
                del dst[j]
                drop(k, j)
        if len(dst) == 1:
            heappush(queue, k)
        if track_u:
            _addmul(U[k], U[i], q)
            _addmul(Uinv[i], Uinv[k], -q)

    def negate_row(i):
        row = rows[i]
        for j in row:
            row[j] = -row[j]
        if track_u:
            U[i] = {j: -v for j, v in U[i].items()}
            Uinv[i] = {r: -v for r, v in Uinv[i].items()}

    active_rows = set(range(m))  # iterates in ascending order: small ints hash to themselves
    pivots = []
    divisors = []

    def eliminate(pi, pj):
        """Clear the pivot row and column; the pivot walks to wherever a
        smaller remainder appears, so |pivot| strictly decreases and the
        loop terminates.  Returns the final pivot position."""
        while True:
            piv = rows[pi][pj]
            for k in list(cols[pj]):
                if k != pi:
                    row_addmul(k, pi, -(rows[k][pj] // piv))
                    if pj in rows[k]:
                        pi = k
                        break
            else:
                # col_l -= q * col_pj for each l; col_pj is {pi: piv} by
                # now, so only row pi changes, to its remainder mod piv
                row = rows[pi]
                for l in list(row):
                    if l == pj:
                        continue
                    q = row[l] // piv
                    x = row[l] - q * piv
                    if track_v:
                        _addmul(V[l], V[pj], -q)
                        _addmul(Vinv[pj], Vinv[l], q)
                    if x:
                        row[l] = x
                        pj = l
                        break
                    del row[l]
                    drop(pi, l)
                else:
                    return pi, pj

    while True:
        pivot = None
        while queue:  # the least queued row with a (1, 0) entry: its first one
            i = heappop(queue)
            if i in active_rows:
                row = rows[i]
                short = len(row) == 1
                for j, v in row.items():
                    if (v == 1 or v == -1) and (short or len(cols[j]) == 1):
                        pivot = i, j
                        break
                if pivot:
                    break
        if pivot is None:  # no (1, 0) entry: the least (|v|, fill), pruned
            best = 0  # least |v| so far; 0 while no entry is found
            for i in active_rows:
                row = rows.get(i)
                if not row:
                    continue
                nr = len(row) - 1
                if best == 1 and nr >= best_fill:
                    continue
                for j, v in row.items():
                    a = v if v > 0 else -v
                    if best and a > best:
                        continue
                    fill = nr * (len(cols[j]) - 1)
                    if not best or a < best or fill < best_fill:
                        best, best_fill, pivot = a, fill, (i, j)
            if not best:
                break

        pi, pj = eliminate(*pivot)
        while rows[pi][pj] not in (1, -1):
            piv = rows[pi][pj]
            offender = next(
                (i for i in active_rows if i != pi and any(v % piv for v in rows.get(i, {}).values())),
                None,
            )
            if offender is None:
                break
            row_addmul(pi, offender, 1)
            pi, pj = eliminate(pi, pj)

        if rows[pi][pj] < 0:
            negate_row(pi)
        pivots.append((pi, pj))
        divisors.append(rows[pi][pj])
        active_rows.discard(pi)

    for a, b in zip(divisors, divisors[1:]):
        if b % a != 0:
            raise InternalCheckError("smith divisors out of divisibility order")
    return SNFResult(m, n, divisors, pivots, U, Uinv, V, Vinv)


def kernel_basis(dense, m=None, n=None):
    """Integer basis of {x | A x = 0}, as a list of length-n columns.

    The kernel lattice is spanned by the V-columns at non-pivot
    positions, hence saturated (a direct summand of Z^n).
    """
    if m is None:
        m = len(dense)
    if n is None:
        n = len(dense[0]) if dense else 0
    res = smith_normal_form(dense, m, n, track_v=True)
    pivot_cols = {pj for (_pi, pj) in res.pivots}
    return [_dense_vec(res.v_cols[j], n) for j in range(n) if j not in pivot_cols]


def solve_int(dense, b, m=None, n=None):
    """One integer solution of A x = b, or None.

    With U A V = D: y = D^-1 (U b) where it is integral and the non-pivot
    rows of U b vanish, and x = V y.
    """
    if m is None:
        m = len(dense)
    if n is None:
        n = len(dense[0]) if dense else 0
    b = list(b)
    if len(b) != m:
        raise ValidationError(f"right-hand side has {len(b)} entries for {m} rows")
    res = smith_normal_form(dense, m, n, track_u=True, track_v=True)
    pivot_of_row = {pi: (pj, d) for (pi, pj), d in zip(res.pivots, res.divisors)}
    x = [0] * n
    for i, row in enumerate(res.u_rows):
        ub = sum(u * b[k] for k, u in row.items())
        pivot = pivot_of_row.get(i)
        if pivot is None:
            if ub != 0:
                return None
            continue
        pj, d = pivot
        if ub % d != 0:
            return None
        y = ub // d
        if y:
            for r, v in res.v_cols[pj].items():
                x[r] += y * v
    return x


def lattice_contains(gens_cols, v):
    """Does v lie in the integer span of the given columns?"""
    if not gens_cols:
        return all(x == 0 for x in v)
    n = len(gens_cols[0])
    A = [[col[i] for col in gens_cols] for i in range(n)]
    return solve_int(A, list(v), n, len(gens_cols)) is not None


# -- finitely presented abelian groups --------------------------------------


@dataclass
class FPAbGroup:
    """Z^ngens modulo the column span of the relation matrix.

    Canonical data comes from U R V = D: in the generators y = U x the
    relations are diagonal, making reduction and equality immediate.
    """

    ngens: int
    relations: list  # list of columns, each of length ngens

    def __post_init__(self):
        for col in self.relations:
            if len(col) != self.ngens:
                raise ValidationError("relation column has wrong length")
        R = list(zip(*self.relations)) if self.relations else [[]] * self.ngens
        res = smith_normal_form(R, self.ngens, len(self.relations), track_u=True)
        order = {pi: idx for idx, (pi, _pj) in enumerate(res.pivots)}
        self._coord_divisor = [
            res.divisors[order[i]] if i in order else 0 for i in range(self.ngens)
        ]
        self._u_rows = res.u_rows
        self._uinv_cols = res.uinv_cols
        self.torsion = sorted(d for d in res.divisors if d > 1)
        self.rank = self.ngens - res.rank

    def reduce(self, v):
        """Canonical coordinates of an element (length ngens): torsion
        coordinates reduced mod their divisor, killed coordinates zeroed."""
        if len(v) != self.ngens:
            raise ValidationError("element has wrong length")
        out = []
        for row, d in zip(self._u_rows, self._coord_divisor):
            if d == 1:
                out.append(0)
                continue
            y = sum(u * v[k] for k, u in row.items())
            out.append(y % d if d > 1 else y)
        return tuple(out)

    def is_zero(self, v):
        return all(c == 0 for c in self.reduce(v))

    def equal(self, v, w):
        return self.reduce(v) == self.reduce(w)

    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    def order(self):
        if self.rank > 0:
            return None
        out = 1
        for d in self.torsion:
            out *= d
        return out

    def invariants(self):
        """(rank, torsion coefficients in divisibility order)."""
        return (self.rank, tuple(self.torsion))

    def canonical_generators(self):
        """Original-coordinate vectors projecting to canonical generators
        (the torsion and free coordinates, in coordinate order)."""
        gens = []
        for i in range(self.ngens):
            d = self._coord_divisor[i]
            if d == 0 or d > 1:
                gens.append(_dense_vec(self._uinv_cols[i], self.ngens))
        return gens

    def describe(self):
        parts = ["Z"] * self.rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def direct_sum(groups, extra_relations=()):
    """The direct sum of presented groups on the concatenated generators:
    each group's relations shifted to its block, then the extra relations
    (columns over all the generators)."""
    ngens = sum(g.ngens for g in groups)
    relations = []
    off = 0
    for g in groups:
        for col in g.relations:
            big = [0] * ngens
            big[off : off + g.ngens] = col
            relations.append(big)
        off += g.ngens
    relations.extend(extra_relations)
    return FPAbGroup(ngens, relations)


@dataclass
class AbHom:
    """A homomorphism between finitely presented abelian groups, given
    by a matrix on the original generators (dst.ngens x src.ngens)."""

    src: FPAbGroup
    dst: FPAbGroup
    matrix: list

    def __post_init__(self):
        if len(self.matrix) != self.dst.ngens or any(
            len(r) != self.src.ngens for r in self.matrix
        ):
            raise ValidationError("homomorphism matrix has wrong shape")
        for col in self.src.relations:
            if not self.dst.is_zero(mat_vec(self.matrix, col)):
                raise ValidationError("matrix does not descend to the quotients")
        self._snf = None

    def apply(self, v):
        v = list(v)
        if len(v) != self.src.ngens:
            raise ValidationError(f"element has {len(v)} entries for {self.src.ngens} generators")
        return mat_vec(self.matrix, v)

    def agrees_with(self, matrix):
        """Does ``matrix`` send every generator of src where this map
        does, modulo the relations of dst?  A shape mismatch is False."""
        if len(matrix) != self.dst.ngens or any(len(r) != self.src.ngens for r in matrix):
            return False
        return all(
            self.dst.equal([r[j] for r in self.matrix], [r[j] for r in matrix])
            for j in range(self.src.ngens)
        )

    def equals(self, other):
        """Equal as homomorphisms, compared column by column modulo dst."""
        return self.src.ngens == other.src.ngens and self.agrees_with(other.matrix)

    def compose(self, other):
        """self after other."""
        if other.dst.ngens != self.src.ngens:
            raise ValidationError("composition shape mismatch")
        return AbHom(other.src, self.dst, mat_mul(self.matrix, other.matrix))

    def _image_snf(self, track_v):
        """SNF of [M | R], the image columns beside dst's relations.  Its
        divisors decide surjectivity and splitting, so those read
        whichever form is cached; only ``is_injective`` needs V, and asks
        for it first where both are read (``mackey.assembly``)."""
        res = self._snf
        if res is None or (track_v and res.v_cols is None):
            R = self.dst.relations
            dense = [list(row) + [c[i] for c in R] for i, row in enumerate(self.matrix)]
            ncols = self.src.ngens + len(R)
            res = self._snf = smith_normal_form(dense, self.dst.ngens, ncols, track_v=track_v)
        return res

    def is_injective(self):
        """The kernel of [M | R], cut to its first src.ngens coordinates,
        is the preimage of dst's relation lattice; it must be zero in src."""
        res = self._image_snf(True)
        a = self.src.ngens
        pivot_cols = {pj for _pi, pj in res.pivots}
        return all(
            self.src.is_zero([res.v_cols[j].get(i, 0) for i in range(a)])
            for j in range(res.n)
            if j not in pivot_cols
        )

    def is_surjective(self):
        res = self._image_snf(False)
        return res.rank == self.dst.ngens and all(d == 1 for d in res.divisors)

    def is_isomorphism(self):
        """Equal invariants and surjective.  Finitely generated abelian
        groups are Hopfian (a surjective endomorphism is an isomorphism),
        so a surjection between isomorphic ones is injective."""
        return self.src.invariants() == self.dst.invariants() and self.is_surjective()

    def is_split_injective(self):
        """Is there a beta with beta . alpha = id on src?  Decided by
        Miyata's theorem ("Note on direct summands of modules", 1967):
        for finitely generated abelian groups, 0 -> A -> B -> C -> 0
        splits iff B is isomorphic to A + C.  So alpha splits iff it is
        injective and dst has the invariants of src + coker alpha.

        The invariants alone force injectivity.  Equal ranks leave a
        finite kernel K.  The map torsion(dst) -> coker has kernel
        torsion(image), of order |torsion(src)| / |K|, so |torsion(dst)|
        <= |torsion(src)| |torsion(coker)| / |K|, while equal invariants
        make the left side |torsion(src)| |torsion(coker)|: K = 0.  The
        sum's invariants come from a diagonal presentation of both
        torsion lists, so src's relations are not reduced again."""
        res = self._image_snf(False)
        coker_rank = self.dst.ngens - res.rank
        torsion = self.src.torsion + [d for d in res.divisors if d > 1]
        diagonal = [[d if i == c else 0 for i in range(len(torsion))] for c, d in enumerate(torsion)]
        sum_torsion = FPAbGroup(len(torsion), diagonal).torsion
        return self.dst.invariants() == (self.src.rank + coker_rank, tuple(sum_torsion))
