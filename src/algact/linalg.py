"""Exact linear algebra over a Field.

Vectors are lists of scalars, matrices are lists of rows.  Everything here
is deterministic: reduced row echelon form is unique for a given row space,
so every subspace in the package has one canonical basis and subspace
equality is literal equality of bases.

The dense helpers compute with Python's own ``+ - *`` and make each result
canonical once, through :func:`canonical`: reduced mod p over GF(p), as it
is over Q.  Scalars in canonical form are equal exactly when they are equal
as Python values and zero exactly when falsy, so callers compare vectors
with ``==`` and test them for zero with ``any``.

One elimination, :func:`_echelon`, runs under every nullspace and span:
:func:`rref` takes and returns dense rows, and :func:`nullspace_basis`
takes the sparse equations {column: scalar} of the laws as they are and
makes no dense row.  The kernel reads its rows lazily, each eliminated
before the next is read, and a nullspace can be extended by more rows
without eliminating the first ones again.  Over GF(p) a row is one int
whose :class:`Slots` hold its residues, reduced mod p once per row.  Rows,
operands and right-hand sides of the wrong length, and equation columns
outside ``range(n)``, are refused with :class:`DimensionMismatch`.

Over Q, :func:`lifted_nullspace` eliminates integer rows mod the one prime
q = 2^31 - 1 on the packed kernel and lifts each entry of the nullspace by
rational reconstruction (:func:`reconstruct`): the fraction a/b with
|a|, b <= isqrt(q // 2) congruent to it, which is unique when it exists.
The lift is a candidate, not a result.  It keeps every zero and every unit
entry, so its vectors are in RREF at the free columns mod q, and there are
n - rank_q >= n - rank_Q of them.  So once a caller has checked that they
lie in the nullspace over Q, they are its canonical basis: vectors of the
space in RREF, at least as many as its dimension.  :mod:`algact.opspace`
checks that with the self-check that every build runs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, lcm

from .errors import DimensionMismatch
from .fields import GF, Field


def vec_zero(field: Field, n: int) -> list:
    return [field.zero] * n


def canonical(field: Field, v) -> list:
    """A dense vector of sums and products of canonical scalars, made
    canonical: reduced mod p over GF(p), as it is over Q, where Fraction
    arithmetic keeps lowest terms."""
    p = field.char
    return [x % p for x in v] if p else v


def vec_add(field: Field, u, v) -> list:
    check_shape(v, len(u), what="the second vector")
    return canonical(field, [a + b for a, b in zip(u, v)])


def vec_sub(field: Field, u, v) -> list:
    check_shape(v, len(u), what="the second vector")
    return canonical(field, [a - b for a, b in zip(u, v)])


def vec_neg(field: Field, v) -> list:
    return canonical(field, [-a for a in v])


def unit_vector(field: Field, n: int, i: int) -> list:
    v = vec_zero(field, n)
    v[i] = field.one
    return v


def mat_zero(field: Field, rows: int, cols: int) -> list:
    return [vec_zero(field, cols) for _ in range(rows)]


def mat_identity(field: Field, n: int) -> list:
    return [unit_vector(field, n, i) for i in range(n)]


def mat_add(field: Field, A, B) -> list:
    check_shape(B, len(A), what="the second matrix")
    return [vec_add(field, ra, rb) for ra, rb in zip(A, B)]


def mat_sub(field: Field, A, B) -> list:
    check_shape(B, len(A), what="the second matrix")
    return [vec_sub(field, ra, rb) for ra, rb in zip(A, B)]


def mat_neg(field: Field, A) -> list:
    return [vec_neg(field, r) for r in A]


def check_shape(A, *shape, error=DimensionMismatch, what: str = "matrix") -> None:
    """Raise ``error`` unless A is a nested list of ``shape``: ``shape[0]``
    entries, each of them ``shape[1]`` entries long, and so on, checked on
    every row and not only on the first."""
    level = [A]
    for depth, n in enumerate(shape):
        if depth:
            level = [x for parent in level for x in parent]
        if any(len(x) != n for x in level):
            raise error(f"{what} must have shape {shape}")


def mat_vec(field: Field, A, v) -> list:
    check_shape(A, len(A), len(v))
    nonzero = [(j, x) for j, x in enumerate(v) if x]  # scalars are canonical
    out = []
    for row in A:
        acc = field.zero
        for j, x in nonzero:
            if a := row[j]:
                acc += a * x
        out.append(acc)
    return canonical(field, out)


def mat_mul(field: Field, A, B) -> list:
    cols = len(B[0]) if B else 0
    check_shape(A, len(A), len(B))
    check_shape(B, len(B), cols)
    out = mat_zero(field, len(A), cols)
    for row, orow in zip(A, out):
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        orow[j] += a * b
    return [canonical(field, orow) for orow in out]


def mat_col(A, j) -> list:
    return [row[j] for row in A]


def mat_sparse(A) -> dict:
    """The nonzero entries of a dense matrix as {row: {col: c}}."""
    return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(A) if any(row)}


def mat_from_cols(cols: list, rows: int) -> list:
    return [[col[i] for col in cols] for i in range(rows)]


def mat_unflatten(flat, rows: int, cols: int) -> list:
    return [list(flat[i * cols : (i + 1) * cols]) for i in range(rows)]


def mat_rank(field: Field, A) -> int:
    return len(rref(field, A)[0])


def rref(field: Field, rows) -> tuple[list, list]:
    """Reduced row echelon form of dense rows of one length; returns
    (nonzero rows, pivot columns).  The RREF of a row space is unique, which
    is what makes every basis in this package canonical."""
    ncols = len(rows[0]) if rows else 0
    check_shape(rows, len(rows), ncols, what="the rows")
    echelon = _echelon(field.char, map(enumerate, rows), ncols)
    pivots, free = sorted(echelon), [c for c in range(ncols) if c not in echelon]
    out = [unit_vector(field, ncols, pc) for pc in pivots]
    for row, pc in zip(out, pivots):
        for c, x in _free_entries(field, ncols, echelon[pc], pc, free):
            row[c] = x
    return out, pivots


def _echelon(p: int, rows, ncols: int, lead_at=min, echelon=None) -> dict:
    """{pivot column: its reduced row} of ``rows``, each an iterable of
    pairs (column, scalar), by incremental Gauss-Jordan elimination, the
    rows read lazily and no further than full rank.  Given the ``echelon``
    of earlier rows (same p and ncols), it goes on from there, in place.

    Every stored row stays reduced: it holds no pivot column but its own.
    Each new row is cleared at the pivot columns in its support, once each,
    so a redundant row costs one elimination per pivot column it touches.
    A row that survives leads at its smallest column (its largest for
    ``lead_at=max``, the columns in reverse order) and clears that column
    from the stored rows.  Over Q the rows are :func:`_int_entries`,
    positive at their pivot.  Over GF(p) a row is one int, its residues in
    the slots of :func:`_packing`, and stored rows are monic.  A row is
    packed in one pass, gaining (p - v) times the row of each pivot c where
    it holds v, and reduced once: the stored rows hold no other pivot, so
    no slot passes p + ncols (p - 1)^2 before.
    """
    echelon = {} if echelon is None else echelon
    if not p:
        for r in map(_int_entries, rows):
            for c in [c for c in r if c in echelon]:
                _eliminate(r, echelon[c], c)
            if r:
                c = lead_at(r)
                lead = echelon[c] = r if r[c] > 0 else {k: -v for k, v in r.items()}
                for other in echelon.values():
                    if c in other and other is not lead:
                        _eliminate(other, lead, c)
                if len(echelon) == ncols:
                    break  # full rank: every further row reduces to zero
        return echelon
    slots = _packing(p, ncols)
    w, mask, mod = slots.width, slots.mask, slots.mod
    for entries in rows:
        x = 0
        for c, v in entries:
            if v := v % p:
                x += v << w * c
                if c in echelon:
                    x += (p - v) * echelon[c]
        if x := mod(x):
            # the lead slot holds the lowest set bit for min, the highest for max
            c = (lead_at((x & -x).bit_length(), x.bit_length()) - 1) // w
            lead = echelon[c] = mod(x * pow(x >> w * c & mask, -1, p))
            for k, other in echelon.items():
                if k != c and (a := other >> w * c & mask):
                    echelon[k] = mod(other + (p - a) * lead)
            if len(echelon) == ncols:
                break
    return echelon


@cache
def _packing(p: int, ncols: int) -> Slots:
    """The :class:`Slots` of a row of ``ncols`` residues mod p in
    :func:`_echelon`, with room for p + ncols (p - 1)^2."""
    return Slots(ncols, (p + ncols * (p - 1) ** 2).bit_length() + 1, p)


def _free_entries(field: Field, ncols: int, r, pc: int, free: list) -> list:
    """The nonzero entries (column, scalar) of the stored row r of
    :func:`_echelon` off its pivot pc, all in ``free``, the columns of no
    pivot: packed slots over GF(p), over Q divided by the entry at pc."""
    if p := field.char:
        slots = _packing(p, ncols)
        return [(c, x) for c in free if (x := r >> slots.width * c & slots.mask)]
    return [(c, Fraction(x, r[pc])) for c, x in r.items() if c != pc]


def _int_entries(entries) -> dict:
    """The pairs (column, scalar) over Q with a nonzero scalar as
    {column: int}: a primitive multiple, cleared only if not all ints."""
    r = {c: x for c, x in entries if x}
    if not all(type(x) is int for x in r.values()):
        _, (r,) = cleared([r])
    g = gcd(*r.values())
    return {c: x // g for c, x in r.items()} if g > 1 else r


def cleared(vectors) -> tuple[int, list]:
    """(den, the vectors): sparse rational vectors {k: x} with every entry
    times den, the least common denominator of them all, as an int."""
    den = lcm(*(x.denominator for v in vectors for x in v.values()))
    return den, [{k: x.numerator * (den // x.denominator) for k, x in v.items()} for v in vectors]


def cleared_maps(maps) -> tuple[int, list]:
    """(den, the maps): maps {key: sparse vector} over Q cleared as by
    :func:`cleared`, with one den for them all."""
    den, vectors = cleared([v for m in maps for v in m.values()])
    it = iter(vectors)
    return den, [{key: next(it) for key in m} for m in maps]


def reduced(v: dict, p: int) -> dict:
    """The entries of a sparse vector {k: x} that are nonzero in the field,
    reduced mod p over GF(p) and as they are over Q (p = 0)."""
    return {k: r for k, x in v.items() if (r := x % p if p else x)}


class Slots:
    """``count`` ints |y_t| < 2^(bits - 1) in one int sum_t y_t 2^(width t)
    (SIMD within a register).  :meth:`at` adds 2^(bits - 1) to each slot
    (``bias``), so none borrows.  :meth:`zero` tests every slot mod p: with
    c, a multiple of p above each |y|, added to every slot, slot t holds
    v_t = y_t + c > 0; times M = ceil(2^S / p), shifted by S and masked, it
    holds floor(v_t / p) (the error of M stays below 1), and the int is p
    times those exactly when p divides each v_t; less p times those, it is
    :meth:`mod`, each v_t mod p.  A slot has room for v_t M."""

    def __init__(self, count: int, bits: int, p: int):
        self.count, self.bits, self.p, self.half = count, bits, p, 1 << bits - 1
        c = -(-self.half // p) * p if p else 0
        self.shift = (c + self.half).bit_length() + p.bit_length()
        self.mul = -(-(1 << self.shift) // p) if p else 0
        self.width = ((c + self.half) * self.mul).bit_length() if p else bits
        ones = ((1 << self.width * count) - 1) // ((1 << self.width) - 1)
        self.bias, self.mask, self.offset = self.half * ones, (1 << bits) - 1, c * ones
        self.quot = ((1 << self.width - self.shift) - 1) * ones

    def at(self, x: int, t: int) -> int:
        """The value of slot t of x."""
        return (x + self.bias >> self.width * t & self.mask) - self.half

    def mod(self, x: int) -> int:
        """x with every slot reduced into [0, p), over GF(p)."""
        x += self.offset
        return x - self.p * ((x * self.mul >> self.shift) & self.quot)

    def zero(self, x: int) -> bool:
        """Whether every slot of x is zero in the field."""
        if not self.p:
            return not x
        x += self.offset
        return x == self.p * ((x * self.mul >> self.shift) & self.quot)


def _eliminate(r: dict, lead: dict, c: int) -> None:
    """Clear column c of the integer row r, in place, with the reduced row
    ``lead`` whose pivot is c.  ``lead`` holds no other pivot column, so r
    gains or loses no entry at one; r becomes a primitive multiple of
    lead[c] r - r[c] lead."""
    a, b = lead[c], r[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in r:
            r[k] *= a
    for k, v in lead.items():
        x = r.get(k, 0) - b * v
        if x:
            r[k] = x
        else:
            r.pop(k, None)
    g = gcd(*r.values())
    if g > 1:
        for k in r:
            r[k] //= g


def span_basis(field: Field, vectors, n: int) -> tuple[list, list]:
    """Canonical (RREF) basis of the span of the vectors, zero ones skipped."""
    check_shape(vectors, len(vectors), n, what="the generators")
    return rref(field, vectors)


def nullspace_basis(field: Field, rows, n: int, echelon=None) -> tuple[list, list]:
    """Canonical (RREF) basis of {x : rows . x = 0} in F^n and its pivots;
    with no rows, the identity.  Each row is a map {column: scalar}, over
    GF(p) of ints that may be unreduced.  The rows are read once, in order,
    each checked as it is read, and past full rank only for that check.
    ``echelon``, a dict, holds the elimination of the rows read so far: a
    later call with it, over the same field and n, adds its rows without
    eliminating those again.

    One elimination on the columns in reverse order gives it: each reduced
    row ends at its pivot pc, with 1 there once divided and 0 at every
    other pivot.  For each free column c, v_c holds 1 at c, 0 at the other
    free columns and -row(pc)[c] at each pivot pc, nonzero only when
    c < pc.  So v_c leads at c, and the v_c in the order of c are already
    the RREF of the nullspace, with the free columns as pivots.
    """
    p, rows = field.char, _in_columns(rows, n)
    echelon = _echelon(p, (row.items() for row in rows), n, max, echelon)
    for _ in rows:  # past full rank
        pass
    free = [c for c in range(n) if c not in echelon]
    at = {c: unit_vector(field, n, c) for c in free}
    for pc, r in echelon.items():
        for c, x in _free_entries(field, n, r, pc, free):
            at[c][pc] = p - x if p else -x
    return list(at.values()), free


# the prime of lifted_nullspace: a slot of the packed kernel is about twice
# as wide as its values, about 140 bits here at 32 columns, so at 2^61 - 1
# the lift was only at parity with the exact route
LIFT_FIELD = GF(2**31 - 1)


def lifted_nullspace(field: Field, rows, n: int, echelon: dict):
    """Over Q, :func:`nullspace_basis` of integer rows mod q = 2^31 - 1,
    each entry lifted by :func:`reconstruct` into the canonical scalars of
    ``field``, or None when an entry has no lift.  ``echelon`` holds the
    elimination mod q, as in :func:`nullspace_basis`.  The lift is exact
    only for a caller that checks it (see the module docstring)."""
    q = LIFT_FIELD.char
    vectors, free = nullspace_basis(LIFT_FIELD, rows, n, echelon)
    lifted = []
    for v, c in zip(vectors, free):
        lifted.append(w := unit_vector(field, n, c))
        for pc in echelon:  # off c, v is zero but at the pivot columns
            if x := v[pc]:
                if (y := reconstruct(x, q)) is None:
                    return None
                w[pc] = y
    return lifted, free


def reconstruct(u: int, q: int):
    """The fraction a/b = u mod q with |a|, b <= isqrt(q // 2), by the
    extended Euclidean algorithm on (q, u) stopped at the first remainder
    within the bound (Wang, Guy and Davenport), or None if there is none.
    It is unique: two such, a/b and c/d, have ad - bc divisible by q and
    |ad - bc| <= 2 isqrt(q // 2)^2 < q, so ad = bc."""
    bound = isqrt(q // 2)
    r0, r1, t0, t1 = q, u % q, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _in_columns(rows, n: int):
    """The sparse rows, each checked, as it is read, to have its columns in
    ``range(n)``."""
    for row in rows:
        if row and (min(row) < 0 or max(row) >= n):
            raise DimensionMismatch(f"the equations must have their columns in range({n})")
        yield row


def coords_in_span(field: Field, basis, pivots, v):
    """Coordinates of v in an RREF basis, or None if v is outside the span."""
    coords = [v[p] for p in pivots]
    residue = list(v)
    for c, b in zip(coords, basis):
        if c:
            residue = [x - c * y for x, y in zip(residue, b)]
    return None if any(canonical(field, residue)) else coords


def solve(field: Field, A, b):
    """One exact solution of A x = b, or None if inconsistent: the only one
    when A has full column rank, as for kernel coordinates in an extension."""
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    check_shape(b, nrows, what="the right-hand side")
    aug = [list(row) + [b[i]] for i, row in enumerate(A)]
    R, pivots = rref(field, aug)
    x = vec_zero(field, ncols)
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None  # pivot in the constant column: inconsistent
        x[pc] = R[r][ncols]
    return x
