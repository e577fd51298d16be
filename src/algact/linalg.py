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

:func:`rref` takes and returns dense rows; one call runs under every
nullspace and span in the package.  Inside it runs incremental
Gauss-Jordan elimination on sparse integer rows, keeping every stored row
reduced, so each further row is cleared in one pass over the pivot columns
it touches: over Q fraction-free on primitive integer rows, dividing only
in the final normalisation; over GF(p) on residues reduced once per row
operation.  The entry points refuse rows, generators, right-hand sides
or matrix rows of the wrong length with :class:`DimensionMismatch`, each
row checked by :func:`check_shape`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch
from .fields import Field


def vec_zero(field: Field, n: int) -> list:
    return [field.zero] * n


def canonical(field: Field, v) -> list:
    """A dense vector of sums and products of canonical scalars, made
    canonical: reduced mod p over GF(p), as it is over Q, where Fraction
    arithmetic keeps lowest terms."""
    p = field.char
    return [x % p for x in v] if p else v


def vec_add(field: Field, u, v) -> list:
    return canonical(field, [a + b for a, b in zip(u, v)])


def vec_sub(field: Field, u, v) -> list:
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
    return [vec_add(field, ra, rb) for ra, rb in zip(A, B)]


def mat_sub(field: Field, A, B) -> list:
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
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The RREF of a row space is unique, which is what makes every basis in
    this package canonical.  It is built by incremental Gauss-Jordan
    elimination on sparse integer rows, and every stored row stays reduced:
    it holds no pivot column but its own.  Each new row is cleared at the
    pivot columns in its support, once each, so a redundant row costs one
    elimination per pivot column it touches.  A row that survives leads at
    its smallest column and clears that column from the stored rows.  Over
    Q the rows are primitive integer rows and only the final normalisation
    divides; over GF(p) they are monic residue rows.  All rows must have
    the same length.
    """
    p = field.char
    ncols = len(rows[0]) if rows else 0
    check_shape(rows, len(rows), ncols, what="the rows")
    echelon: dict[int, dict] = {}  # pivot column -> the reduced row that leads there
    for row in rows:
        if len(echelon) == ncols:
            break  # full rank: every further row reduces to zero
        r = _int_row(row, p)
        for c in [c for c in r if c in echelon]:
            _eliminate(r, echelon[c], c, p)
        if r:
            c = min(r)
            lead = echelon[c] = _normalise_lead(r, c, p)
            for other in echelon.values():
                if c in other and other is not lead:
                    _eliminate(other, lead, c, p)
    pivots = sorted(echelon)
    out = []
    for c in pivots:
        r, dense = echelon[c], [field.zero] * ncols
        for k, v in r.items():
            dense[k] = v if p else Fraction(v, r[c])
        out.append(dense)
    return out, pivots


def _int_row(row, p: int) -> dict:
    """The nonzero entries of a dense row as {column: int}: residues over
    GF(p), a primitive integer multiple of the row over Q (p = 0)."""
    if p:
        return {c: v for c, x in enumerate(row) if (v := x % p)}
    _, (r,) = cleared([{c: x for c, x in enumerate(row) if x}])
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


def _normalise_lead(r: dict, c: int, p: int) -> dict:
    """r scaled so its entry at column c is 1 over GF(p), positive over Q."""
    if p:
        inv = pow(r[c], p - 2, p)
        return {k: v * inv % p for k, v in r.items()}
    return {k: -v for k, v in r.items()} if r[c] < 0 else r


def _eliminate(r: dict, lead: dict, c: int, p: int) -> None:
    """Clear column c of r, in place, with the reduced row ``lead`` whose
    pivot is c.  ``lead`` holds no other pivot column, so r gains or loses
    no entry at one.  Over Q, r becomes a primitive multiple of
    lead[c] r - r[c] lead."""
    if p:
        b = r[c]
        for k, v in lead.items():
            x = (r.get(k, 0) - b * v) % p
            if x:
                r[k] = x
            else:
                r.pop(k, None)
        return
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


def nullspace_basis(field: Field, rows, n: int) -> tuple[list, list]:
    """Canonical (RREF) basis of {x : rows . x = 0} in F^n and its pivots;
    with no rows, the identity.

    One RREF of the rows with their columns reversed gives it.  Read in the
    original order, each of its rows ends at its pivot pc, with 1 there and
    0 at every other pivot.  For each free column c, v_c holds 1 at c, 0 at
    the other free columns and -row(pc)[c] at each pivot pc, nonzero only
    when c < pc.  So v_c leads at c, and the v_c in the order of c are
    already the RREF of the nullspace, with the free columns as pivots.
    """
    check_shape(rows, len(rows), n, what="the equations")
    if not rows:
        return mat_identity(field, n), list(range(n))
    R, pivots = rref(field, [row[::-1] for row in rows])
    ending = {n - 1 - pc: row for row, pc in zip(R, pivots)}  # rows still reversed
    free = [c for c in range(n) if c not in ending]
    vecs = []
    for c in free:
        v = unit_vector(field, n, c)
        for pc, row in ending.items():
            v[pc] = -row[n - 1 - c]
        vecs.append(canonical(field, v))
    return vecs, free


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
