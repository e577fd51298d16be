"""Independent brute-force oracle over small prime fields.

The space counts work on plain int tuples mod p and check the defining
identities directly from their definitions, sharing no code with the
package's linear-system path.  They confirm that exhaustive enumeration
counts equal p**(nullspace dimension).

``LEIBNIZ``, ``ASSOCIATIVE`` and ``POISSON`` are the paper's condition
lists, transcribed by hand as signed trees of :mod:`algact.laws`; the
package reads its lists off the weak actor's records instead, and is tested
against these.  :func:`brute_force_actions` tries every assignment of the
operator matrices of an action and keeps those that pass these lists, run
through the package's law evaluator.  It shares neither the weak actor,
through which the package enumerates actions, nor the lists read off it.

:func:`matrix_walk_homomorphisms` tries every matrix of a map into an
operator space and keeps those that pass the package's homomorphism check;
the package's column search is tested against it, list against list.

:func:`identity_report` checks the multilinear identities of an algebra
on basis tuples, each written out from its definition, and
:func:`jordan_holds_pointwise` checks the Jordan identity at every pair of
elements; both share no code with the package's law table.

:func:`dense_rref` is the textbook Gauss-Jordan elimination on dense rows,
one ``Field`` call per scalar; the package's sparse integer RREF is tested
against it.

:func:`flat_compose` and :func:`flat_membership` are the induced tensor as
the package once computed it, one matrix entry at a time on flat entries
{(b n + r) n + c: x}; :func:`induced_tables` runs them on every basis pair,
and the package's packed rows are tested against it.
"""

from fractions import Fraction
from itertools import chain, product
from math import lcm

from algact.laws import AT, BRACKET, ON, PRODUCT

# the operators of each variety; r is the mirror of l in cpoisson
ACTION_OPERATORS = {"leibniz": "lr", "associative": "lr", "poisson": "lrk", "cpoisson": "lk"}


def _p(u, w):
    return (PRODUCT, u, w)


def _b(u, w):
    return (BRACKET, u, w)


def _on(s, u):
    return (ON, s, u)


def _at(s, x, u):
    return (AT, s, x, u)


# For x, y in B and a, b in X: l_x(a) = x*a, r_x(a) = a*x and k_x(a) = {x, a}.
# A condition on a, b (indices 0, 1) holds at each acting element x; the
# others take x, y, a as the indices 0, 1, 2.
LEIBNIZ = (
    # r_x[a,b] = [r_x(a), b] + [a, r_x(b)]
    ("L1", ((1, _on("r", _b(0, 1))), (-1, _b(_on("r", 0), 1)), (-1, _b(0, _on("r", 1))))),
    # l_x[a,b] = [l_x(a), b] - [l_x(b), a]
    ("L2", ((1, _on("l", _b(0, 1))), (-1, _b(_on("l", 0), 1)), (1, _b(_on("l", 1), 0)))),
    # [a, r_x(b)] + [a, l_x(b)] = 0
    ("L3", ((1, _b(0, _on("r", 1))), (1, _b(0, _on("l", 1))))),
    # r_[x,y] = r_y r_x - r_x r_y
    ("L4", ((1, _at("r", _b(0, 1), 2)),
            (-1, _at("r", 1, _at("r", 0, 2))),
            (1, _at("r", 0, _at("r", 1, 2))))),
    # l_[x,y] = r_y l_x - l_x r_y
    ("L5", ((1, _at("l", _b(0, 1), 2)),
            (-1, _at("r", 1, _at("l", 0, 2))),
            (1, _at("l", 0, _at("r", 1, 2))))),
    # l_x (l_y + r_y) = 0
    ("L6", ((1, _at("l", 0, _at("l", 1, 2))), (1, _at("l", 0, _at("r", 1, 2))))),
)

_ASSOCIATIVE = (
    ((1, _on("l", _p(0, 1))), (-1, _p(_on("l", 0), 1))),  # x*(ab) = (x*a)b
    ((1, _on("r", _p(0, 1))), (-1, _p(0, _on("r", 1)))),  # (ab)*x = a(b*x)
    ((1, _p(0, _on("l", 1))), (-1, _p(_on("r", 0), 1))),  # a(x*b) = (a*x)b
    ((1, _at("r", 1, _at("l", 0, 2))), (-1, _at("l", 0, _at("r", 1, 2)))),  # (x*a)*y = x*(a*y)
    ((1, _at("l", _p(0, 1), 2)), (-1, _at("l", 0, _at("l", 1, 2)))),  # (xy)*a = x*(y*a)
    ((1, _at("r", _p(0, 1), 2)), (-1, _at("r", 1, _at("r", 0, 2)))),  # a*(xy) = (a*x)*y
)

ASSOCIATIVE = tuple(zip(("A1", "A2", "A3", "A4", "A5", "A6"), _ASSOCIATIVE))

POISSON = tuple(zip(("P1.1", "P1.2", "P1.3", "P1.4", "P1.5", "P1.6"), _ASSOCIATIVE)) + (
    # k_x[a,b] = [k_x(a), b] + [a, k_x(b)]
    ("P2.1", ((1, _on("k", _b(0, 1))), (-1, _b(_on("k", 0), 1)), (-1, _b(0, _on("k", 1))))),
    # k_[x,y] = k_x k_y - k_y k_x
    ("P2.2", ((1, _at("k", _b(0, 1), 2)),
              (-1, _at("k", 0, _at("k", 1, 2))),
              (1, _at("k", 1, _at("k", 0, 2))))),
    # k_xy = l_x k_y + r_y k_x
    ("P3", ((1, _at("k", _p(0, 1), 2)),
            (-1, _at("l", 0, _at("k", 1, 2))),
            (-1, _at("r", 1, _at("k", 0, 2))))),
    # l_[x,y] = l_x k_y - k_y l_x
    ("P4", ((1, _at("l", _b(0, 1), 2)),
            (-1, _at("l", 0, _at("k", 1, 2))),
            (1, _at("k", 1, _at("l", 0, 2))))),
    # r_[x,y] = r_x k_y - k_y r_x
    ("P5", ((1, _at("r", _b(0, 1), 2)),
            (-1, _at("r", 0, _at("k", 1, 2))),
            (1, _at("k", 1, _at("r", 0, 2))))),
    # l_x[a,b] = [l_x(a), b] - k_x(b) a
    ("P6", ((1, _on("l", _b(0, 1))), (-1, _b(_on("l", 0), 1)), (1, _p(_on("k", 1), 0)))),
    # r_x[a,b] = [r_x(a), b] - a k_x(b)
    ("P7", ((1, _on("r", _b(0, 1))), (-1, _b(_on("r", 0), 1)), (1, _p(0, _on("k", 1))))),
    # k_x(ab) = k_x(a) b + a k_x(b)
    ("P8", ((1, _on("k", _p(0, 1))), (-1, _p(_on("k", 0), 1)), (-1, _p(0, _on("k", 1))))),
)

# the condition list of each variety; r mirrors l in cpoisson, so Poisson's holds
CONDITIONS = {"leibniz": LEIBNIZ, "associative": ASSOCIATIVE, "poisson": POISSON,
              "cpoisson": POISSON}


def brute_force_actions(B, X, variety):
    """All valid actions of B on X over GF(p), sorted canonically, by
    evaluating the reference list of ``variety`` on every assignment of the
    operator matrices l, r and k at the basis elements of B."""
    from algact import laws
    from algact.actions import ActionData

    nb, nx = B.dim, X.dim
    names, conditions = ACTION_OPERATORS[variety], [law for _, law in CONDITIONS[variety]]
    found = []
    for flat in product(range(B.field.p), repeat=len(names) * nb * nx * nx):
        entries = iter(flat)
        operators = {name: [[[next(entries) for _ in range(nx)] for _ in range(nx)]
                            for _ in range(nb)]
                     for name in names}
        a = ActionData(variety, B, X, operators)
        fails = laws.failures(X, conditions, [a._law_operators()], B)
        if all(next(fails(law), None) is None for law in conditions):
            found.append(a)
    return sorted(found, key=ActionData.canonical_key)


def matrix_walk_homomorphisms(B, space):
    """Every homomorphism from B into the induced algebra of ``space`` over
    GF(p), as the package's ``ActorMorphism`` records, by trying each
    matrix in lexicographic order of its entries read row by row."""
    nb = B.dim
    found = []
    for flat in product(range(B.field.p), repeat=space.dim * nb):
        mor = space.morphism(B, [list(flat[t * nb:(t + 1) * nb]) for t in range(space.dim)])
        if mor.is_homomorphism:
            found.append(mor)
    return found


def tables(A):
    """Structure constants of an algact Algebra over GF(p) as int tensors."""
    n = A.dim
    out = []
    for op in range(A.num_ops):
        out.append(
            tuple(
                tuple(tuple(int(c) for c in A.mul_basis(op, i, j)) for j in range(n))
                for i in range(n)
            )
        )
    return out


def mulvec(c, x, y, p):
    n = len(c)
    out = [0] * n
    for i in range(n):
        if not x[i]:
            continue
        for j in range(n):
            if not y[j]:
                continue
            coeff = x[i] * y[j]
            row = c[i][j]
            for k in range(n):
                if row[k]:
                    out[k] = (out[k] + coeff * row[k]) % p
    return tuple(out)


def apply(M, v, p):
    return tuple(sum(M[m][j] * v[j] for j in range(len(v))) % p for m in range(len(M)))


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def all_matrices(n, p):
    for flat in product(range(p), repeat=n * n):
        yield tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))


def vsub(u, v, p):
    return tuple((a - b) % p for a, b in zip(u, v))


def is_derivation(M, c, p):
    n = len(c)
    for i in range(n):
        for j in range(n):
            lhs = apply(M, c[i][j], p)
            rhs = tuple(
                (a + b) % p
                for a, b in zip(
                    mulvec(c, apply(M, unit(n, i), p), unit(n, j), p),
                    mulvec(c, unit(n, i), apply(M, unit(n, j), p), p),
                )
            )
            if lhs != rhs:
                return False
    return True


def is_antiderivation(M, c, p):
    n = len(c)
    for i in range(n):
        for j in range(n):
            lhs = apply(M, c[i][j], p)
            rhs = vsub(
                mulvec(c, apply(M, unit(n, i), p), unit(n, j), p),
                mulvec(c, apply(M, unit(n, j), p), unit(n, i), p),
                p,
            )
            if lhs != rhs:
                return False
    return True


def bider_compatible(d, D, c, p):
    n = len(c)
    for i in range(n):
        for j in range(n):
            if mulvec(c, unit(n, i), apply(d, unit(n, j), p), p) != mulvec(
                c, unit(n, i), apply(D, unit(n, j), p), p
            ):
                return False
    return True


def is_left_multiplier(M, c, p):
    n = len(c)
    for i in range(n):
        for j in range(n):
            if apply(M, c[i][j], p) != mulvec(c, apply(M, unit(n, i), p), unit(n, j), p):
                return False
    return True


def is_right_multiplier(M, c, p):
    n = len(c)
    for i in range(n):
        for j in range(n):
            if apply(M, c[i][j], p) != mulvec(c, unit(n, i), apply(M, unit(n, j), p), p):
                return False
    return True


def bim_mixed_ok(f, F, c, p):
    n = len(c)
    for i in range(n):
        for j in range(n):
            if mulvec(c, unit(n, i), apply(f, unit(n, j), p), p) != mulvec(
                c, apply(F, unit(n, i), p), unit(n, j), p
            ):
                return False
    return True


def v1_ok(f, d, br, prod, p):
    n = len(br)
    for i in range(n):
        for j in range(n):
            lhs = apply(f, br[i][j], p)
            rhs = vsub(
                mulvec(br, apply(f, unit(n, i), p), unit(n, j), p),
                mulvec(prod, apply(d, unit(n, j), p), unit(n, i), p),
                p,
            )
            if lhs != rhs:
                return False
    return True


def v2_ok(F, d, br, prod, p):
    n = len(br)
    for i in range(n):
        for j in range(n):
            lhs = apply(F, br[i][j], p)
            rhs = vsub(
                mulvec(br, apply(F, unit(n, i), p), unit(n, j), p),
                mulvec(prod, unit(n, i), apply(d, unit(n, j), p), p),
                p,
            )
            if lhs != rhs:
                return False
    return True


def _vadd(p, *vs):
    return tuple(sum(c) % p for c in zip(*vs))


def _identities(prod, br, p):
    """Each identity's arity and its defect on unit vectors x, y, z."""

    def m(x, y):
        return mulvec(prod, x, y, p)

    def b(x, y):
        return mulvec(br, x, y, p)

    return {
        "associative": (3, lambda x, y, z: vsub(m(m(x, y), z), m(x, m(y, z)), p)),
        "commutative": (2, lambda x, y: vsub(m(x, y), m(y, x), p)),
        "anticommutative": (2, lambda x, y: _vadd(p, b(x, y), b(y, x))),
        "leibniz_right": (3, lambda x, y, z: vsub(b(b(x, y), z),
                                                  _vadd(p, b(b(x, z), y), b(x, b(y, z))), p)),
        "jacobi": (3, lambda x, y, z: _vadd(p, b(b(x, y), z), b(b(y, z), x), b(b(z, x), y))),
        "poisson_compat": (3, lambda x, y, z: vsub(b(x, m(y, z)),
                                                   _vadd(p, m(b(x, y), z), m(y, b(x, z))), p)),
    }


IDENTITY_PARTS = {
    "associative": ("associative",),
    "commutative": ("commutative",),
    "anticommutative": ("anticommutative",),
    "leibniz_right": ("leibniz_right",),
    "jacobi": ("jacobi",),
    "lie": ("anticommutative", "jacobi"),
    "poisson": ("associative", "anticommutative", "jacobi", "poisson_compat"),
    "jordan": ("commutative",),
}


def identity_report(A, tag):
    """(holds, failed_part, witness, defect) of an identity tag of an algact
    Algebra over GF(p): the parts in order, each on every basis tuple in
    lexicographic order.  The bracket is operation 1 when there are two,
    operation 0 otherwise.  For ``jordan`` only its commutativity part is
    checked; :func:`jordan_holds_pointwise` checks the rest."""
    ts = tables(A)
    n, p = A.dim, A.field.p
    laws = _identities(ts[0], ts[-1], p)
    for part in IDENTITY_PARTS[tag]:
        arity, defect = laws[part]
        for idx in product(range(n), repeat=arity):
            d = defect(*(unit(n, i) for i in idx))
            if any(d):
                return False, part, idx, d
    return True, None, None, None


def jordan_holds_pointwise(A):
    """Whether the product of an algact Algebra over GF(p) is commutative and
    satisfies (xy)(xx) = x(y(xx)) at every pair of elements x, y.  When p
    exceeds 3, the degree of the law in each coordinate, vanishing at every
    point is vanishing as a polynomial."""
    c, n, p = tables(A)[0], A.dim, A.field.p
    elements = list(product(range(p), repeat=n))
    for x in elements:
        xx = mulvec(c, x, x, p)
        for y in elements:
            if mulvec(c, x, y, p) != mulvec(c, y, x, p):
                return False
            if mulvec(c, mulvec(c, x, y, p), xx, p) != mulvec(c, x, mulvec(c, y, xx, p), p):
                return False
    return True


def count_space(kind, A, p=3):
    """Number of operator tuples of the given kind, by direct enumeration."""
    ts = tables(A)
    prod = ts[0]
    br = ts[1] if A.num_ops == 2 else ts[0]
    n = A.dim
    mats = list(all_matrices(n, p))
    if kind == "derivations":
        return sum(1 for M in mats if is_derivation(M, br, p))
    if kind == "antiderivations":
        return sum(1 for M in mats if is_antiderivation(M, br, p))
    if kind == "biderivations":
        ders = [M for M in mats if is_derivation(M, br, p)]
        antis = [M for M in mats if is_antiderivation(M, br, p)]
        return sum(
            1 for d in ders for D in antis if bider_compatible(d, D, br, p)
        )
    if kind == "multipliers":
        return sum(1 for M in mats if is_left_multiplier(M, prod, p))
    if kind == "bimultipliers":
        lefts = [M for M in mats if is_left_multiplier(M, prod, p)]
        rights = [M for M in mats if is_right_multiplier(M, prod, p)]
        return sum(1 for f in lefts for F in rights if bim_mixed_ok(f, F, prod, p))
    if kind == "usga-cpoisson":
        lefts = [M for M in mats if is_left_multiplier(M, prod, p)]
        ds = [
            M
            for M in mats
            if is_derivation(M, br, p) and is_derivation(M, prod, p)
        ]
        return sum(1 for f in lefts for d in ds if v1_ok(f, d, br, prod, p))
    if kind == "usga-poisson":
        lefts = [M for M in mats if is_left_multiplier(M, prod, p)]
        rights = [M for M in mats if is_right_multiplier(M, prod, p)]
        ds = [
            M
            for M in mats
            if is_derivation(M, br, p) and is_derivation(M, prod, p)
        ]
        # mixed compatibility is independent of d: build bitmasks once
        masks = []
        for f in lefts:
            mask = 0
            for i, F in enumerate(rights):
                if bim_mixed_ok(f, F, prod, p):
                    mask |= 1 << i
            masks.append(mask)
        total = 0
        for d in ds:
            v2mask = 0
            for i, F in enumerate(rights):
                if v2_ok(F, d, br, prod, p):
                    v2mask |= 1 << i
            for fi, f in enumerate(lefts):
                if v1_ok(f, d, br, prod, p):
                    total += (masks[fi] & v2mask).bit_count()
        return total
    raise ValueError(kind)


def dense_rref(field, rows):
    """Reduced row echelon form of dense rows by Gauss-Jordan elimination
    with Field arithmetic; returns (nonzero rows, pivot columns)."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if not field.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i == r:
                continue
            f = m[i][c]
            if field.is_zero(f):
                continue
            m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def flat_compose(pair, rule, n):
    """An induced product as flat entries {(b n + i) n + j: x}, component b
    the sum of s A B over the parsed terms (s, A, B) of ``rule[b]``, each
    factor a (side, slot) of the pair (t, u) of sparse integer tuples
    {row: {col: x}}; unreduced, so an entry may be zero in the field."""
    out = {}
    for b, terms in enumerate(rule):
        for s, (ls, lb), (rs, rb) in terms:
            B = pair[rs][rb]
            for i, arow in pair[ls][lb].items():
                at = (b * n + i) * n
                for k, a in arow.items():
                    a = a if s > 0 else -a
                    for j, x in B.get(k, {}).items():
                        col = at + j
                        out[col] = out[col] + a * x if col in out else a * x
    return out


def _flat(tup):
    return {col: x for col, x in enumerate(chain.from_iterable(chain.from_iterable(tup))) if x}


def _reduced(v, p):
    return {k: r for k, x in v.items() if (r := x % p if p else x)}


def flat_membership(basis, pivots, p):
    """The coordinates of flat entries v in the RREF basis of dense matrix
    tuples with ``pivots``, as a function of v: the nonzero {t: c}, c_t = v
    at pivot t, or None unless L v - sum_t c_t (L b_t) vanishes, checked off
    the pivots against each basis vector's entries there (its tail) times
    the one int L that clears them."""
    index = {col: t for t, col in enumerate(pivots)}
    tails = [{col: x for col, x in _flat(tup).items() if col not in index} for tup in basis]
    L = lcm(*(Fraction(x).denominator for tail in tails for x in tail.values()))
    tails = [{col: x * L for col, x in tail.items()} for tail in tails]

    def coords(v):
        coords, residue = {}, {}
        for col, x in v.items():
            if col in index:
                coords[index[col]] = x
            else:
                residue[col] = L * x
        coords = _reduced(coords, p)
        for t, a in coords.items():
            for col, y in tails[t].items():
                residue[col] = residue.get(col, 0) - a * y
        return None if _reduced(residue, p) else coords

    return coords


def induced_tables(space, terms):
    """The structure constants {(a, b): {t: c}} of each induced operation of
    ``space``, whose rules are parsed as ``terms``, at every basis pair in
    lexicographic order: the flat product of the basis tuples a and b (over
    Q each cleared of denominators by its own lam) placed by
    :func:`flat_membership`.  A product outside the span raises the
    package's ClosureError at its pair."""
    from algact.errors import ClosureError

    p, n = space.field.char, space.base.dim
    lams = [lcm(*(Fraction(x).denominator for x in _flat(tup).values())) for tup in space.basis]
    sparse = [tuple({r: {c: x * lam for c, x in enumerate(row) if x} for r, row in enumerate(M)}
                    for M in tup) for tup, lam in zip(space.basis, lams)]
    coords_of = flat_membership(space.basis, space.pivots, p)
    tables = []
    for rule in terms:
        table = {}
        for a, b in product(range(space.dim), repeat=2):
            coords = coords_of(flat_compose((sparse[a], sparse[b]), rule, n))
            if coords is None:
                raise ClosureError(f"induced operation escaped the span at basis pair ({a}, {b})")
            if coords:
                table[a, b] = {t: c if p else Fraction(c, lams[a] * lams[b])
                               for t, c in coords.items()}
        tables.append(table)
    return tables
