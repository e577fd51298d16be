"""The laws of operator spaces, actions and algebras, each written once.

A *law* is a tuple of signed terms ``(sign, node)``, each sign 1 or -1,
whose sum must vanish.
A node is a tree over basis arguments numbered from 0.  It is one of

* an argument index;
* ``(op, u, w)``, the product of the nodes u and w under ``op``, which is
  :data:`PRODUCT` (operation 0) or :data:`BRACKET` (the algebra's
  ``bracket_op``);
* ``(ON, s, u)``, the operator in slot ``s`` applied to u: a component
  ``d``, ``D``, ``f``, ``F`` of an operator tuple, or one of the operators
  ``l``, ``r``, ``k`` of an action read at one acting element;
* ``(AT, s, x, u)``, the action operator ``s`` at the acting element x (a
  node of the acting algebra B) applied to u.

So :func:`derivation` is ``M(x.y) - M(x).y - x.M(y)``, and the Leibniz
condition L4, the d component of the biderivation bracket read at d = -r
(:func:`algact.opspace.conditions`), is ``r_[x,y](a) + r_x(r_y(a)) - r_y(r_x(a))``.

Every law is multilinear in its arguments, so imposing it on basis
arguments is equivalent to imposing it everywhere.  The one format is read
two ways:

* evaluation computes a law on basis arguments, with known operators, on
  sparse vectors {index: value}.  Its one entry point, :func:`failures`, is
  built once for an algebra, its laws and a family of operator sets (one
  set, or none, being a family of one): it checks the operator shapes and
  turns the matrices into sparse columns once, then gives each law's
  failing (set, basis tuple) pairs in lexicographic order, a defect made a
  dense list only when it is reported.  Without an acting algebra a law is
  evaluated once at every prefix of its arguments, all but the last.  It
  serves the self-check of a whole operator-space basis after
  construction, the conditions of an action and its acting law, and the
  identities of an algebra.
* the linear reading, :func:`law_rows`, takes the operators as unknown
  matrices.  Each term holds one ``ON`` node M applied to a node v, inside
  a context C that is linear in M's value, so the term is
  ``sum_{k,j} M[k][j] v_j C(e_k)``: linear forms over the entries of M whose
  coefficients v and C(e_k) are themselves evaluations.

Both readings run one kernel for both fields, Python's own ``+ - *`` on
the scalars they hold.  Over GF(p) these are residues, and what they make
is left unreduced until a defect is complete; that is reduced mod p once
(:func:`algact.linalg.reduced`, or slot by slot when packed), so a defect
leaves the module as canonical residues.  A form leaves it unreduced, for
the one reduction of the elimination that reads it.  Over Q the acting path runs on Fractions,
and the rest on integers: the constants of both operations cleared of
denominators by one common mu, and each operator set by its own lambda_t.
Every term of a law without an acting algebra reads each argument once,
so it holds exactly ``arity - 1`` product or bracket nodes and as many
``ON`` nodes as every other term (0 or 1); every term, so the defect, of
set t scales by lambda_t^on mu^(arity - 1), and a defect vanishes exactly
when its scaled form does; a failing one is divided back.

A law with one ``ON`` node per term is linear in its operator set, and
every law is linear in its last argument, so without an acting algebra a
family of T sets on an n-dimensional algebra is evaluated as one
(:func:`_packed`): each operator entry is one int whose slot t
(:class:`algact.linalg.Slots`) holds set t's, and the last argument is the
packed units {k: 1 in slot k T}, every e_k at once.  So one evaluation at a
prefix of the other arguments gives a defect whose entries hold, in slot
(k, t) at ``width (k T + t)``, set t's defect at (prefix, e_k): exactly the
value an evaluation at that one tuple would give.  The nodes next to the
last argument read rows packed once, each the first time it is read
(:func:`_row`): e_a e_k and e_k e_a under each operation and M(e_k), for
every k at once.  A term's entries are at most n^a C^b M^m for C the
largest constant, M the largest operator entry and exponents counted on
its tree (:func:`_size`), so the sum of those over the terms bounds a slot,
whose bits are the bound's and a sign bit.  A defect entry is tested for
zero in the field in a few int operations, a nonzero multiple of p in a
slot counting as zero, and only one that fails is read, slot by slot,
lowest first (:func:`_failing`): so the failures come in the order of the
basis tuples and, at each, of the sets, and a caller that stops at the
first one evaluates no prefix after it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from . import linalg
from .errors import ShapeMismatch

PRODUCT = "product"
BRACKET = "bracket"
ON = "on"
AT = "at"


def _p(u, w):
    return (PRODUCT, u, w)


def _b(u, w):
    return (BRACKET, u, w)


def _on(s, u):
    return (ON, s, u)


def _at(s, x, u):
    return (AT, s, x, u)


# -- templates -------------------------------------------------------------------
#
# The arguments x, y are the indices 0, 1.


def derivation(M, op):
    """M(x.y) = M(x).y + x.M(y)"""
    return ((1, _on(M, (op, 0, 1))), (-1, (op, _on(M, 0), 1)), (-1, (op, 0, _on(M, 1))))


def antiderivation(M, op):
    """M(x.y) = M(x).y - M(y).x"""
    return ((1, _on(M, (op, 0, 1))), (-1, (op, _on(M, 0), 1)), (1, (op, _on(M, 1), 0)))


def left_multiplier(f):
    """f(xy) = f(x)y"""
    return ((1, _on(f, _p(0, 1))), (-1, _p(_on(f, 0), 1)))


def right_multiplier(F):
    """F(xy) = xF(y)"""
    return ((1, _on(F, _p(0, 1))), (-1, _p(0, _on(F, 1))))


def mixed(f, F):
    """x f(y) = F(x) y"""
    return ((1, _p(0, _on(f, 1))), (-1, _p(_on(F, 0), 1)))


def compatibility(d, D):
    """[x, d(y)] = [x, D(y)]"""
    return ((1, _b(0, _on(d, 1))), (-1, _b(0, _on(D, 1))))


def v1(f, d):
    """f[x,y] = [f(x), y] - d(y) x"""
    return ((1, _on(f, _b(0, 1))), (-1, _b(_on(f, 0), 1)), (1, _p(_on(d, 1), 0)))


def v2(F, d):
    """F[x,y] = [F(x), y] - x d(y)"""
    return ((1, _on(F, _b(0, 1))), (-1, _b(_on(F, 0), 1)), (1, _p(0, _on(d, 1))))


# -- acting laws -----------------------------------------------------------------
#
# On x, y in B and a in X (indices 0, 1, 2), l_x(a) = x*a, r_x(a) = a*x and
# k_x(a) = {x, a}: a homomorphism into the weak actor comes from an action
# exactly when its operators satisfy L6 (Leibniz) or PERMUTABLE (associative
# and Poisson).  The other conditions are read off the weak actor.

# l_x (l_y + r_y) = 0
L6 = ((1, _at("l", 0, _at("l", 1, 2))), (1, _at("l", 0, _at("r", 1, 2))))
# l_x r_y = r_y l_x
PERMUTABLE = ((1, _at("l", 0, _at("r", 1, 2))), (-1, _at("r", 1, _at("l", 0, 2))))
# (x*a)*y = x*(a*y), PERMUTABLE the other way round: A4 and P1.4
MIDDLE = ((1, _at("r", 1, _at("l", 0, 2))), (-1, _at("l", 0, _at("r", 1, 2))))


# -- identities of an algebra ------------------------------------------------------
#
# The arguments x, y, z are the indices 0, 1, 2.

ASSOCIATIVITY = ((1, _p(_p(0, 1), 2)), (-1, _p(0, _p(1, 2))))  # (xy)z = x(yz)
COMMUTATIVITY = ((1, _p(0, 1)), (-1, _p(1, 0)))  # xy = yx
# [x,y] + [y,x] = 0, so [x,x] = 0 on the diagonal (char != 2)
ANTICOMMUTATIVITY = ((1, _b(0, 1)), (1, _b(1, 0)))
# [[x,y],z] = [[x,z],y] + [x,[y,z]]
RIGHT_LEIBNIZ = ((1, _b(_b(0, 1), 2)), (-1, _b(_b(0, 2), 1)), (-1, _b(0, _b(1, 2))))
# [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
JACOBI = ((1, _b(_b(0, 1), 2)), (1, _b(_b(1, 2), 0)), (1, _b(_b(2, 0), 1)))
# [x,yz] = [x,y]z + y[x,z]
POISSON_COMPAT = ((1, _b(0, _p(1, 2))), (-1, _p(_b(0, 1), 2)), (-1, _p(1, _b(0, 2))))


# -- the two readings ----------------------------------------------------------------


def _subnodes(node):
    yield node
    if not isinstance(node, int):
        for child in node[1:]:
            if not isinstance(child, str):  # slot names are strings
                yield from _subnodes(child)


@lru_cache(maxsize=None)
def _arity(law) -> int:
    return 1 + max(n for _, node in law for n in _subnodes(node) if isinstance(n, int))


@lru_cache(maxsize=None)
def _ons(law) -> int:
    """The number of ``ON`` nodes in each term of ``law``; with B, a law that
    has them is a law on two kernel arguments, read at each acting element."""
    return sum(1 for n in _subnodes(law[0][1]) if not isinstance(n, int) and n[0] == ON)


@lru_cache(maxsize=None)
def _slots(law) -> frozenset:
    """The operator slots that ``law`` reads."""
    return frozenset(n[1] for _, node in law for n in _subnodes(node)
                     if not isinstance(n, int) and n[0] in (ON, AT))


@lru_cache(maxsize=None)
def _size(node) -> tuple:
    """(a, b, m) such that every entry of ``node``, compiled and read on
    unit vectors, is at most n^a C^b M^m in absolute value, for C the
    largest structure constant and M the largest operator entry: an
    operator applied to a vector sums over at most n entries of a column,
    and a product of two vectors over at most n^2 products of entries, one
    sum fewer for each side that is a unit vector."""
    if isinstance(node, int):
        return 0, 0, 0
    if node[0] == ON:
        a, b, m = _size(node[2])
        return a + (not isinstance(node[2], int)), b, m + 1
    (au, bu, mu), (aw, bw, mw) = _size(node[1]), _size(node[2])
    sums = (not isinstance(node[1], int)) + (not isinstance(node[2], int))
    return au + aw + sums, bu + bw + 1, mu + mw


_ZERO = {}  # the zero vector, shared and never written to


class _Env:
    """What a compiled node reads: the characteristic p (0 for Q), the
    nonzero structure constants of the product and bracket of the algebra it
    is evaluated in, the operators as sparse columns {col: {row: c}} (a map
    from slot to the columns of its matrix for ``ON`` nodes, and to those of
    each of its matrices over the basis of B for ``AT`` nodes) and the env
    of B.  The env of a family of operator sets (:func:`_packed`) also holds
    their :class:`~algact.linalg.Slots`, over Q the ``scale`` of each set's
    defects, and the packed last argument: its ``units``, their ``stride``
    and the ``rows`` read next to it (:func:`_row`)."""

    __slots__ = ("p", "n", "groups", "ops", "acting", "slots", "scale", "units", "stride", "rows")

    def __init__(self, A, ops=None, acting=None):
        self.p, self.n, self.ops, self.acting, self.scale = A.field.char, A.dim, ops, acting, None
        self.groups = (A.ops[0].groups, A.ops[A.bracket_op].groups)
        self.rows = {}


def _over_ints(env) -> int:
    """Over Q, the constants of both operations of ``env`` times one common
    mu, which is returned; 1 over GF(p)."""
    if env.p:
        return 1
    mu, env.groups = linalg.cleared_maps(env.groups)
    return mu


def _env(A, laws, family, B=None) -> _Env:
    """The env of ``laws`` on ``family``, a list of operator sets: maps from
    slot to an n x n matrix, or with B (a family of one) to one such matrix
    per basis element of B, each turned into sparse columns once.  A slot
    the laws read that is missing or of another shape raises ShapeMismatch.
    Without B the family is packed (:func:`_packed`)."""
    n, sets = A.dim, []
    slots = sorted(set().union(*map(_slots, laws)))
    for operators in family:
        ops = {}
        for s in slots:
            if s not in operators:
                raise ShapeMismatch(f"no operator {s} is given")
            mats, count = (operators[s], B.dim) if B is not None else ([operators[s]], 1)
            linalg.check_shape(mats, count, n, n, error=ShapeMismatch, what=f"operator {s}")
            cols = [linalg.mat_sparse(zip(*M)) for M in mats]
            ops[s] = cols if B is not None else cols[0]
        sets.append(ops)
    if B is not None:
        return _Env(A, sets[0], _Env(B))
    return _packed(_Env(A), laws, slots, sets)


def _packed(env, laws, slots, sets) -> _Env:
    """``env`` reading the operator sets ``sets`` (each a map from slot to
    sparse columns) as one, as the module docstring describes: over Q each
    set cleared by its own lambda_t, ``scale`` = (the lambdas, mu); set t's
    operator entry in slot t of one int and the unit e_k of the last
    argument 1 in slot k T, for T sets, the slots sized off ``laws``."""
    mu, lams, count = _over_ints(env), [1] * len(sets), len(sets)
    if not env.p:
        for t, ops in enumerate(sets):
            lams[t], cols = linalg.cleared_maps(list(ops.values()))
            sets[t] = dict(zip(ops, cols))
        env.scale = (lams, mu)
    top = max((abs(x) for ops in sets for cols in ops.values() for col in cols.values()
               for x in col.values()), default=1)
    c = max((abs(x) for g in env.groups for v in g.values() for x in v.values()), default=0)
    bound = max((sum(env.n ** a * c ** b * top ** m for a, b, m in (_size(v) for _, v in law))
                 for law in laws), default=0)
    env.slots = linalg.Slots(env.n * count, bound.bit_length() + 1, env.p)
    w, env.ops = env.slots.width, {s: {} for s in slots}
    env.stride = w * count
    env.units = {k: 1 << env.stride * k for k in range(env.n)}
    for t, ops in enumerate(sets):
        for s, cols in ops.items():
            packed = env.ops[s]
            for j, col in cols.items():
                into = packed.setdefault(j, {})
                for i, x in col.items():
                    into[i] = into.get(i, 0) + (x << w * t)
    return env


def _row(env, key) -> dict:
    """A row of ``env`` read next to the packed last argument, built the
    first time it is read: (s,) is M_s(e_k) for every k, and (g, a, side)
    under operation g (0 the product, 1 the bracket) is e_a e_k for every k,
    or e_k e_a with ``side`` 1.  Its entry m is the int sum_k v_k
    2^(stride k), for v_k entry m of the product at e_k."""
    row = env.rows.get(key)
    if row is None:
        row = env.rows[key] = {}
        if len(key) == 1:
            at = env.ops[key[0]].items()
        else:
            g, a, side = key
            get = env.groups[g].get
            at = ((k, get((k, a) if side else (a, k))) for k in range(env.n))
        for k, v in at:
            if v:
                shift = env.stride * k
                for m, x in v.items():
                    row[m] = row[m] + (x << shift) if m in row else x << shift
    return row


def _add(acc, pairs, sign=1) -> dict:
    """``acc`` plus sign * sum x v, in place and unreduced, over the pairs
    (x, v) of a scalar and a sparse vector or None; the sign is 1 or -1."""
    for x, v in pairs:
        if v:
            if sign < 0:
                x = -x
            for k, y in v.items():
                acc[k] = acc[k] + x * y if k in acc else x * y
    return acc


@lru_cache(maxsize=None)
def _compile(node, last=None):
    """``node`` on basis arguments, compiled once for every algebra, as
    (read, pairs) with one of them None: read(env, args) returns the sparse
    vector {index: value} of ``node``, which the caller only reads, and
    pairs(env, args) the pairs (x, v) of a scalar and a sparse vector or
    None whose sum x v it is.  ``env`` is an :class:`_Env` and ``args`` the
    argument tuple.  A leaf stands for a unit vector; the leaf ``last``, the
    last argument of a packed env, for its packed ``units``, the nodes next
    to it reading its packed rows (:func:`_row`) and ``args`` holding the
    other arguments."""
    if isinstance(node, int):
        if node == last:
            return (lambda env, args: env.units), None
        return (lambda env, args: {args[node]: 1}), None
    tag = node[0]
    if tag == ON:
        s, u = node[1], node[2]
        if isinstance(u, int):
            if u == last:  # M_s(e_k) for every k
                key = (s,)
                return (lambda env, args: _row(env, key)), None
            return (lambda env, args: env.ops[s].get(args[u], _ZERO)), None
        v = _value(u, last)

        def on(env, args):
            cols = env.ops[s]
            return ((x, cols.get(j)) for j, x in v(env, args).items())

        return None, on
    if tag == AT:
        s, x, u = node[1], node[2], node[3]
        if isinstance(x, int) and isinstance(u, int):
            return (lambda env, args: env.ops[s][args[x]].get(args[u], _ZERO)), None
        if isinstance(x, int):
            v = _value(u, last)

            def at(env, args):
                cols = env.ops[s][args[x]]
                return ((y, cols.get(j)) for j, y in v(env, args).items())

            return None, at
        xv = _value(x)
        if isinstance(u, int):  # sum_p x_p S_p(u)
            return None, lambda env, args: (
                (c, env.ops[s][p].get(args[u])) for p, c in xv(env.acting, args).items())
        v = _value(u, last)

        def at_compound(env, args):  # sum_p x_p sum_j u_j S_p(e_j)
            mats, vals = env.ops[s], v(env, args).items()
            return ((c * y, mats[p].get(j)) for p, c in xv(env.acting, args).items()
                    for j, y in vals)

        return None, at_compound
    g = 1 if tag == BRACKET else 0
    u, w = node[1], node[2]
    if isinstance(u, int) and isinstance(w, int):
        if w == last:
            return (lambda env, args: _row(env, (g, args[u], 0))), None
        if u == last:
            return (lambda env, args: _row(env, (g, args[w], 1))), None
        return (lambda env, args: env.groups[g].get((args[u], args[w]), _ZERO)), None
    if isinstance(u, int):  # e_i . w needs no product of coefficients
        wv = _value(w, last)
        if u == last:
            return None, lambda env, args: (
                (y, _row(env, (g, j, 1))) for j, y in wv(env, args).items())

        def left(env, args):
            groups, i = env.groups[g], args[u]
            return ((y, groups.get((i, j))) for j, y in wv(env, args).items())

        return None, left
    uv = _value(u, last)
    if isinstance(w, int):
        if w == last:
            return None, lambda env, args: (
                (x, _row(env, (g, i, 0))) for i, x in uv(env, args).items())

        def right(env, args):
            groups, j = env.groups[g], args[w]
            return ((x, groups.get((i, j))) for i, x in uv(env, args).items())

        return None, right
    wv = _value(w, last)

    def product(env, args):
        groups, right = env.groups[g], wv(env, args).items()
        return ((x * y, grp) for i, x in uv(env, args).items()
                for j, y in right if (grp := groups.get((i, j))))

    return None, product


def _value(node, last=None):
    """A compiled node as a function fn(env, args) of its sparse vector."""
    read, pairs = _compile(node, last)
    return read or (lambda env, args: _add({}, pairs(env, args)))


def _defect(env, law, last=None):
    """The sum of a law's signed terms as a function of the argument tuple:
    a fresh sparse vector, unreduced, that may hold zero entries, every term
    added into it.  With ``last`` the argument tuple is all arguments but
    that one, which ``env`` packs."""
    terms = [(sign, *_compile(node, last)) for sign, node in law]

    def defect(args):
        acc = {}
        for sign, read, pairs in terms:
            if read is None:
                _add(acc, pairs(env, args), sign)
            elif sign > 0:
                for k, y in read(env, args).items():
                    acc[k] = acc[k] + y if k in acc else y
            else:
                for k, y in read(env, args).items():
                    acc[k] = acc[k] - y if k in acc else -y
        return acc

    return defect


def _failing(slots, d):
    """(s, {m: y}) for each slot s of the packed defect d where some entry m
    is nonzero in the field, lowest first, y the value of slot s at entry m,
    a residue over GF(p).  Only an entry that fails
    :meth:`~algact.linalg.Slots.zero` is read, and slot by slot, as asked."""
    bad = {m: x for m, x in d.items() if x and not slots.zero(x)}
    if not bad:
        return
    w = slots.width
    if slots.p:  # each slot a residue: read by a shift and a mask
        bad, mask = {m: slots.mod(x) for m, x in bad.items()}, (1 << w) - 1
        read = lambda x, s: x >> w * s & mask
    else:
        read = slots.at
    lowest = (min((x & -x).bit_length() for x in bad.values()) - 1) // w  # its lowest set bit
    for s in range(lowest, slots.count):
        if out := {m: y for m, x in bad.items() if (y := read(x, s))}:
            yield s, out


def failures(A, laws, family=None, B=None):
    """The one entry point of evaluation: a function that yields, for one
    law of ``laws``, (t, args, defect) wherever operator set t of ``family``
    fails at a basis tuple args, the tuples in lexicographic order and the
    sets in order at each, the defect a dense vector of ``A``.

    ``family`` lists operator sets, each a map from each slot the laws read
    to an n x n matrix on A, or with B (a family of one) to one such matrix
    per basis element of B; the shapes are checked and the operators turned
    into sparse columns once, here.  No family is a family of one empty set.

    Without B the T sets are packed into one (:func:`_packed`) and so is the
    last argument: each law is evaluated once at every prefix of the other
    arguments, in lexicographic order, and that one evaluation holds the
    defect of set t at (prefix, e_k) in slot k T + t of each entry.  The
    failing slots are decoded lowest first (:func:`_failing`), so in the
    order of (args, t), and only as far as they are read: the caller that
    takes the first failure evaluates the prefixes up to the first failing
    one.  Over Q the operators and defects are Fractions but the evaluation
    runs on integers.  With B the tuples are (x, a, b) for a law on two
    arguments of A, read at each acting element x, and (x, y, a) otherwise,
    every one of them evaluated.
    """
    f, n = A.field, A.dim
    family = ({},) if family is None else family
    env = _env(A, laws, family, B)
    if B is not None:
        at_x = [_Env(A, {s: cols[x] for s, cols in env.ops.items()}) for x in range(B.dim)]

    def packed(law):
        ons, arity, count = _ons(law), _arity(law), len(family)
        defect = _defect(env, law, arity - 1)
        for prefix in iproduct(range(n), repeat=arity - 1):
            for s, d in _failing(env.slots, defect(prefix)):
                k, t = divmod(s, count)
                if env.scale:  # slot t is lambda_t^on mu^(arity - 1) times the defect
                    den = env.scale[0][t] ** ons * env.scale[1] ** (arity - 1)
                    d = {m: Fraction(y, den) for m, y in d.items()}
                yield t, prefix + (k,), [d.get(m, f.zero) for m in range(n)]

    def acting(law):
        if _ons(law):
            by_x = [_defect(e, law) for e in at_x]
            tuples = iproduct(range(B.dim), range(n), range(n))
            defect = lambda args: by_x[args[0]](args[1:])
        else:
            tuples, defect = iproduct(range(B.dim), range(B.dim), range(n)), _defect(env, law)
        for args in tuples:
            if (d := defect(args)) and (d := linalg.reduced(d, env.p)):
                yield 0, args, [d.get(k, f.zero) for k in range(n)]

    return packed if B is None else acting


def _hole(node, hole):
    """(the ``ON`` node of a term, the term with that node replaced by the
    argument index ``hole``)."""
    if isinstance(node, int):
        return None, node
    if node[0] == ON:
        return node, hole
    (on_u, u), (on_w, w) = _hole(node[1], hole), _hole(node[2], hole)
    return on_u or on_w, (node[0], u, w)


def law_rows(A, law, blocks):
    """The linear forms of ``law`` over unknown operator entries, one list
    per basis tuple, the tuples in lexicographic order and each list built
    only when it is asked for.

    The operator in slot s is the unknown n x n matrix stored row-major from
    index ``blocks[s] * n * n``.  A list holds one form per output
    coordinate, those with no term left out; its ints are left unreduced
    over GF(p), for the one reduction that reads them
    (:func:`algact.linalg.nullspace_basis`), so a form can be zero in the
    field.  Over Q they are read on integers: every form of one basis tuple
    is then mu^(arity - 1) times the true one (:func:`_over_ints`), which
    spans the same nullspace.
    """
    n, env, arity = A.dim, _Env(A, {}), _arity(law)
    _over_ints(env)
    terms = []
    for sign, node in law:
        (_, slot, v), context = _hole(node, arity)
        terms.append((sign, blocks[slot] * n * n, _value(v), _value(context)))
    for args in iproduct(range(n), repeat=arity):
        forms = [{} for _ in range(n)]
        for sign, off, v, context in terms:
            # the term is sum_{k,j} M[k][j] v_j C(e_k)
            images = [context(env, args + (k,)).items() for k in range(n)]
            for j, a in v(env, args).items():
                a = a if sign > 0 else -a
                for k, image in enumerate(images):
                    idx = off + k * n + j
                    for m, c in image:
                        forms[m][idx] = forms[m][idx] + a * c if idx in forms[m] else a * c
        yield [form for form in forms if form]
