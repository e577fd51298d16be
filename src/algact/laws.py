"""The laws of operator spaces, actions and algebras, each written once.

A *law* is a tuple of signed terms ``(sign, node)`` whose sum must vanish.
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
condition L4 is ``r_[x,y](a) - r_y(r_x(a)) + r_x(r_y(a))``.

Every law is multilinear in its arguments, so imposing it on basis
arguments is equivalent to imposing it everywhere.  The one format is read
two ways:

* evaluation computes a law on basis arguments, with known operators, on
  sparse vectors {index: value}.  Its one entry point, :func:`failures`, is
  built once for an algebra, its laws and a family of operator sets (one
  set, or none, being a family of one): it checks the operator shapes and
  turns the matrices into sparse columns once, then gives each law's
  failing (set, basis tuple) pairs in lexicographic order, a defect made a
  dense list only when it is reported, evaluated without an acting algebra
  only where some term of some set can be nonzero (:func:`_reach`).  It
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
is left unreduced until a defect or a form is complete; that is reduced
mod p once (:func:`algact.linalg.reduced`), so whatever leaves the module
is a canonical residue.  Over Q the acting path runs on Fractions, and the
rest on integers: the constants of both operations cleared of
denominators by one common mu, and each operator set by its own lambda_t.
Every term of a law without an acting algebra reads each argument once,
so it holds exactly ``arity - 1`` product or bracket nodes and as many
``ON`` nodes as every other term (0 or 1); every term, so the defect, of
set t scales by lambda_t^on mu^(arity - 1), and a defect vanishes exactly
when its scaled form does; a failing one is divided back.

A law with one ``ON`` node per term is linear in its operator set, so
without an acting algebra a family of T sets is evaluated as one
(:func:`_packed`): each operator entry is one int whose bits
[w t, w (t + 1)) hold set t's entry, and each packed defect holds set t's
defect in those bits.  The slot width
w is read off the laws: a term's entries are at most n^a C^b M^m for C the
largest constant, M the largest operator entry and exponents counted on
its tree (:func:`_size`, at most n^(2 arity - 1) C^(arity - 1) M), so a
slot lies within the sum of those over the terms, and w is that bound's
bit length plus a sign bit.  A packed defect is unpacked only where it is
nonzero, into balanced slots (they can be negative, :func:`_unpacked`),
and each slot is reduced mod p on its own.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, product as iproduct
from operator import itemgetter

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


# -- action conditions -------------------------------------------------------------
#
# For x, y in B and a, b in X: l_x(a) = x*a, r_x(a) = a*x and k_x(a) = {x, a}.
# The conditions on two kernel elements a, b (indices 0, 1) are laws of the
# weak actor, read at each acting element x.  The others take x, y, a as the
# indices 0, 1, 2.  A homomorphism into the weak actor comes from an action
# exactly when its operators satisfy the acting law: L6 for Leibniz
# algebras, PERMUTABLE for associative and Poisson algebras.

# l_x (l_y + r_y) = 0
L6 = ((1, _at("l", 0, _at("l", 1, 2))), (1, _at("l", 0, _at("r", 1, 2))))
# l_x r_y = r_y l_x
PERMUTABLE = ((1, _at("l", 0, _at("r", 1, 2))), (-1, _at("r", 1, _at("l", 0, 2))))

LEIBNIZ = (
    ("L1", derivation("r", BRACKET)),
    ("L2", antiderivation("l", BRACKET)),
    ("L3", ((1, _b(0, _on("r", 1))), (1, _b(0, _on("l", 1))))),  # [a, r_x(b)] + [a, l_x(b)] = 0
    # r_[x,y] = r_y r_x - r_x r_y
    ("L4", ((1, _at("r", _b(0, 1), 2)),
            (-1, _at("r", 1, _at("r", 0, 2))),
            (1, _at("r", 0, _at("r", 1, 2))))),
    # l_[x,y] = r_y l_x - l_x r_y
    ("L5", ((1, _at("l", _b(0, 1), 2)),
            (-1, _at("r", 1, _at("l", 0, 2))),
            (1, _at("l", 0, _at("r", 1, 2))))),
    ("L6", L6),
)

_ASSOCIATIVE = (
    left_multiplier("l"),  # x*(ab) = (x*a)b
    right_multiplier("r"),  # (ab)*x = a(b*x)
    mixed("l", "r"),  # a(x*b) = (a*x)b
    ((1, _at("r", 1, _at("l", 0, 2))), (-1, _at("l", 0, _at("r", 1, 2)))),  # (x*a)*y = x*(a*y)
    ((1, _at("l", _p(0, 1), 2)), (-1, _at("l", 0, _at("l", 1, 2)))),  # (xy)*a = x*(y*a)
    ((1, _at("r", _p(0, 1), 2)), (-1, _at("r", 1, _at("r", 0, 2)))),  # a*(xy) = (a*x)*y
)

ASSOCIATIVE = tuple(zip(("A1", "A2", "A3", "A4", "A5", "A6"), _ASSOCIATIVE))

POISSON = tuple(zip(("P1.1", "P1.2", "P1.3", "P1.4", "P1.5", "P1.6"), _ASSOCIATIVE)) + (
    ("P2.1", derivation("k", BRACKET)),
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
    ("P6", v1("l", "k")),
    ("P7", v2("r", "k")),
    ("P8", derivation("k", PRODUCT)),
)


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
    their ``count``, the slot ``width`` with its ``mask`` and ``bias``, and
    over Q the ``scale`` of each set's defects."""

    __slots__ = ("p", "n", "groups", "ops", "acting", "count", "width", "mask", "bias", "scale")

    def __init__(self, A, ops=None, acting=None):
        self.p, self.n, self.ops, self.acting, self.scale = A.field.char, A.dim, ops, acting, None
        self.groups = (A.ops[0].groups, A.ops[A.bracket_op].groups)


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
    set cleared by its own lambda_t, ``scale`` = (the lambdas, mu); slot t
    of an operator entry in bits [w t, w (t + 1)), w read off ``laws``.  A
    law without an ``ON`` node is read on a family of one."""
    mu, lams = _over_ints(env), [1] * len(sets)
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
    w = bound.bit_length() + 1
    env.ops = {s: {} for s in slots}
    for t, ops in enumerate(sets):
        for s, cols in ops.items():
            packed = env.ops[s]
            for j, col in cols.items():
                into = packed.setdefault(j, {})
                for i, x in col.items():
                    into[i] = into.get(i, 0) + (x << w * t)
    env.count, env.width, env.mask = len(sets), w, (1 << w) - 1
    env.bias = (1 << w - 1) * ((1 << w * len(sets)) - 1) // env.mask  # 2^(w - 1) in every slot
    return env


def _unpacked(x, env):
    """The slots of the packed int x, each a balanced int, set 0 first:
    with 2^(w - 1) added to every slot (``bias``), slot t is bits
    [w t, w (t + 1)) less 2^(w - 1)."""
    x, mask, half = x + env.bias, env.mask, 1 << env.width - 1
    return [(x >> k & mask) - half for k in range(0, env.width * env.count, env.width)]


def _lincomb(terms) -> dict:
    """sum c v over the pairs (c, v) of a scalar and a sparse vector or None,
    unreduced."""
    out = {}
    for c, v in terms:
        if v:
            for k, y in v.items():
                out[k] = out[k] + c * y if k in out else c * y
    return out


def _apply(cols, v) -> dict:
    """The matrix with sparse columns ``cols`` applied to the sparse v."""
    return _lincomb((x, cols.get(j)) for j, x in v.items())


@lru_cache(maxsize=None)
def _compile(node):
    """``node`` on basis arguments, compiled once for every algebra.

    A leaf compiles to its argument index, standing for a unit vector; any
    other node to a function fn(env, args) of an :class:`_Env` and the
    argument tuple that returns a sparse vector {index: value}, which the
    caller only reads.
    """
    if isinstance(node, int):
        return node
    tag = node[0]
    if tag == ON:
        s, u = node[1], _compile(node[2])
        if isinstance(u, int):
            return lambda env, args: env.ops[s].get(args[u], _ZERO)
        return lambda env, args: _apply(env.ops[s], u(env, args))
    if tag == AT:
        s, x, u = node[1], _compile(node[2]), _compile(node[3])
        if isinstance(x, int) and isinstance(u, int):
            return lambda env, args: env.ops[s][args[x]].get(args[u], _ZERO)
        if isinstance(x, int):
            return lambda env, args: _apply(env.ops[s][args[x]], u(env, args))
        if isinstance(u, int):  # sum_p x_p S_p(u)
            return lambda env, args: _lincomb(
                (c, env.ops[s][p].get(args[u])) for p, c in x(env.acting, args).items())
        return lambda env, args: _lincomb((c, _apply(env.ops[s][p], u(env, args)))
                                          for p, c in x(env.acting, args).items())
    g = 1 if tag == BRACKET else 0
    u, w = _compile(node[1]), _compile(node[2])
    if isinstance(u, int) and isinstance(w, int):
        return lambda env, args: env.groups[g].get((args[u], args[w]), _ZERO)
    if isinstance(u, int):  # e_i . w needs no product of coefficients
        return lambda env, args: _lincomb(
            (y, env.groups[g].get((args[u], j))) for j, y in w(env, args).items())
    if isinstance(w, int):
        return lambda env, args: _lincomb(
            (x, env.groups[g].get((i, args[w]))) for i, x in u(env, args).items())

    def product(env, args):
        groups, wv = env.groups[g], w(env, args)
        return _lincomb((x * y, grp) for i, x in u(env, args).items()
                        for j, y in wv.items() if (grp := groups.get((i, j))))

    return product


def _defect(env, law):
    """The sum of a law's signed terms as a function of the argument tuple:
    a fresh sparse vector, unreduced, that may hold zero entries."""
    terms = [(sign, _value(_compile(node))) for sign, node in law]

    def defect(args):
        acc = {}
        for sign, term in terms:
            for k, y in term(env, args).items():
                if k in acc:
                    acc[k] = acc[k] + y if sign > 0 else acc[k] - y
                else:
                    acc[k] = y if sign > 0 else -y
        return acc

    return defect


def _value(c):
    """A compiled node as a function fn(env, args); a leaf is a unit vector."""
    return (lambda env, args: {args[c]: 1}) if isinstance(c, int) else c


@lru_cache(maxsize=None)
def _reach(node):
    """Where ``node`` can be nonzero, compiled once like :func:`_compile`:
    (its argument indices in the order read, a function of an :class:`_Env`
    giving {assignment of basis indices to them: support}), read off the
    nonzero columns of the operators and the nonzero products alone.  The
    support, the coordinates that can be nonzero, is exact for an operator
    or a product applied to arguments and all of them further up."""
    if isinstance(node, int):
        return (node,), lambda env: {(a,): (a,) for a in range(env.n)}
    if node[0] == ON:
        s, (args, reach) = node[1], _reach(node[2])
        if isinstance(node[2], int):  # the nonzero columns
            return args, lambda env: {(k,): col for k, col in env.ops[s].items()}

        def on(env):  # some nonzero column of the operator in the support
            keys, every = env.ops[s].keys(), range(env.n)
            return {a: every for a, sup in reach(env).items() if not keys.isdisjoint(sup)}

        return args, on
    g = 1 if node[0] == BRACKET else 0
    (vu, ru), (vw, rw) = _reach(node[1]), _reach(node[2])
    if isinstance(node[1], int) and isinstance(node[2], int):  # the nonzero products
        return vu + vw, lambda env: env.groups[g]

    def product(env):  # some e_i e_j with i, j in the supports is nonzero
        if not (keys := env.groups[g].keys()):
            return {}
        right, every = rw(env).items(), range(env.n)
        return {a + b: every for a, su in ru(env).items() for b, sw in right
                if not keys.isdisjoint(iproduct(su, sw))}

    return vu + vw, product


def _candidates(env, law):
    """The basis tuples where some term of ``law``, which reads each argument
    once, can be nonzero, in lexicographic order."""
    out, whole = set(), env.n ** _arity(law)
    for _, node in law:
        args, reach = _reach(node)
        keys = reach(env) if list(args) == sorted(args) else map(  # in argument order
            itemgetter(*map(args.index, range(len(args)))), reach(env))
        out.update(keys)
        if len(out) == whole:  # every tuple: the other terms add none
            return iproduct(range(env.n), repeat=_arity(law))
    return sorted(out)


def failures(A, laws, family=None, B=None):
    """The one entry point of evaluation: a function that yields, for one
    law of ``laws``, (t, args, defect) wherever operator set t of ``family``
    fails at a basis tuple args, the tuples in lexicographic order and the
    sets in order at each, the defect a dense vector of ``A``.

    ``family`` lists operator sets, each a map from each slot the laws read
    to an n x n matrix on A, or with B (a family of one) to one such matrix
    per basis element of B; the shapes are checked and the operators turned
    into sparse columns once, here.  No family is a family of one empty set.
    Without B the sets are packed into one (:func:`_packed`) and each law
    evaluated once at each basis tuple where some term of some set can be
    nonzero (:func:`_candidates`), the defect being zero at every other one;
    a nonzero packed defect is unpacked and each slot reduced mod p.  Over Q
    the operators and defects are Fractions but the evaluation runs on
    integers.  With B the tuples are (x, a, b) for a law on two arguments of
    A, read at each acting element x, and (x, y, a) otherwise, every one of
    them evaluated.
    """
    f, n = A.field, A.dim
    env = _env(A, laws, ({},) if family is None else family, B)
    if B is not None:
        at_x = [_Env(A, {s: cols[x] for s, cols in env.ops.items()}) for x in range(B.dim)]

    def packed(law):
        defect, ons, arity = _defect(env, law), _ons(law), _arity(law)
        for args in _candidates(env, law):
            by_set = {}
            for k, x in defect(args).items():
                if x:  # some slot is nonzero: reduce the nonzero ones
                    values = _unpacked(x, env)
                    values = linalg.reduced(dict(compress(enumerate(values), values)), env.p)
                    for t, y in values.items():
                        by_set.setdefault(t, {})[k] = y
            for t, d in sorted(by_set.items()):
                if env.scale:  # slot t is lambda_t^on mu^(arity - 1) times the defect
                    den = env.scale[0][t] ** ons * env.scale[1] ** (arity - 1)
                    d = {k: Fraction(y, den) for k, y in d.items()}
                yield t, args, [d.get(k, f.zero) for k in range(n)]

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
    """The nonzero linear forms of ``law`` over unknown operator entries.

    The operator in slot s is the unknown n x n matrix stored row-major from
    index ``blocks[s] * n * n``.  Forms come per basis tuple in
    lexicographic order, one per output coordinate, each reduced once over
    GF(p).  Over Q they are read on integers: every form of one basis tuple
    is then mu^(arity - 1) times the true one (:func:`_over_ints`), which
    spans the same nullspace.
    """
    n, env, arity = A.dim, _Env(A, {}), _arity(law)
    _over_ints(env)
    terms = []
    for sign, node in law:
        (_, slot, v), context = _hole(node, arity)
        terms.append((sign, blocks[slot] * n * n, _value(_compile(v)), _value(_compile(context))))
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
        for form in forms:
            if form := linalg.reduced(form, env.p):
                yield form
