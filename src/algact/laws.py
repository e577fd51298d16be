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
  built once for an algebra, its laws and their operators: it checks the
  operator shapes and turns the matrices into sparse columns once, then
  gives each law's failing basis tuples in lexicographic order, a defect
  made a dense list only when it is reported.  It serves the self-check of
  an operator space after construction, the conditions of an action and
  its acting law, and the identities of an algebra.
* the linear reading, :func:`law_rows`, takes the operators as unknown
  matrices.  Each term holds one ``ON`` node M applied to a node v, inside
  a context C that is linear in M's value, so the term is
  ``sum_{k,j} M[k][j] v_j C(e_k)``: linear forms over the entries of M whose
  coefficients v and C(e_k) are themselves evaluations.
"""

from __future__ import annotations

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
def _on_pairs(law) -> bool:
    """Whether ``law`` is a law on two kernel arguments, read at each acting
    element: it applies operators by ``ON``, not ``AT``."""
    return any(n[0] == ON for _, node in law for n in _subnodes(node) if not isinstance(n, int))


@lru_cache(maxsize=None)
def _slots(law) -> frozenset:
    """The operator slots that ``law`` reads."""
    return frozenset(n[1] for _, node in law for n in _subnodes(node)
                     if not isinstance(n, int) and n[0] in (ON, AT))


_ZERO = {}  # the zero vector, shared and never written to


class _Env:
    """What a compiled node reads: the field and the nonzero structure
    constants of the product and bracket of the algebra it is evaluated in,
    the operators as sparse columns {col: {row: c}} (a map from slot to the
    columns of its matrix for ``ON`` nodes, and to those of each of its
    matrices over the basis of B for ``AT`` nodes) and the env of B."""

    __slots__ = ("f", "groups", "ops", "acting")

    def __init__(self, A, ops=None, acting=None):
        self.f, self.ops, self.acting = A.field, ops, acting
        self.groups = (A.ops[0].groups, A.ops[A.bracket_op].groups)


def _env(A, laws, operators, B=None) -> _Env:
    """The env of ``laws`` on ``operators``, a map from slot to an n x n
    matrix, or with B to one such matrix per basis element of B, each turned
    into sparse columns once.  A slot the laws read that is missing or of
    another shape raises ShapeMismatch."""
    n, ops = A.dim, {}
    for s in sorted(set().union(*map(_slots, laws))):
        if s not in operators:
            raise ShapeMismatch(f"no operator {s} is given")
        mats, count = (operators[s], B.dim) if B is not None else ([operators[s]], 1)
        if len(mats) != count or any(len(M) != n or any(len(row) != n for row in M) for M in mats):
            raise ShapeMismatch(f"operator {s} is not {count} {n}x{n} matrices")
        cols = [linalg.mat_sparse(zip(*M)) for M in mats]
        ops[s] = cols if B is not None else cols[0]
    return _Env(A, ops, None if B is None else _Env(B))


def _lincomb(f, terms) -> dict:
    """sum c v over the pairs (c, v) of a scalar and a sparse vector or None."""
    mul, add, out = f.mul, f.add, {}
    for c, v in terms:
        if v:
            for k, y in v.items():
                y = mul(c, y)
                out[k] = add(out[k], y) if k in out else y
    return out


def _apply(f, cols, v) -> dict:
    """The matrix with sparse columns ``cols`` applied to the sparse v."""
    return _lincomb(f, ((x, cols.get(j)) for j, x in v.items()))


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
        return lambda env, args: _apply(env.f, env.ops[s], u(env, args))
    if tag == AT:
        s, x, u = node[1], _compile(node[2]), _compile(node[3])
        if isinstance(x, int) and isinstance(u, int):
            return lambda env, args: env.ops[s][args[x]].get(args[u], _ZERO)
        if isinstance(x, int):
            return lambda env, args: _apply(env.f, env.ops[s][args[x]], u(env, args))
        if isinstance(u, int):  # sum_p x_p S_p(u)
            return lambda env, args: _lincomb(
                env.f, ((c, env.ops[s][p].get(args[u])) for p, c in x(env.acting, args).items()))
        return lambda env, args: _lincomb(env.f, ((c, _apply(env.f, env.ops[s][p], u(env, args)))
                                                  for p, c in x(env.acting, args).items()))
    g = 1 if tag == BRACKET else 0
    u, w = _compile(node[1]), _compile(node[2])
    if isinstance(u, int) and isinstance(w, int):
        return lambda env, args: env.groups[g].get((args[u], args[w]), _ZERO)
    if isinstance(u, int):  # e_i . w needs no product of coefficients
        return lambda env, args: _lincomb(
            env.f, ((y, env.groups[g].get((args[u], j))) for j, y in w(env, args).items()))
    if isinstance(w, int):
        return lambda env, args: _lincomb(
            env.f, ((x, env.groups[g].get((i, args[w]))) for i, x in u(env, args).items()))

    def product(env, args):
        f, groups, wv = env.f, env.groups[g], w(env, args)
        return _lincomb(f, ((f.mul(x, y), grp) for i, x in u(env, args).items()
                            for j, y in wv.items() if (grp := groups.get((i, j)))))

    return product


def _defect(env, law):
    """The sum of a law's signed terms as a function of the argument tuple,
    a fresh sparse vector."""
    add, sub, neg = env.f.add, env.f.sub, env.f.neg
    terms = [(sign, _value(_compile(node))) for sign, node in law]

    def defect(args):
        acc = {}
        for sign, term in terms:
            for k, y in term(env, args).items():
                if k in acc:
                    acc[k] = add(acc[k], y) if sign > 0 else sub(acc[k], y)
                else:
                    acc[k] = y if sign > 0 else neg(y)
        return acc

    return defect


def _value(c):
    """A compiled node as a function fn(env, args); a leaf is a unit vector."""
    return (lambda env, args: {args[c]: env.f.one}) if isinstance(c, int) else c


def failures(A, laws, operators=None, B=None):
    """The one entry point of evaluation: a function that yields, for one
    law of ``laws``, (args, defect) at each basis tuple where it fails, the
    tuples in lexicographic order and the defect a dense vector of ``A``.

    ``operators`` maps each slot the laws read to an n x n matrix on A, or
    with B to one such matrix per basis element of B; the shapes are checked
    and the operators turned into sparse columns once, here.  Without B the
    tuples are the law's basis arguments in A.  With B they are (x, a, b) for
    a law on two arguments of A, read at each acting element x, and (x, y, a)
    otherwise.
    """
    f, n = A.field, A.dim
    env = _env(A, laws, operators or {}, B)
    if B is not None:
        at_x = [_Env(A, {s: cols[x] for s, cols in env.ops.items()}) for x in range(B.dim)]

    def fails(law):
        if B is None:
            tuples, defect = iproduct(range(n), repeat=_arity(law)), _defect(env, law)
        elif _on_pairs(law):
            by_x = [_defect(e, law) for e in at_x]
            tuples = iproduct(range(B.dim), range(n), range(n))
            defect = lambda args: by_x[args[0]](args[1:])
        else:
            tuples, defect = iproduct(range(B.dim), range(B.dim), range(n)), _defect(env, law)
        for args in tuples:
            d = defect(args)
            if any(d.values()):  # scalars are canonical
                yield args, [d.get(k, f.zero) for k in range(n)]

    return fails


def _hole(node, hole):
    """(the ``ON`` node of a term, the term with that node replaced by the
    argument index ``hole``)."""
    if isinstance(node, int):
        return None, node
    if node[0] == ON:
        return node, hole
    (on_u, u), (on_w, w) = _hole(node[1], hole), _hole(node[2], hole)
    return on_u or on_w, (node[0], u, w)


def _times(f, a, b):
    """a * b, where None stands for 1."""
    if a is None:
        return f.one if b is None else b
    return a if b is None else f.mul(a, b)


def _support(env, c, args):
    """The nonzero (index, coefficient) pairs of a compiled node's value; a
    leaf is a unit vector, whose coefficient 1 is given as None."""
    if isinstance(c, int):
        return ((args[c], None),)
    return [(i, x) for i, x in c(env, args).items() if x]  # scalars are canonical


def law_rows(A, law, blocks):
    """The nonzero linear forms of ``law`` over unknown operator entries.

    The operator in slot s is the unknown n x n matrix stored row-major from
    index ``blocks[s] * n * n``.  Forms come per basis tuple in
    lexicographic order, one per output coordinate.
    """
    f, n, env = A.field, A.dim, _Env(A)
    arity = _arity(law)
    terms = []
    for sign, node in law:
        (_, slot, v), context = _hole(node, arity)
        terms.append((sign, blocks[slot] * n * n, _compile(v), _compile(context)))
    for args in iproduct(range(n), repeat=arity):
        forms = [{} for _ in range(n)]
        for sign, off, v, context in terms:
            # the term is sum_{k,j} M[k][j] v_j C(e_k)
            images = [_support(env, context, args + (k,)) for k in range(n)]
            for j, a in _support(env, v, args):
                for k, image in enumerate(images):
                    idx = off + k * n + j
                    for m, c in image:
                        c = _times(f, a, c)
                        c = c if sign > 0 else f.neg(c)
                        forms[m][idx] = f.add(forms[m][idx], c) if idx in forms[m] else c
        for form in forms:
            form = {idx: c for idx, c in form.items() if not f.is_zero(c)}
            if form:
                yield form
