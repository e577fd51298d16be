"""The defining laws of operator spaces and actions, each written once.

A *law* is a tuple of signed terms whose sum must vanish.  A term is a
4-tuple ``(sign, shape, slot, op)``: ``slot`` names an operator (a component
``d``, ``D``, ``f``, ``F`` of an operator tuple, or one of the operators
``l``, ``r``, ``k`` of an action) and ``op`` is :data:`PRODUCT` (operation 0)
or :data:`BRACKET` (the algebra's ``bracket_op``).  On basis arguments
(x, y) of an algebra the shapes are

* ``M(x.y)``  the operator applied to the product,
* ``M(x).y``  the operator applied to x, times y,
* ``x.M(y)``  x times the operator applied to y,
* ``M(y).x``  the operator applied to y, times x.

The conditions of an action of B on X also take arguments (x, y, a) with
x, y in B and a in X; there a term is ``(sign, "S_{x.y}(a)", S, op)``, with
``op`` an operation of B, or ``(sign, "S_x(T_y(a))", S, T)`` and
``(sign, "S_y(T_x(a))", S, T)``.  A slot written ``"-l"`` stands for the
negated operator; the templates fold that sign into the term.

The identities of an algebra itself (associativity, commutativity,
anticommutativity, right Leibniz, Jacobi, Poisson compatibility) are laws
whose terms are ``(sign, node)``: a node is an argument index, or
``(op, node, node)`` for the product of two nodes under ``op``.

Every law is multilinear in its arguments, so imposing it on basis
arguments is equivalent to imposing it everywhere.  Four interpreters read
the laws:

* :func:`law_rows` yields the linear forms of a law over the unknown
  entries of an operator tuple, the rows of an operator space's system;
* :func:`law_defects` evaluates a law on a known operator tuple, the
  self-check after construction;
* :func:`condition_defect` evaluates an action condition on the operators
  of every acting basis element and returns the first witness;
* :func:`identity_defect` evaluates an identity of an algebra on its basis
  tuples and returns the first witness.
"""

from __future__ import annotations

from itertools import product as iproduct

from . import linalg

PRODUCT = "product"
BRACKET = "bracket"

M_XY = "M(x.y)"
MX_Y = "M(x).y"
X_MY = "x.M(y)"
MY_X = "M(y).x"
S_XY = "S_{x.y}(a)"
S_X_T_Y = "S_x(T_y(a))"
S_Y_T_X = "S_y(T_x(a))"

# for the product shapes: (argument the operator is applied to, the other
# argument, whether the operator's value is the left factor)
_PRODUCT_SHAPES = {MX_Y: (0, 1, True), X_MY: (1, 0, False), MY_X: (1, 0, True)}


def _op_index(A, op) -> int:
    return 0 if op == PRODUCT else A.bracket_op


def signed_slot(slot):
    """(sign, name) of a slot name, where "-l" stands for the negated l."""
    return (-1, slot[1:]) if slot.startswith("-") else (1, slot)


def _law(*terms):
    out = []
    for sign, shape, slot, op in terms:
        s, slot = signed_slot(slot)
        out.append((s * sign, shape, slot, op))
    return tuple(out)


# -- templates -------------------------------------------------------------------


def derivation(M, op):
    """M(x.y) = M(x).y + x.M(y)"""
    return _law((1, M_XY, M, op), (-1, MX_Y, M, op), (-1, X_MY, M, op))


def antiderivation(M, op):
    """M(x.y) = M(x).y - M(y).x"""
    return _law((1, M_XY, M, op), (-1, MX_Y, M, op), (1, MY_X, M, op))


def left_multiplier(f):
    """f(xy) = f(x)y"""
    return _law((1, M_XY, f, PRODUCT), (-1, MX_Y, f, PRODUCT))


def right_multiplier(F):
    """F(xy) = xF(y)"""
    return _law((1, M_XY, F, PRODUCT), (-1, X_MY, F, PRODUCT))


def mixed(f, F):
    """x f(y) = F(x) y"""
    return _law((1, X_MY, f, PRODUCT), (-1, MX_Y, F, PRODUCT))


def compatibility(d, D):
    """[x, d(y)] = [x, D(y)]"""
    return _law((1, X_MY, d, BRACKET), (-1, X_MY, D, BRACKET))


def v1(f, d):
    """f[x,y] = [f(x), y] - d(y) x"""
    return _law((1, M_XY, f, BRACKET), (-1, MX_Y, f, BRACKET), (1, MY_X, d, PRODUCT))


def v2(F, d):
    """F[x,y] = [F(x), y] - x d(y)"""
    return _law((1, M_XY, F, BRACKET), (-1, MX_Y, F, BRACKET), (1, X_MY, d, PRODUCT))


# -- action conditions -------------------------------------------------------------
#
# For x, y in B and a, b in X: l_x(a) = x*a, r_x(a) = a*x and k_x(a) = {x, a}.
# A homomorphism into the weak actor comes from an action exactly when its
# operators satisfy the acting law: L6 for Leibniz algebras, PERMUTABLE for
# associative and Poisson algebras.

L6 = _law((1, S_X_T_Y, "l", "l"), (1, S_X_T_Y, "l", "r"))  # l_x (l_y + r_y) = 0
PERMUTABLE = _law((1, S_X_T_Y, "l", "r"), (-1, S_Y_T_X, "r", "l"))  # l_x r_y = r_y l_x

LEIBNIZ = (
    ("L1", derivation("r", BRACKET)),
    ("L2", antiderivation("l", BRACKET)),
    ("L3", compatibility("r", "-l")),
    # r_[x,y] = r_y r_x - r_x r_y
    ("L4", _law((1, S_XY, "r", BRACKET), (-1, S_Y_T_X, "r", "r"), (1, S_X_T_Y, "r", "r"))),
    # l_[x,y] = r_y l_x - l_x r_y
    ("L5", _law((1, S_XY, "l", BRACKET), (-1, S_Y_T_X, "r", "l"), (1, S_X_T_Y, "l", "r"))),
    ("L6", L6),
)

_ASSOCIATIVE = (
    left_multiplier("l"),  # x*(ab) = (x*a)b
    right_multiplier("r"),  # (ab)*x = a(b*x)
    mixed("l", "r"),  # a(x*b) = (a*x)b
    _law((1, S_Y_T_X, "r", "l"), (-1, S_X_T_Y, "l", "r")),  # (x*a)*y = x*(a*y)
    _law((1, S_XY, "l", PRODUCT), (-1, S_X_T_Y, "l", "l")),  # (xy)*a = x*(y*a)
    _law((1, S_XY, "r", PRODUCT), (-1, S_Y_T_X, "r", "r")),  # a*(xy) = (a*x)*y
)

ASSOCIATIVE = tuple(zip(("A1", "A2", "A3", "A4", "A5", "A6"), _ASSOCIATIVE))

POISSON = tuple(zip(("P1.1", "P1.2", "P1.3", "P1.4", "P1.5", "P1.6"), _ASSOCIATIVE)) + (
    ("P2.1", derivation("k", BRACKET)),
    # k_[x,y] = k_x k_y - k_y k_x
    ("P2.2", _law((1, S_XY, "k", BRACKET), (-1, S_X_T_Y, "k", "k"), (1, S_Y_T_X, "k", "k"))),
    # k_xy = l_x k_y + r_y k_x
    ("P3", _law((1, S_XY, "k", PRODUCT), (-1, S_X_T_Y, "l", "k"), (-1, S_Y_T_X, "r", "k"))),
    # l_[x,y] = l_x k_y - k_y l_x
    ("P4", _law((1, S_XY, "l", BRACKET), (-1, S_X_T_Y, "l", "k"), (1, S_Y_T_X, "k", "l"))),
    # r_[x,y] = r_x k_y - k_y r_x
    ("P5", _law((1, S_XY, "r", BRACKET), (-1, S_X_T_Y, "r", "k"), (1, S_Y_T_X, "k", "r"))),
    ("P6", v1("l", "k")),
    ("P7", v2("r", "k")),
    ("P8", derivation("k", PRODUCT)),
)


# -- identities of an algebra ------------------------------------------------------


def _p(a, b):
    return (PRODUCT, a, b)


def _b(a, b):
    return (BRACKET, a, b)


# arguments x, y, z are the indices 0, 1, 2
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


# -- interpreters ------------------------------------------------------------------


def law_rows(A, law, blocks):
    """The nonzero linear forms of ``law`` over unknown operator entries.

    The operator in slot s is the unknown n x n matrix stored row-major from
    index ``blocks[s] * n * n``.  Forms come per basis pair (i, j) in
    lexicographic order, one per output coordinate.
    """
    f, n = A.field, A.dim
    terms = [
        (sign, shape, blocks[slot] * n * n, A.ops[_op_index(A, op)].value)
        for sign, shape, slot, op in law
    ]
    for args in iproduct(range(n), repeat=2):
        forms = [{} for _ in range(n)]
        for sign, shape, off, value in terms:
            if shape == M_XY:  # M(x.y)_m = sum_k M[m][k] (x.y)_k
                cells = [(m, off + m * n + k, c) for k, c in enumerate(value(*args)) for m in range(n)]
            else:  # M(u).w = sum_k M[k][u] (e_k.w), and w.M(u) alike
                u, w, left = _PRODUCT_SHAPES[shape]
                u, w = args[u], args[w]
                cells = [
                    (m, off + k * n + u, c)
                    for k in range(n)
                    for m, c in enumerate(value(k, w) if left else value(w, k))
                ]
            for m, idx, c in cells:
                if not f.is_zero(c):
                    c = c if sign > 0 else f.neg(c)
                    forms[m][idx] = f.add(forms[m][idx], c) if idx in forms[m] else c
        for form in forms:
            form = {idx: c for idx, c in form.items() if not f.is_zero(c)}
            if form:
                yield form


def first_defect(field, tuples, defect_fn):
    """The first (tuple, defect) with a nonzero defect, or None."""
    for idx in tuples:
        d = defect_fn(*idx)
        if not linalg.vec_is_zero(field, d):
            return idx, d
    return None


def _signed_sum(f, terms):
    """The defect function: sum of the signed terms (sign, fn(*args))."""
    (first_sign, first), rest = terms[0], terms[1:]

    def defect(*args):
        acc = first(*args)
        if first_sign < 0:
            acc = linalg.vec_neg(f, acc)
        for sign, term in rest:
            v = term(*args)
            acc = linalg.vec_add(f, acc, v) if sign > 0 else linalg.vec_sub(f, acc, v)
        return acc

    return defect


def _pair_term(A, shape, M, op):
    f = A.field
    if shape == M_XY:
        return lambda i, j: linalg.mat_vec(f, M, A.mul_basis(op, i, j))
    u, w, left = _PRODUCT_SHAPES[shape]

    def term(*args):
        Mu, ew = linalg.mat_col(M, args[u]), A.unit(args[w])
        return A.multiply(op, Mu, ew) if left else A.multiply(op, ew, Mu)

    return term


def _pair_defect(A, law, operators):
    terms = [
        (sign, _pair_term(A, shape, operators[slot], _op_index(A, op)))
        for sign, shape, slot, op in law
    ]
    return _signed_sum(A.field, terms)


def law_defects(A, law, operators):
    """Yield ((i, j), defect) for every basis pair where ``law`` fails on the
    operator matrices ``operators`` (a map from slot to matrix)."""
    defect = _pair_defect(A, law, operators)
    for args in iproduct(range(A.dim), repeat=2):
        d = defect(*args)
        if not linalg.vec_is_zero(A.field, d):
            yield args, d


def _triple_term(B, X, shape, S, T, operators):
    f, Ss = X.field, operators[S]
    if shape == S_XY:  # column a of sum_p (x.y)_p S_p
        op = _op_index(B, T)

        def term(x, y, a):
            out = [f.zero] * X.dim
            for c, M in zip(B.mul_basis(op, x, y), Ss):
                if not f.is_zero(c):
                    out = linalg.vec_add(f, out, [f.mul(c, row[a]) for row in M])
            return out

        return term
    Ts = operators[T]
    if shape == S_X_T_Y:
        return lambda x, y, a: linalg.mat_vec(f, Ss[x], linalg.mat_col(Ts[y], a))
    return lambda x, y, a: linalg.mat_vec(f, Ss[y], linalg.mat_col(Ts[x], a))


def condition_defect(B, X, law, operators):
    """First failing witness of an action condition and its defect, or None.

    ``operators`` maps each of l, r, k to its matrices on X, one per basis
    element of B.  Witnesses are (x, a, b) for laws in the shapes of two
    arguments of X, and (x, y, a) otherwise, taken in lexicographic order.
    """
    f, nb, nx = X.field, B.dim, X.dim
    if law[0][1] in (M_XY, MX_Y, X_MY, MY_X):
        by_x = [
            _pair_defect(X, law, {s: ops[x] for s, ops in operators.items()})
            for x in range(nb)
        ]
        return first_defect(f, iproduct(range(nb), range(nx), range(nx)),
                            lambda x, a, b: by_x[x](a, b))
    terms = [(sign, _triple_term(B, X, shape, S, T, operators)) for sign, shape, S, T in law]
    return first_defect(f, iproduct(range(nb), range(nb), range(nx)), _signed_sum(f, terms))


def _node_term(A, node):
    """The value of an identity's node as a function of basis arguments."""
    if isinstance(node, int):
        return lambda *args: A.unit(args[node])
    op, u, w = node
    op = _op_index(A, op)
    if isinstance(u, int) and isinstance(w, int):
        return lambda *args: A.mul_basis(op, args[u], args[w])
    left, right = _node_term(A, u), _node_term(A, w)
    return lambda *args: A.multiply(op, left(*args), right(*args))


def _arity(node) -> int:
    return node + 1 if isinstance(node, int) else max(_arity(node[1]), _arity(node[2]))


def identity_defect(A, law):
    """First failing basis tuple of an identity of ``A`` and its defect, or
    None; tuples of the law's arity are taken in lexicographic order."""
    terms = [(sign, _node_term(A, node)) for sign, node in law]
    arity = max(_arity(node) for _, node in law)
    return first_defect(A.field, iproduct(range(A.dim), repeat=arity), _signed_sum(A.field, terms))
