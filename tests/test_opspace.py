import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import chain, product as iproduct
from math import isqrt

import pytest

from algact import actions, laws, linalg, opspace
from algact.algebra import _IDENTITIES, Algebra, check_identity
from algact.catalog import builtin, catalog_algebras
from algact.errors import (
    ClosureError,
    InputError,
    NotAssociative,
    NotCommutative,
    NotCommutativePoisson,
    NotPoisson,
    OpArityMismatch,
    ShapeMismatch,
)
from algact.fields import GF, Q
from algact.opspace import (
    anti_derivations,
    biderivations,
    bimultipliers,
    check_bim_commutation,
    comm_poisson_usga,
    defining_defects,
    derivations,
    inner_embedding,
    inner_tuple,
    multipliers,
    poisson_usga,
    SPACE_KINDS,
    space_of_kind,
)

import oracle


def F(x):
    return Fraction(x)


# -- dimensions against hand computations ---------------------------------------


def test_derivations_abelian_is_all_of_end():
    assert derivations(builtin("abelian(1)")).dim == 1
    assert derivations(builtin("abelian(2)")).dim == 4


def test_derivation_dims():
    assert derivations(builtin("leibniz_2dim_nonlie")).dim == 2
    assert derivations(builtin("lie_2dim_nonabelian")).dim == 2
    assert derivations(builtin("sl2")).dim == 3
    assert derivations(builtin("heisenberg")).dim == 6


def test_antiderivation_dims():
    assert anti_derivations(builtin("abelian(2)")).dim == 4
    assert anti_derivations(builtin("leibniz_2dim_nonlie")).dim == 2


def test_lie_derivations_equal_antiderivations():
    for name in ("sl2", "heisenberg", "lie_2dim_nonabelian", "abelian(2)"):
        A = builtin(name)
        d = derivations(A)
        ad = anti_derivations(A)
        assert d.basis == ad.basis, name


def test_biderivations_of_line_is_end_squared():
    assert biderivations(builtin("abelian(1)")).dim == 2


def test_biderivations_dims():
    assert biderivations(builtin("abelian(2)")).dim == 8
    assert biderivations(builtin("leibniz_2dim_nonlie")).dim == 3
    # trivial right center forces the diagonal
    assert biderivations(builtin("sl2")).dim == derivations(builtin("sl2")).dim


def test_bimultiplier_dims():
    zero1 = Algebra.from_entries(Q, 1, [{}])
    assert bimultipliers(zero1).dim == 2
    assert bimultipliers(builtin("assoc_unital_1dim")).dim == 1
    zero2 = Algebra.from_entries(Q, 2, [{}])
    assert bimultipliers(zero2).dim == 8


def test_multiplier_dims():
    zero2 = Algebra.from_entries(Q, 2, [{}])
    assert multipliers(zero2).dim == 4
    assert multipliers(builtin("assoc_unital_1dim")).dim == 1
    assert multipliers(builtin("assoc_trunc_poly")).dim == 2


def test_usga_dims():
    assert poisson_usga(builtin("poisson_abelian(1)")).dim == 3
    assert poisson_usga(builtin("poisson_abelian(2)")).dim == 12
    assert comm_poisson_usga(builtin("poisson_abelian(2)")).dim == 8
    assert comm_poisson_usga(builtin("poisson_abelian(1)")).dim == 2
    assert comm_poisson_usga(builtin("cpoisson_solv2")).dim == 3


def test_zero_dimensional_base():
    V = Algebra.from_entries(Q, 0, [{}, {}])
    for kind in ("derivations", "biderivations", "bimultipliers", "usga-poisson"):
        space = space_of_kind(V, kind)
        assert space.dim == 0
        assert space.as_algebra().dim == 0
        assert all(op.groups == {} for op in space.as_algebra().ops)


# -- preconditions ----------------------------------------------------------------


def test_bimultipliers_require_associative():
    nonassoc = Algebra.from_entries(Q, 2, [{(0, 0, 1): 1, (1, 0, 0): 1}])
    assert not check_identity(nonassoc, "associative").holds
    with pytest.raises(NotAssociative):
        bimultipliers(nonassoc)


def test_multipliers_require_commutative():
    with pytest.raises(NotCommutative):
        multipliers(builtin("assoc_triangular"))


def test_poisson_usga_requires_poisson():
    bad = Algebra.from_entries(Q, 1, [{}, {(0, 0, 0): 1}])  # nonzero [x,x]
    with pytest.raises(NotPoisson):
        poisson_usga(bad)


def test_antiderivations_have_no_algebra():
    space = anti_derivations(builtin("abelian(1)"))
    with pytest.raises(OpArityMismatch):
        space.as_algebra()


def test_an_unknown_kind_or_one_without_inner_elements_is_an_input_error():
    A = builtin("abelian(1)")
    with pytest.raises(InputError, match="unknown operator space kind"):
        space_of_kind(A, "nope")
    with pytest.raises(InputError, match="no inner elements"):
        inner_tuple(A, "antiderivations", 0)


# -- closure and self-checks -------------------------------------------------------


ALL_BRACKET_ALGEBRAS = (
    "abelian(1)",
    "abelian(2)",
    "leibniz_2dim_nonlie",
    "lie_2dim_nonabelian",
    "sl2",
    "heisenberg",
)


@pytest.mark.parametrize("name", ALL_BRACKET_ALGEBRAS)
def test_derivations_form_lie_algebra(name):
    alg = derivations(builtin(name)).as_algebra()
    assert check_identity(alg, "lie").holds


@pytest.mark.parametrize("name", ALL_BRACKET_ALGEBRAS)
def test_biderivations_form_leibniz_algebra(name):
    alg = biderivations(builtin(name)).as_algebra()
    assert check_identity(alg, "leibniz_right").holds


@pytest.mark.parametrize(
    "name", ("assoc_unital_1dim", "assoc_trunc_poly", "assoc_triangular")
)
def test_bimultipliers_form_associative_algebra(name):
    alg = bimultipliers(builtin(name)).as_algebra()
    assert check_identity(alg, "associative").holds


@pytest.mark.parametrize(
    "name",
    (
        "poisson_abelian(1)",
        "poisson_abelian(2)",
        "poisson_triangular",
        "poisson_trunc_poly",
        "cpoisson_solv2",
    ),
)
def test_usga_closes_and_selfchecks(name):
    # construction itself re-verifies defining identities and closure
    V = builtin(name)
    space = poisson_usga(V)
    assert next(defining_defects("usga-poisson", V, space.basis), None) is None


def test_basis_tuples_satisfy_identities_explicitly():
    A = builtin("leibniz_2dim_nonlie")
    space = biderivations(A)
    assert next(defining_defects("biderivations", A, space.basis), None) is None


def _leaves(node):
    return [node] if isinstance(node, int) else [
        leaf for child in node[1:] if not isinstance(child, str) for leaf in _leaves(child)]


def _count(node, tags):
    return 0 if isinstance(node, int) else (node[0] in tags) + sum(
        _count(child, tags) for child in node[1:] if not isinstance(child, str))


def test_laws_evaluated_without_an_acting_algebra_are_homogeneous():
    # Over Q these laws are evaluated on integers: operators times one
    # lambda, constants times one mu.  That is exact because every term reads
    # each argument once, so it holds arity - 1 products or brackets, and
    # every term of a law holds the same number (0 or 1) of ON nodes.
    evaluated = [law for spec in opspace._KINDS.values() for _, law in spec.laws]
    evaluated += [law for parts in _IDENTITIES.values() for _, law in parts]
    for law in evaluated:
        arity = 1 + max(leaf for _, node in law for leaf in _leaves(node))
        shapes = set()
        for _, node in law:
            assert sorted(_leaves(node)) == list(range(arity)), law
            assert _count(node, {laws.AT}) == 0, law
            shapes.add((_count(node, {laws.ON}), _count(node, {laws.PRODUCT, laws.BRACKET})))
        assert len(shapes) == 1 and shapes.pop() in {(0, arity - 1), (1, arity - 1)}, law


# s_i of a diagonal change of basis e_i -> s_i e_i, so that constants are not integers
_SCALES = (Fraction(1, 2), Fraction(3), Fraction(2, 5), Fraction(-7, 3), Fraction(5, 4), Fraction(-4, 9))


def _rescaled(A):
    """A in the basis f_i = s_i e_i: f_i f_j = sum_k (s_i s_j / s_k) c_ijk f_k."""
    s = _SCALES
    return Algebra.from_entries(
        A.field, A.dim,
        [{(i, j, k): s[i] * s[j] / s[k] * c for (i, j, k), c in op.sorted_entries()}
         for op in A.ops],
        names=[op.name for op in A.ops])


@pytest.mark.parametrize("field", [Q, GF(5)], ids=repr)
def test_rows_and_self_check_cut_out_the_same_space(field):
    # The laws are linear in the operator tuple, so the defects of the unit
    # tuples are the columns of the evaluated system; its nullspace must be
    # the space that the linear reading of the same laws produced.  Over Q
    # the catalog also comes rescaled, with constants that are not integers.
    checked, cases = 0, catalog_algebras(field)
    if field == Q:
        cases += [(name + "*s", _rescaled(A), tag) for name, A, tag in cases]
        assert any(c.denominator > 1 for _, A, _ in cases for op in A.ops
                   for _, c in op.sorted_entries())
    for name, A, _ in cases:
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            unknowns = len(space.components) * A.dim ** 2
            columns = {}  # (label, args, coordinate) -> {unknown: coefficient}
            n, units = A.dim, []
            for idx in range(unknowns):
                flat = linalg.unit_vector(field, unknowns, idx)
                units.append(tuple(linalg.mat_unflatten(flat[b * n * n:(b + 1) * n * n], n, n)
                                   for b in range(len(space.components))))
            for idx, label, args, defect in defining_defects(kind, A, units):
                for m, c in enumerate(defect):
                    columns.setdefault((label, args, m), {})[idx] = c
            flat_basis = [[x for M in tup for row in M for x in row] for tup in space.basis]
            assert (linalg.nullspace_basis(field, list(columns.values()), unknowns)[0]
                    == flat_basis), (name, kind)
            checked += 1
    assert checked > len(SPACE_KINDS)


# each kind's induced operations written out on dense matrices, independent
# of the sparse rules the package runs
def _reference_ops(f, t, u):
    def mm(a, b):
        return linalg.mat_mul(f, a, b)

    def comm(a, b):
        return linalg.mat_sub(f, mm(a, b), mm(b, a))

    def plus(a, b):
        return linalg.mat_add(f, a, b)

    return {
        "derivations": lambda: [(comm(t[0], u[0]),)],
        "biderivations": lambda: [(comm(t[0], u[0]), comm(t[1], u[0]))],
        "bimultipliers": lambda: [(mm(t[0], u[0]), mm(u[1], t[1]))],
        "multipliers": lambda: [(mm(t[0], u[0]),)],
        "usga-poisson": lambda: [
            (mm(t[0], u[0]), mm(u[1], t[1]), plus(mm(t[0], u[2]), mm(u[1], t[2]))),
            (comm(t[0], u[2]), comm(t[1], u[2]), comm(t[2], u[2])),
        ],
        "usga-cpoisson": lambda: [
            (mm(t[0], u[0]), plus(mm(t[0], u[1]), mm(u[0], t[1]))),
            (comm(t[0], u[1]), comm(t[1], u[1])),
        ],
    }


def _flat(tup):
    return [x for M in tup for row in M for x in row]


def _matrix_algebra(n, upper):
    """Structure constants of M_n (or T_n) on the matrix units E_ij."""
    idx = [(i, j) for i in range(n) for j in range(n) if not upper or i <= j]
    pos = {e: k for k, e in enumerate(idx)}
    prod = {(a, b, pos[(i, l)]): 1
            for a, (i, j) in enumerate(idx) for b, (k, l) in enumerate(idx) if j == k}
    return len(idx), prod


def _unimodular(rng, n):
    """A seeded integer matrix of determinant 1 and its integer inverse."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [list(row) for row in P]
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in P:  # P <- P (1 + c E_ab)
            row[b] += c * row[a]
        Pinv[a] = [x - c * y for x, y in zip(Pinv[a], Pinv[b])]  # (1 - c E_ab) Pinv
    return P, Pinv


def _rebased_matrix_algebras(field, seed, bases=(("T2", 2, True), ("M2", 2, False))):
    """T2 and M2 (or the (name, size, upper) of ``bases``) as an
    associative, a Lie (commutator) and a Poisson algebra, each in the basis
    f_i = sum_a P[a][i] E_a of one seeded unimodular P."""
    rng = random.Random(seed)
    out = []
    for name, size, upper in bases:
        n, prod = _matrix_algebra(size, upper)
        P, Pinv = _unimodular(rng, n)
        new = {}
        for i, j in iproduct(range(n), repeat=2):
            w = [0] * n
            for (a, b, c), v in prod.items():
                w[c] += P[a][i] * P[b][j] * v
            for m in range(n):
                new[(i, j, m)] = sum(Pinv[m][k] * w[k] for k in range(n))
        bracket = {(i, j, m): v - new[(j, i, m)] for (i, j, m), v in new.items()}
        out += [
            (f"{name}.assoc", Algebra.from_entries(field, n, [new])),
            (f"{name}.lie", Algebra.from_entries(field, n, [bracket], names=["bracket"])),
            (f"{name}.poisson", Algebra.from_entries(field, n, [new, bracket])),
        ]
    return out


def _induced_tensor_cases():
    for field in (Q, GF(3), GF(5)):
        for name, A, _ in catalog_algebras(field):
            yield field, name, A
    for name in ("abelian(3)", "poisson_abelian(3)"):
        yield Q, name, builtin(name)
    for name, A in _rebased_matrix_algebras(Q, "T2 M2"):
        yield Q, name, A
        yield Q, name + "*s", _rescaled(A)
    for name, A, _ in catalog_algebras(Q):
        yield Q, name + "*s", _rescaled(A)


def test_induced_tensor_matches_raw_composition():
    # Compose the dense basis tuples by each kind's formula and solve for the
    # coordinates on the dense basis columns, without reading pivots.
    checked = set()
    for field, name, A in _induced_tensor_cases():
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            if space.algebra is None:
                continue
            alg = space.as_algebra()
            flat = [_flat(t) for t in space.basis]
            columns = [[v[idx] for v in flat] for idx in range(len(flat[0]))] if flat else []
            for (a, t), (b, u) in iproduct(enumerate(space.basis), repeat=2):
                for op, raw in enumerate(_reference_ops(field, t, u)[kind]()):
                    coords = linalg.solve(field, columns, _flat(raw))
                    assert coords == alg.mul_basis(op, a, b), (field, name, kind, op, a, b)
            checked.add(kind)
    assert checked == set(_reference_ops(Q, (), ()))


@pytest.mark.parametrize("field", [Q, GF(3), GF(7)], ids=repr)
def test_each_basis_tuple_has_its_unit_vector_as_coordinates(field):
    # coords and the induced tensor share one membership test, which checks
    # a tuple against the tails times the one L that clears them: every kind
    # on the catalog and on rebased T2 and M2, and over Q on both rescaled,
    # where the tails have denominators and so L > 1.  Over Q a tuple with
    # fractional entries is placed, and one just off the span is refused.
    cases = [A for _, A, _ in catalog_algebras(field)]
    cases += [A for _, A in _rebased_matrix_algebras(field, "T2 M2")]
    if field == Q:
        cases += [_rescaled(A) for A in cases]
    scales = set()
    for A in cases:
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            units = [linalg.unit_vector(field, space.dim, t) for t in range(space.dim)]
            assert [space.coords(tup) for tup in space.basis] == units, (A, kind)
            scales.add(space._scale)
            if space._scale == 1 or not 0 < space.dim < len(_flat(space.basis[0])):
                continue
            first, last = space.basis[0], space.basis[-1]
            v = tuple([[x / 3 + y / 7 for x, y in zip(r, s)] for r, s in zip(M, N)]
                      for M, N in zip(first, last))
            assert space.coords(v) == [x / 3 + y / 7 for x, y in zip(units[0], units[-1])]
            n, col = A.dim, next(c for c in range(len(_flat(first))) if c not in space.pivots)
            v[col // n // n][col // n % n][col % n] += Fraction(1, 5)
            assert space.coords(v) is None, (A, kind)
    assert scales == {1} if field.char else max(scales) > 1


def _operation_tables(algebra):
    """Each operation of ``algebra`` as {(i, j): {k: c}}."""
    tables = []
    for op in algebra.ops:
        table = {}
        for (i, j, k), c in op.sorted_entries():
            table.setdefault((i, j), {})[k] = c
        tables.append(table)
    return tables


def _probe_tuples(rng, space):
    """Tuples to place in ``space``: its basis, a combination of it, a
    random tuple, and a basis tuple with one row off its pivot dropped and
    one with an entry off the pivots moved, the last three most likely
    outside the span."""
    f, n, k = space.field, space.base.dim, len(space.components)
    out = list(space.basis)
    out.append(tuple([[f.of(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
                     for _ in range(k)))
    if not space.dim:
        return out
    coeffs = [f.of(rng.choice(("1", "-2", "3/4", "-7/2", "5"))) for _ in space.basis]
    out.append(tuple([[f.of(sum(c * tup[b][r][col] for c, tup in zip(coeffs, space.basis)))
                       for col in range(n)] for r in range(n)] for b in range(k)))
    t = rng.randrange(space.dim)
    rows = [(b, r) for b, M in enumerate(space.basis[t]) for r, row in enumerate(M)
            if any(row) and b * n + r != space.pivots[t] // n]
    if rows:
        dropped = [[list(row) for row in M] for M in space.basis[t]]
        b, r = rng.choice(rows)
        dropped[b][r] = [f.zero] * n
        out.append(tuple(dropped))
    moved = [[list(row) for row in M] for M in space.basis[t]]
    off = [c for c in range(k * n * n) if c not in space.pivots]
    if off:
        c = rng.choice(off)
        moved[c // n // n][c // n % n][c % n] = f.add(moved[c // n // n][c // n % n][c % n], f.one)
        out.append(tuple(moved))
    return out


@pytest.mark.parametrize("field", [Q, GF(3), GF(7), GF(2**61 - 1)], ids=repr)
def test_induced_tensor_and_coords_match_the_flat_oracle(field):
    # the packed rows against the flat entries the package once composed
    # and tested one at a time (oracle.flat_compose, oracle.flat_membership):
    # every kind on the catalog and on rebased T2, M2 and T3.  coords places
    # the basis, a combination of it, a random tuple, and a basis tuple with
    # a row dropped or an entry moved as the oracle does; the induced tensor
    # is the oracle's, and with a spurious basis vector added (a space that
    # need not close) both raise the same ClosureError at the same first pair
    rng = random.Random(repr(field))
    cases = [(name, A) for name, A, _ in catalog_algebras(field)]
    cases += _rebased_matrix_algebras(field, "T2 M2")
    cases += _rebased_matrix_algebras(field, "T3", (("T3", 3, True),))
    checked = escaped = outside = 0
    for name, A in cases:
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            coords_of = oracle.flat_membership(space.basis, space.pivots, field.char)
            for tup in _probe_tuples(rng, space):
                want = coords_of(oracle._flat(tup))
                if want is not None:
                    want = [want.get(t, field.zero) for t in range(space.dim)]
                assert space.coords(tup) == want, (name, kind)
                outside += want is None
            spec = opspace._KINDS[kind]
            if not spec.ops:
                continue
            assert _operation_tables(space.algebra) == oracle.induced_tables(space, spec.terms)
            n, k = A.dim, len(space.components)
            extra = [field.of(rng.randint(-2, 2)) for _ in range(k * n * n)]
            rows, pivots = oracle.dense_rref(field, [_flat(tup) for tup in space.basis] + [extra])
            basis = [tuple(linalg.mat_unflatten(v[b * n * n:(b + 1) * n * n], n, n)
                           for b in range(k)) for v in rows]
            spurious = opspace.OperatorSpace(A, kind, space.components, basis, pivots)
            try:
                want = oracle.induced_tables(spurious, spec.terms)
            except ClosureError as exc:
                with pytest.raises(ClosureError, match=re.escape(str(exc))):
                    opspace._induced(spurious, spec)
                escaped += 1
            else:
                assert _operation_tables(opspace._induced(spurious, spec)) == want, (name, kind)
            checked += 1
    assert checked > 40 and escaped > 10 and outside > 40, (checked, escaped, outside)


def test_escaping_product_raises_closure_error(monkeypatch):
    # plain composition dd' of two derivations is not a derivation: on sl2 it
    # escapes at the first basis pair, on the sparse heisenberg algebra first
    # at (0, 3), after pairs whose composites vanish or stay in the span; the
    # same over Q and over GF(p)
    spec = opspace._KINDS["derivations"]
    fields = (Q, GF(3), GF(7))
    for field in fields:
        heisenberg = derivations(builtin("heisenberg", field))
        escaping = [(a, b) for a, b in iproduct(range(heisenberg.dim), repeat=2)
                    if heisenberg.coords((linalg.mat_mul(field, heisenberg.basis[a][0],
                                                         heisenberg.basis[b][0]),)) is None]
        assert escaping[0] == (0, 3), field
    monkeypatch.setitem(opspace._KINDS, "derivations",
                        dataclasses.replace(spec, ops=(("bracket", "dd'"),)))
    for field, (name, pair) in iproduct(fields, (("sl2", (0, 0)), ("heisenberg", (0, 3)))):
        with pytest.raises(ClosureError, match=re.escape(f"escaped the span at basis pair {pair}")):
            derivations(builtin(name, field))


def test_self_check_reports_the_exact_rational_defect():
    # e0 e0 = 1/2 e1, e1 e0 = 1/3 e0 and d = 1/5 E_00: at (0, 0),
    # d(e0 e0) - d(e0) e0 - e0 d(e0) = 0 - 1/10 e1 - 1/10 e1 = -1/5 e1,
    # though the evaluation runs on d = E_00, e0 e0 = 3 e1, e1 e0 = 2 e0
    A = Algebra.from_entries(Q, 2, [{(0, 0, 1): Fraction(1, 2), (1, 0, 0): Fraction(1, 3)}])
    d = [[Fraction(1, 5), Fraction(0)], [Fraction(0), Fraction(0)]]
    hit = next(defining_defects("derivations", A, [(d,)]))
    assert hit == (0, "derivation", (0, 0), [0, Fraction(-1, 5)])
    assert all(type(c) is Fraction for c in hit[3])


def test_a_nonzero_multiple_of_p_counts_as_zero(monkeypatch):
    # sl2 over GF(3), basis (e, f, h): [e,f] = h, [f,e] = 2h, [h,e] = 2e.
    # Evaluation reduces a defect mod p once, when it is complete, and the
    # elimination a form once, when it reads it, so a sum of terms can be a
    # nonzero multiple of 3 before: Jacobi at
    # (e, f, h) is [[e,f],h] + [[f,h],e] + [[h,e],f] = 0 + 2[f,e] + 2[e,f]
    # = 4h + 2h = 6h
    p = 3
    A = builtin("sl2", GF(p))
    # the identity check and the self-check test each packed defect entry
    # with the slot kernel: an entry whose slots are nonzero multiples of 3
    # passes it, and no slot is decoded
    seen, zero, at, mod = Counter(), linalg.Slots.zero, linalg.Slots.at, linalg.Slots.mod

    def recording_zero(slots, x):
        verdict = zero(slots, x)
        values = [at(slots, x, t) for t in range(slots.count)]
        seen["multiple"] += verdict and any(y and not y % p for y in values)
        return verdict

    def recording_read(read):
        def recorded(*args):
            seen["read"] += 1
            return read(*args)

        return recorded

    monkeypatch.setattr(linalg.Slots, "zero", recording_zero)
    monkeypatch.setattr(linalg.Slots, "at", recording_read(at))
    monkeypatch.setattr(linalg.Slots, "mod", recording_read(mod))
    # Jacobi at the prefix (e, f) holds 6h in the slot of e_k = h
    assert check_identity(A, "lie").holds
    assert seen.pop("multiple") > 0 and seen.pop("read", 0) == 0
    # d applied to each term of Jacobi: every coefficient is a multiple of 3
    law = tuple((sign, (laws.ON, "d", node)) for sign, node in laws.JACOBI)
    forms = [form for at in laws.law_rows(A, law, {"d": 0}) for form in at]
    assert forms and all(x and not x % p for form in forms for x in form.values())
    assert linalg.nullspace_basis(A.field, forms, 9) == (linalg.mat_identity(A.field, 9),
                                                         list(range(9)))

    from_products, products = Algebra.from_products.__func__, []

    def recording_from_products(cls, field, dim, names, product, labels=None, pairs=None):
        def rule(op, i, j):
            products.append(coords := product(op, i, j))
            return coords

        return from_products(cls, field, dim, names, rule, labels, pairs)

    monkeypatch.setattr(Algebra, "from_products", classmethod(recording_from_products))
    space = derivations(A)
    assert products and all(0 <= c < p for coords in products for c in coords.values())
    assert all(0 <= c < p for op in space.algebra.ops for _, c in op.sorted_entries())
    seen.clear()
    assert next(defining_defects("derivations", A, space.basis), None) is None
    assert seen.pop("multiple") > 0 and seen.pop("read", 0) == 0


def test_self_check_catches_a_law_missing_from_the_rows(monkeypatch):
    # the prefix of the rows misses the law, so do all the rows: the
    # self-check refuses the lifted basis of the prefix mod 2^31 - 1, which
    # here holds every row, then the exact basis of every row
    compatibility = laws.compatibility("d", "D")
    law_rows = laws.law_rows

    def rows_without_compatibility(A, law, blocks):
        groups = law_rows(A, law, blocks)
        return ([] for _ in groups) if law == compatibility else groups

    A = builtin("leibniz_2dim_nonlie")
    full = biderivations(A).dim
    checked, defects, routes = [], opspace.defining_defects, _routes(monkeypatch)
    monkeypatch.setattr(laws, "law_rows", rows_without_compatibility)
    monkeypatch.setattr(opspace, "defining_defects",
                        lambda *args: checked.append(len(args[2])) or defects(*args))
    with pytest.raises(ClosureError, match="computed biderivations basis tuple violates compatibility"):
        biderivations(A)
    assert routes == ["lift", "exact"]
    assert len(checked) == 2 and checked[0] >= checked[1] > full
    monkeypatch.setattr(opspace, "defining_defects", lambda *args: iter(()))
    assert biderivations(A).dim > full  # the space grows without the law


def _checked_builds(monkeypatch, algebras, prefix):
    """{(name, kind): (basis, pivots, induced tensor, self-checks run,
    routes over Q (:func:`_routes`))} of every kind on ``algebras`` that is
    defined there, its rows cut by ``prefix`` in place of
    :func:`opspace._prefix`."""
    checks, defects, routes = [], opspace.defining_defects, _routes(monkeypatch)
    monkeypatch.setattr(opspace, "_prefix", prefix)
    monkeypatch.setattr(opspace, "defining_defects",
                        lambda *args: checks.append(args) or defects(*args))
    out = {}
    for name, A in algebras:
        for kind in SPACE_KINDS:
            checks.clear()
            routes.clear()
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            tensor = space.algebra and space.algebra.to_json_dict()
            out[name, kind] = space.basis, space.pivots, tensor, len(checks), list(routes)
    monkeypatch.undo()
    return out


@pytest.mark.parametrize("field", [Q, GF(3), GF(7)], ids=repr)
def test_a_prefix_of_one_group_ends_in_the_space_of_all_rows(field, monkeypatch):
    # stopped after the rows at the first argument e_0, the self-check
    # refuses the candidate wherever it is too large, and the rows of every
    # other argument go into the same elimination
    algebras = _rebased_matrix_algebras(field, "T2 M2")
    every = _checked_builds(monkeypatch, algebras,
                            lambda groups, echelon: chain.from_iterable(groups))
    first = _checked_builds(monkeypatch, algebras, lambda groups, echelon: next(groups))
    assert every.keys() == first.keys() and len(every) == 24
    for key, (basis, pivots, tensor, checks, routes) in first.items():
        assert (basis, pivots, tensor) == every[key][:3], key
        assert every[key][3] == 1 and checks in (1, 2), key
        # over Q the other rows go into the same elimination mod 2^31 - 1
        assert routes == (["lift"] * checks if field == Q else []), key
    # the fallback ran on most of them (19 or 20 of the 24)
    assert sum(checks == 2 for *_, checks, _ in first.values()) > len(first) // 2


def test_the_self_check_refuses_a_prefix_that_stops_too_early(monkeypatch):
    # T2 rebased over GF(3): the rows at e_1 add no pivot to those at e_0,
    # so the prefix stops there, but those at e_2 add one; the candidate
    # derivation space of dimension 3 fails at (e_2, e_0), and the rows at
    # e_2 cut it down to the space of all rows
    (A,) = [A for name, A in _rebased_matrix_algebras(GF(3), 0) if name == "T2.assoc"]
    spec, ranks = opspace._KINDS["derivations"], []
    echelon = {}
    for group in opspace._row_groups(A, spec):
        linalg.nullspace_basis(A.field, group, 9, echelon)
        ranks.append(len(echelon))
    assert ranks == [6, 6, 7]
    every = _checked_builds(monkeypatch, [("T2", A)],
                            lambda groups, echelon: chain.from_iterable(groups))
    checks, defects = [], opspace.defining_defects
    monkeypatch.setattr(opspace, "defining_defects",
                        lambda *args: checks.append(next(defects(*args), None)) or defects(*args))
    space = derivations(A)
    assert [None if hit is None else hit[1:3] for hit in checks] == [("derivation", (2, 0)), None]
    assert (space.basis, space.pivots) == every["T2", "derivations"][:2] and space.dim == 2


# -- over Q: the elimination mod 2^31 - 1, lifted ------------------------------


def _routes(monkeypatch):
    """The routes that builds over Q take, in order: "lift" or "no lift" for
    each call of ``linalg.lifted_nullspace``, "exact" for each call of
    ``linalg.nullspace_basis`` over Q."""
    routes, lifted, nullspace = [], linalg.lifted_nullspace, linalg.nullspace_basis

    def lift(*args):
        got = lifted(*args)
        routes.append("no lift" if got is None else "lift")
        return got

    def exact(field, *args):
        if field == Q:
            routes.append("exact")
        return nullspace(field, *args)

    monkeypatch.setattr(linalg, "lifted_nullspace", lift)
    monkeypatch.setattr(linalg, "nullspace_basis", exact)
    return routes


def _every_row(A, kind):
    """The basis vectors and pivots of every row of ``kind`` on A,
    eliminated exactly at once."""
    spec = opspace._KINDS[kind]
    rows = [form for group in opspace._row_groups(A, spec) for form in group]
    return linalg.nullspace_basis(A.field, rows, len(spec.components) * A.dim ** 2)


def _built(A, kind):
    """(basis, pivots, induced tensor) of ``kind`` on A, or None outside its variety."""
    try:
        space = space_of_kind(A, kind)
    except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson, OpArityMismatch):
        return None
    return space.basis, space.pivots, space.algebra and space.algebra.ops


def test_the_lifted_route_builds_the_exact_spaces(monkeypatch):
    # every kind over Q on the catalog, on rebased T2, M2 and T3 and on
    # those rescaled, whose bases have denominators, and T4 Lie
    # biderivations: the lift is accepted, and the basis, pivots, scalar
    # types and induced tensor are those of the exact route on every row
    cases = [(name, A, SPACE_KINDS) for name, A, _ in catalog_algebras(Q)]
    rebased = _rebased_matrix_algebras(Q, 0, (("T2", 2, True), ("M2", 2, False), ("T3", 3, True)))
    cases += [(name + tag, B, SPACE_KINDS) for name, A in rebased
              for tag, B in (("", A), ("*s", _rescaled(A)))]
    cases += [(name, A, ["biderivations"])
              for name, A in _rebased_matrix_algebras(Q, 3, (("T4", 4, True),)) if name == "T4.lie"]
    routes, checked, denominators = _routes(monkeypatch), 0, 0
    for name, A, kinds in cases:
        for kind in kinds:
            routes.clear()
            if (lifted := _built(A, kind)) is None:
                continue
            assert "lift" in routes and "exact" not in routes, (name, kind, routes)
            with monkeypatch.context() as m:
                m.setattr(linalg, "lifted_nullspace", lambda *args: None)
                exact = _built(A, kind)
            assert "exact" in routes, (name, kind)
            assert lifted[:2] == exact[:2], (name, kind)
            flat = [[x for M in tup for row in M for x in row] for tup in lifted[0]]
            assert (flat, lifted[1]) == _every_row(A, kind), (name, kind)
            assert {type(x) for v in flat for x in v} <= {Fraction}, (name, kind)
            tensors = [[[(key, c, type(c)) for key, c in op.sorted_entries()] for op in ops or ()]
                       for ops in (lifted[2], exact[2])]
            assert tensors[0] == tensors[1], (name, kind)
            denominators += any(x.denominator > 1 for v in flat for x in v)
            checked += 1
    assert checked > 140 and denominators > 40, (checked, denominators)


def test_reconstruction_stops_at_the_bound():
    # isqrt(q // 2) = 32767 for q = 2^31 - 1: a/b lifts for |a|, b up to it
    q = linalg.LIFT_FIELD.char
    assert isqrt(q // 2) == 32767

    def lifted(a, b):
        return linalg.reconstruct(a * pow(b, -1, q) % q, q)

    for a, b in [(0, 1), (1, 1), (-1, 1), (32767, 1), (-32767, 1), (1, 32767), (-1, 32767),
                 (32767, 32766), (-32766, 32767), (3, 7)]:
        assert lifted(a, b) == Fraction(a, b) and type(lifted(a, b)) is Fraction, (a, b)
    for a, b in [(32768, 1), (-32768, 1), (1, 32768), (-1, 32768), (32768, 32767)]:
        assert lifted(a, b) is None, (a, b)


def _scaled_first(A, s):
    """A in the basis s e_0, e_1, ...: its constants scaled by s_i s_j / s_k."""
    scales = [Fraction(s)] + [Fraction(1)] * (A.dim - 1)
    return Algebra.from_entries(
        A.field, A.dim,
        [{(i, j, k): scales[i] * scales[j] / scales[k] * c for (i, j, k), c in op.sorted_entries()}
         for op in A.ops],
        names=[op.name for op in A.ops])


@pytest.mark.parametrize("s", [32767, -32767, Fraction(1, 32767), 32768, -32768, Fraction(1, 32768)],
                         ids=str)
def test_a_basis_entry_beyond_the_bound_takes_the_exact_route(s, monkeypatch):
    # the derivations of rebased T2 in the basis s e_0, e_1, e_2 hold 1/s or
    # s beside 0 and 1: they lift up to 32767, and beyond it the build
    # runs the exact route, which gives the basis of every row
    (A,) = [_scaled_first(A, s) for name, A in _rebased_matrix_algebras(Q, 0) if name == "T2.assoc"]
    top = max(abs(Fraction(s).numerator), Fraction(s).denominator)
    routes = _routes(monkeypatch)
    space = derivations(A)
    entries = {abs(x) for tup in space.basis for M in tup for row in M for x in row}
    assert max(max(x.numerator, x.denominator) for x in entries) == top
    assert routes[0] == ("lift" if top <= 32767 else "no lift")
    assert ("exact" in routes) == (top > 32767), routes
    monkeypatch.undo()
    flat = [[x for M in tup for row in M for x in row] for tup in space.basis]
    assert (flat, space.pivots) == _every_row(A, "derivations")


def test_a_bracket_that_vanishes_mod_the_prime_takes_the_exact_route(monkeypatch):
    # rebased T2 and T3 as Lie algebras with the bracket times 2^31 - 1:
    # every row vanishes mod q, so the lift holds every tuple; the
    # self-check refuses it on the prefix and on all rows, and the exact
    # route gives the biderivations of the unscaled bracket
    q = linalg.LIFT_FIELD.char
    algebras = _rebased_matrix_algebras(Q, 0, (("T2", 2, True), ("T3", 3, True)))
    for name, A in [(name, A) for name, A in algebras if name.endswith(".lie")]:
        B = Algebra.from_entries(Q, A.dim, [{key: q * c for key, c in A.ops[0].sorted_entries()}],
                                 names=["bracket"])
        forms = [form for group in opspace._row_groups(B, opspace._KINDS["biderivations"])
                 for form in group]
        assert forms and all(x % q == 0 for form in forms for x in form.values()), name
        want = biderivations(A)
        routes = _routes(monkeypatch)
        got = biderivations(B)
        monkeypatch.undo()
        assert routes == ["lift", "lift", "exact"], (name, routes)
        assert (got.basis, got.pivots) == (want.basis, want.pivots) and got.dim > 0, name
        assert got.algebra.to_json_dict() == want.algebra.to_json_dict(), name


def test_a_refused_prefix_lift_goes_on_mod_the_prime(monkeypatch):
    # T4 as a Lie algebra in its standard basis: the prefix stops too early
    # there (the rows at e_0 and e_1 add no pivot to those before), the
    # self-check refuses its lift, and the other rows go into the same
    # elimination mod q, whose lift is the basis of every row
    n, prod = _matrix_algebra(4, True)
    bracket = {(i, j, k): v for (i, j, k), v in prod.items()}
    for (i, j, k), v in prod.items():
        bracket[j, i, k] = bracket.get((j, i, k), 0) - v
    A = Algebra.from_entries(Q, n, [bracket], names=["bracket"])
    routes = _routes(monkeypatch)
    space = biderivations(A)
    monkeypatch.undo()
    assert routes == ["lift", "lift"]
    flat = [[x for M in tup for row in M for x in row] for tup in space.basis]
    assert (flat, space.pivots) == _every_row(A, "biderivations") and space.dim > 0


# each kind's defining laws as the hand-written predicates of the oracle, on
# (tuple, product table, bracket table, p)
_ORACLE_LAWS = {
    "derivations": lambda t, prod, br, p: oracle.is_derivation(t[0], br, p),
    "antiderivations": lambda t, prod, br, p: oracle.is_antiderivation(t[0], br, p),
    "biderivations": lambda t, prod, br, p: (
        oracle.is_derivation(t[0], br, p) and oracle.is_antiderivation(t[1], br, p)
        and oracle.bider_compatible(t[0], t[1], br, p)),
    "bimultipliers": lambda t, prod, br, p: (
        oracle.is_left_multiplier(t[0], prod, p) and oracle.is_right_multiplier(t[1], prod, p)
        and oracle.bim_mixed_ok(t[0], t[1], prod, p)),
    "multipliers": lambda t, prod, br, p: oracle.is_left_multiplier(t[0], prod, p),
    "usga-poisson": lambda t, prod, br, p: (
        oracle.is_left_multiplier(t[0], prod, p) and oracle.is_right_multiplier(t[1], prod, p)
        and oracle.bim_mixed_ok(t[0], t[1], prod, p)
        and oracle.is_derivation(t[2], br, p) and oracle.is_derivation(t[2], prod, p)
        and oracle.v1_ok(t[0], t[2], br, prod, p) and oracle.v2_ok(t[1], t[2], br, prod, p)),
    "usga-cpoisson": lambda t, prod, br, p: (
        oracle.is_left_multiplier(t[0], prod, p)
        and oracle.is_derivation(t[1], br, p) and oracle.is_derivation(t[1], prod, p)
        and oracle.v1_ok(t[0], t[1], br, prod, p)),
}


@pytest.mark.parametrize("p", [3, 5])
def test_self_check_agrees_with_the_oracle_on_dense_and_mutated_tuples(p):
    # random dense tuples, the basis tuples, and each basis tuple with one
    # entry changed: the evaluator passes exactly those the oracle passes
    field, rng = GF(p), random.Random(p)
    verdicts = Counter()
    for name, A, _ in catalog_algebras(field):
        prod, *rest = oracle.tables(A)
        br = rest[0] if rest else prod
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            n, width = A.dim, len(space.components)
            tuples = [tuple([[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                            for _ in range(width))
                      for _ in range(3)]
            for tup in space.basis:
                mutated = [[list(row) for row in M] for M in tup]
                b, r, c = rng.randrange(width), rng.randrange(n), rng.randrange(n)
                mutated[b][r][c] = (mutated[b][r][c] + rng.randrange(1, p)) % p
                tuples += [tup, tuple(mutated)]
            for tup in tuples:
                holds = next(defining_defects(kind, A, [tup]), None) is None
                assert holds == _ORACLE_LAWS[kind](tup, prod, br, p), (name, kind, tup)
                verdicts[holds] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


class _Exact:
    """The oracle's modulus over Q: x % _Exact() is x, so its predicates
    compare exact values."""

    def __rmod__(self, x):
        return x


def _tables(A):
    """Each operation of A as the oracle's tensor, of field elements."""
    n = A.dim
    return [tuple(tuple(tuple(A.mul_basis(op, i, j)) for j in range(n)) for i in range(n))
            for op in range(A.num_ops)]


@pytest.mark.parametrize("field", [Q, GF(3), GF(7), GF(2**61 - 1)], ids=repr)
def test_packed_self_check_of_a_whole_basis_agrees_with_each_tuple_alone(field):
    # the self-check evaluates each law once for a whole basis, its tuples
    # packed into the slots of one int; with one or two tuples changed in
    # one entry, the failing tuples are those the oracle fails, and each
    # failing tuple fails exactly as it does evaluated alone, its first
    # (label, args, defect) included.  Over Q the
    # bases come rescaled and the changes are fractions, so the cleared
    # numerators are large; over GF(2^61 - 1) the changes bring entries
    # near p - 1
    p, rng = field.char, random.Random(repr(field))
    cases = [(name, A) for name, A, _ in catalog_algebras(field)]
    cases += _rebased_matrix_algebras(field, "T2 M2")
    if field == Q:
        cases = [(name + "*s", _rescaled(A)) for name, A in cases]
    failed = checked = 0
    for name, A in cases:
        prod, *rest = _tables(A)
        br = rest[0] if rest else prod
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            n, width = A.dim, len(space.components)
            tuples = [[[list(row) for row in M] for M in tup] for tup in space.basis]
            for t in rng.sample(range(space.dim), min(space.dim, rng.choice((1, 2)))):
                if p == 0:
                    delta = Fraction(rng.choice((-7, -2, 1, 3, 11)), rng.choice((1, 2, 9, 35)))
                else:
                    delta = p - rng.randrange(1, min(p, 4))
                b, r, c = rng.randrange(width), rng.randrange(n), rng.randrange(n)
                tuples[t][b][r][c] = field.add(tuples[t][b][r][c], delta)
            hits = list(defining_defects(kind, A, tuples))
            failing = {hit[0] for hit in hits}
            oracle_fails = {t for t, tup in enumerate(tuples)
                            if not _ORACLE_LAWS[kind](tup, prod, br, p or _Exact())}
            assert failing == oracle_fails, (name, kind)
            for t in failing:
                alone = [(t, *hit[1:]) for hit in defining_defects(kind, A, [tuples[t]])]
                assert [hit for hit in hits if hit[0] == t] == alone, (name, kind, t)
            failed += len(failing)
            checked += 1
    assert checked > 50 and failed > 30, (checked, failed)


def test_sparse_paths_do_no_work_on_the_zeros_of_an_abelian_base(monkeypatch):
    # counts of operations, not times: a return to dense vectors or to
    # evaluating every basis pair one at a time fails here
    field = GF(5)
    A = builtin("abelian(5)", field)
    from_products, calls = Algebra.from_products.__func__, {}

    def counting_from_products(cls, field, dim, names, product, labels=None, pairs=None):
        def rule(op, i, j):
            calls[op, i, j] = coords = product(op, i, j)
            return coords

        return from_products(cls, field, dim, names, rule, labels, pairs)

    monkeypatch.setattr(Algebra, "from_products", classmethod(counting_from_products))
    space = biderivations(A)
    # the basis is the unit tuples (E_ij, 0) and (0, E_ij); the bracket
    # (dd' - d'd, Dd' - d'D) is called only on pairs where a term composes
    # two units E_ij E_jk, so supports are exact and no call is wasted ...
    assert 0 < len(calls) < space.dim ** 2
    units = [next((b, r, c) for b, M in enumerate(t) for r, c in iproduct(range(5), repeat=2)
                  if M[r][c]) for t in space.basis]
    for (_, a, b), coords in calls.items():
        (_, ra, ca), (bb, rb, cb) = units[a], units[b]
        assert bb == 0 and (ca == rb or cb == ra), (a, b)
        # ... and the product is nonzero, but where t holds E_ii and u is
        # (E_ii, 0): there the two terms E_ii E_ii - E_ii E_ii cancel
        assert bool(coords) != (ra == ca == rb == cb), (a, b)
    # the induced tensor reads only the nonzero coordinates of each product
    assert sum(map(len, calls.values())) == sum(len(op.sorted_entries())
                                               for op in space.algebra.ops)

    counts, defect = Counter(), laws._defect

    def counting_defect(env, law, last=None):
        fn = defect(env, law, last)

        def counted(args):
            counts["defect"] += 1
            d = fn(args)
            counts["entries"] += len(d)
            return d

        return counted

    monkeypatch.setattr(laws, "_defect", counting_defect)
    for module, name in ((laws, "_add"), (opspace, "_composed"), (linalg.Slots, "zero")):
        def counting(*args, name=name, orig=getattr(module, name)):
            counts[name] += 1
            return orig(*args)

        monkeypatch.setattr(module, name, counting)
    # the self-check evaluates each of the three biderivation laws once per
    # prefix e_i, and every product of an abelian base is empty, so every
    # defect is empty: no slot is tested and no vector composed
    assert next(defining_defects("biderivations", A, space.basis), None) is None
    assert counts["defect"] == 3 * 5
    assert counts["entries"] == counts["zero"] == counts["_composed"] == 0
    counts.clear()
    biderivations(A)
    assert counts["_composed"] == len(calls)  # the counters count, once a product
    # each product is Z-span of unit tuples and its coordinates are read raw,
    # so every row of its residue is exactly 0 and the slot kernel never runs
    assert counts["zero"] == 0
    M = builtin("leibniz_2dim_nonlie", field)
    basis = biderivations(M).basis
    counts.clear()
    next(defining_defects("biderivations", M, basis[:1]), None)
    assert counts["defect"] > 0 and counts["_add"] > 0


def test_evaluator_refuses_a_missing_or_misshapen_operator():
    A = builtin("leibniz_2dim_nonlie")
    d = [[F(1), F(0)], [F(0), F(0)]]
    big = [[F(0)] * 3 for _ in range(3)]
    for tup in ((d,), (big, d)):  # no D; a 3x3 d on a 2-dimensional base
        with pytest.raises(ShapeMismatch):
            next(defining_defects("biderivations", A, [tup]), None)
    B = builtin("abelian(1)")
    l1, l4 = (dict(actions._VARIETIES["leibniz"].conditions)[label] for label in ("L1", "L4"))
    for law, operators in ((l1, {"l": [d]}), (l1, {"r": [big]}), (l4, {"r": [d, d]})):
        with pytest.raises(ShapeMismatch):
            next(laws.failures(A, [law], [operators], B)(law), None)


def test_coords_refuse_a_tuple_of_the_wrong_shape():
    space = biderivations(builtin("abelian(2)"))
    E11, zero = [[F(1), F(0)], [F(0), F(0)]], [[F(0)] * 2 for _ in range(2)]
    big = [[F(1), F(0), F(0)], [F(0)] * 3, [F(0)] * 3]
    assert space.coords((E11, zero)) == [1] + [0] * (space.dim - 1)
    for tup in ((big, zero), (E11,)):  # neither aliases (E11, 0)
        with pytest.raises(ShapeMismatch):
            space.coords(tup)
        with pytest.raises(ShapeMismatch):
            space.matrix_of([tup])
    # and coordinate vectors of the wrong length, which a zip against the basis would cut
    line = biderivations(builtin("abelian(1)", GF(3)))
    assert line.dim == 2 and line.tuple_from_coords([1, 2]) == ([[1]], [[2]])
    for coords in ([1], [1, 2, 3]):
        with pytest.raises(ShapeMismatch):
            line.tuple_from_coords(coords)


def test_morphism_checks_every_row_of_the_matrix():
    B = builtin("abelian(2)", GF(3))
    space = biderivations(builtin("abelian(1)", GF(3)))
    matrix = [[0] * B.dim for _ in range(space.dim)]
    matrix[-1].pop()  # the last row is one entry short
    assert space.dim > 1
    with pytest.raises(ShapeMismatch):
        space.morphism(B, matrix)


# -- inner embeddings --------------------------------------------------------------


def test_inner_embedding_abelian_is_zero():
    emb = inner_embedding(biderivations(builtin("abelian(2)")))
    assert not any(map(any, emb.matrix))
    assert emb.is_homomorphism


@pytest.mark.parametrize("name", ("leibniz_2dim_nonlie", "sl2", "heisenberg"))
def test_inner_embedding_into_biderivations_is_hom(name):
    emb = inner_embedding(biderivations(builtin(name)))
    assert emb.is_homomorphism


def test_inner_embedding_poisson_zero_map():
    emb = inner_embedding(poisson_usga(builtin("poisson_abelian(2)")))
    assert not any(map(any, emb.matrix))


@pytest.mark.parametrize(
    "name,kind",
    [
        ("assoc_triangular", "bimultipliers"),
        ("assoc_trunc_poly", "multipliers"),
        ("poisson_triangular", "usga-poisson"),
        ("poisson_trunc_poly", "usga-cpoisson"),
        ("cpoisson_solv2", "usga-cpoisson"),
    ],
)
def test_inner_embeddings_are_homomorphisms(name, kind):
    emb = inner_embedding(space_of_kind(builtin(name), kind))
    assert emb.is_homomorphism


# the inner tuple of e_a per kind, written by hand: (sign, side, table) per
# component, side "L" for x -> e_a x and "R" for x -> x e_a, table 0 for the
# product and "br" for the bracket (table 1 of a two-operation base, else 0)
_INNER_SIGNS = {
    "biderivations": ((-1, "R", "br"), (1, "L", "br")),  # (-ad_a, Ad_a)
    "bimultipliers": ((1, "L", 0), (1, "R", 0)),
    "multipliers": ((1, "L", 0),),
    "usga-poisson": ((1, "L", 0), (1, "R", 0), (1, "L", "br")),
    "usga-cpoisson": ((1, "L", 0), (1, "L", "br")),
}


def test_inner_tuple_signs():
    # for the bi-adjoint convention the first slot is minus right bracket
    A = builtin("leibniz_2dim_nonlie")
    t = inner_tuple(A, "biderivations", 1)
    assert t[0] == [[F(0), F(-1)], [F(0), F(0)]]  # -ad_{e2}
    assert t[1] == [[F(0), F(1)], [F(0), F(0)]]  # Ad_{e2}
    # every kind with inner tuples, on every catalog base in its variety
    checked = Counter()
    for field, kind in iproduct((Q, GF(3)), _INNER_SIGNS):
        for name, A, _ in catalog_algebras(field):
            try:
                space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            tables, n = oracle.tables(A), A.dim
            for a in range(n):
                expected = []
                for sign, side, table in _INNER_SIGNS[kind]:
                    c = tables[-1 if table == "br" else 0]
                    # column j of x -> e_a x is e_a e_j; of x -> x e_a it is e_j e_a
                    expected.append([[field.of(sign * (c[a][j][r] if side == "L" else c[j][a][r]))
                                      for j in range(n)] for r in range(n)])
                assert list(inner_tuple(A, kind, a)) == expected, (field, name, kind, a)
            checked[field, kind] += 1
    assert len(checked) == 2 * len(_INNER_SIGNS)


# -- commutation and module action ---------------------------------------------------


def test_bim_commutation_line_holds():
    assert check_bim_commutation(builtin("poisson_abelian(1)")).holds


def test_bim_commutation_unital_holds():
    # trivial annihilator case
    assert check_bim_commutation(builtin("assoc_trunc_poly")).holds


def test_bim_commutation_plane_fails_with_witness():
    V = builtin("poisson_abelian(2)")
    rep = check_bim_commutation(V)
    assert not rep.holds
    s, t = rep.witness
    bim = bimultipliers(V)
    f = V.field
    lhs = linalg.mat_mul(f, bim.basis[s][0], bim.basis[t][1])
    rhs = linalg.mat_mul(f, bim.basis[t][1], bim.basis[s][0])
    assert lhs != rhs


# -- frozen actor space of the line ---------------------------------------------------


def test_usga_line_product_table():
    space = poisson_usga(builtin("poisson_abelian(1)"))
    alg = space.as_algebra()
    assert alg.ops[1].sorted_entries() == []  # zero bracket
    got = [(ijk, str(c)) for ijk, c in alg.ops[0].sorted_entries()]
    assert got == [
        ((0, 0, 0), "1"),
        ((0, 2, 2), "1"),
        ((1, 1, 1), "1"),
        ((2, 1, 2), "1"),
    ]
    assert check_identity(alg, "poisson").holds


def test_usga_plane_bracket_not_skew():
    alg = poisson_usga(builtin("poisson_abelian(2)")).as_algebra()
    rep = check_identity(alg, "anticommutative")
    assert not rep.holds


def test_usga_c_of_line_is_poisson_actor_case():
    space = comm_poisson_usga(builtin("poisson_abelian(1)"))
    assert space.dim == 2
    alg = space.as_algebra()
    assert alg.ops[1].sorted_entries() == []  # zero bracket
    assert check_identity(alg, "commutative").holds
    assert check_identity(alg, "poisson").holds


# -- oracle agreement over GF(3) -------------------------------------------------------


_F3_CASES = [
    ("derivations", "abelian(1)"),
    ("derivations", "abelian(2)"),
    ("derivations", "leibniz_2dim_nonlie"),
    ("antiderivations", "leibniz_2dim_nonlie"),
    ("antiderivations", "lie_2dim_nonabelian"),
    ("biderivations", "leibniz_2dim_nonlie"),
    ("biderivations", "lie_2dim_nonabelian"),
    ("multipliers", "assoc_trunc_poly"),
    ("bimultipliers", "assoc_triangular"),
    ("usga-cpoisson", "cpoisson_solv2"),
]


@pytest.mark.parametrize("kind,name", _F3_CASES)
def test_oracle_counts_match_nullspace_dims(kind, name):
    A = builtin(name, GF(3))
    space = space_of_kind(A, kind)
    assert oracle.count_space(kind, A, 3) == 3 ** space.dim


def test_oracle_usga_poisson_triangular():
    A = builtin("poisson_triangular", GF(3))
    space = poisson_usga(A)
    assert oracle.count_space("usga-poisson", A, 3) == 3 ** space.dim


# -- serialization -----------------------------------------------------------------------


def test_space_json_contains_algebra_ops():
    space = derivations(builtin("leibniz_2dim_nonlie"))
    data = space.to_json_dict()
    assert data["dim"] == 2
    assert data["kind"] == "derivations"
    assert "ops" in data
    assert len(data["basis"]) == 2
