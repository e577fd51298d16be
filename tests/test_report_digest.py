"""Digests of full validation, operator-space, acting and enumeration reports.

Criterion 2 compares only verdicts.  These digests pin the report contents
(labels, witnesses, defect values, canonical bases, induced tensors and the
errors of refused inputs), so that a change to how the defining laws are
assembled or evaluated cannot alter any of them unnoticed.  The validation
and space digests were recorded before the laws moved into one table; the
acting and enumeration digests before enumeration moved onto the weak actor.
"""

import hashlib
import io
import json
import random
from collections import Counter
from itertools import product

from fractions import Fraction as F

from algact import linalg
from algact.actions import ActionData, is_acting_morphism, validate_action, weak_actor
from algact.algebra import Algebra, is_homomorphism
from algact.catalog import builtin, catalog_actions, catalog_algebras
from algact.cli import main
from algact.errors import AlgactError
from algact.fields import GF, Q
from algact.opspace import SPACE_KINDS, defining_defects, space_of_kind

FIELDS = (Q, GF(3), GF(5))
MUTATIONS_PER_ACTION = 20

VALIDATION_DIGEST = "5e99e6fa41de4c3883d8fd493633d22b713a04c45d88a17262b9c03ce95736e5"
SPACE_DIGEST = "1d6112c67f736d9c0b1462eb39d0d5512b78aac870943739d0b40ee4f925a316"
ACTING_DIGEST = "9bfd08d1f21bc544b4f9fd96a6cef1e287077d6507ffd3adce0b9bf3fc2cff4a"
ENUMERATE_DIGEST = "3170579470609fee50488c7466cad958f6a9503f1716ede12e62fa183f1b2b3b"


def _digest(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _mutate(rng, act):
    """Add a nonzero scalar to one or two entries of the action tensors."""
    f = act.field
    l = [[list(v) for v in row] for row in act.l]
    r = None if act.r is None else [[list(v) for v in row] for row in act.r]
    k = None if act.bracket is None else [[list(v) for v in row] for row in act.bracket]
    tensors = [t for t in (l, r, k) if t is not None]
    for _ in range(1 + rng.randrange(2)):
        t = tensors[rng.randrange(len(tensors))]
        i = rng.randrange(len(t))
        j = rng.randrange(len(t[i]))
        m = rng.randrange(len(t[i][j]))
        t[i][j][m] = f.add(t[i][j][m], f.of(rng.choice((1, 2, -1))))
    return ActionData(act.variety, act.acting, act.kernel, l, r, k)


def _validation_reports():
    rng = random.Random(20261017)
    reports = []
    for field in FIELDS:
        named = catalog_actions(field) + [("metere_action", builtin("metere_action", field))]
        for name, act in named:
            instances = [act] + [_mutate(rng, act) for _ in range(MUTATIONS_PER_ACTION)]
            for act_i in instances:
                report = validate_action(act_i).to_json_dict(field)
                reports.append({"field": repr(field), "action": name, "report": report})
    return reports


def _space_reports():
    reports = []
    for field in FIELDS:
        for name, A, _ in catalog_algebras(field):
            for kind in SPACE_KINDS:
                try:
                    data = space_of_kind(A, kind).to_json_dict()
                except AlgactError as exc:
                    data = {"error": type(exc).__name__, "message": str(exc)}
                reports.append({"field": repr(field), "algebra": name, "kind": kind,
                                "space": data})
    return reports


def test_validation_reports_digest():
    reports = _validation_reports()
    failures = Counter(
        label
        for entry in reports
        for label, cond in entry["report"]["conditions"].items()
        if not cond["holds"]
    )
    labels = {label for entry in reports for label in entry["report"]["conditions"]}
    # the digest only guards what the mutations reach: every label must fail
    assert {label for label in labels if failures[label] < 15} == set(), failures
    assert _digest(reports) == VALIDATION_DIGEST


def test_space_reports_digest():
    assert _digest(_space_reports()) == SPACE_DIGEST


def test_biderivation_defects_of_identity_pair():
    A = builtin("leibniz_2dim_nonlie")
    one = [[F(1), F(0)], [F(0), F(1)]]
    assert list(defining_defects("biderivations", A, (one, one))) == [
        ("derivation", (1, 1), [-1, 0]),
        ("antiderivation", (1, 1), [1, 0]),
    ]


def _pairs(field):
    """(name, acting, kernel, variety) of the pairs whose homomorphisms into
    the weak actor are swept."""
    F1, L2 = builtin("abelian(1)", field), builtin("leibniz_2dim_nonlie", field)
    out = [(f"{b},{x}", B, X, "leibniz")
           for (b, B), (x, X) in product((("F1", F1), ("L2", L2)), repeat=2)]
    if field == GF(3):
        P1 = builtin("poisson_abelian(1)", field)
        T = builtin("assoc_triangular", field)
        Z1, Z2 = (Algebra.from_entries(field, n, [{}]) for n in (1, 2))
        out += [("P1,P1", P1, P1, "poisson"), ("P1,P1", P1, P1, "cpoisson"),
                ("T,Z1", T, Z1, "associative"), ("Z1,Z2", Z1, Z2, "associative")]
    return out


def _homomorphisms(B, space):
    """Every homomorphism from B into the space's induced algebra, by
    trying every matrix over the prime field."""
    actor, nb = space.as_algebra(), B.dim
    for flat in product(range(B.field.p), repeat=space.dim * nb):
        matrix = [list(flat[t * nb:(t + 1) * nb]) for t in range(space.dim)]
        if is_homomorphism(matrix, B, actor).holds:
            yield matrix


def _acting_reports():
    reports = []
    for field in (GF(3), GF(5)):
        for name, B, X, variety in _pairs(field):
            space = weak_actor(X, variety)
            for matrix in _homomorphisms(B, space):
                report = is_acting_morphism(matrix, B, X, variety, space=space)
                reports.append({"field": repr(field), "pair": name, "variety": variety,
                                "matrix": matrix, "report": report.to_json_dict(field)})
    return reports


def test_acting_reports_digest():
    reports = _acting_reports()
    verdicts = Counter((r["variety"], r["report"]["acting"]) for r in reports)
    # the digest only guards what the sweep reaches: non-acting homomorphisms
    # of the Leibniz and associative criteria are among the reports
    assert verdicts[("leibniz", False)] > 0 and verdicts[("associative", False)] > 0
    assert _digest(reports) == ACTING_DIGEST


def test_poisson_non_acting_morphism():
    # e -> (l, r, k) = (E12, E21, 0): l and r do not commute at a = e_0
    field = GF(3)
    P1, P2 = builtin("poisson_abelian(1)", field), builtin("poisson_abelian(2)", field)
    space = weak_actor(P2, "poisson")
    E12, E21, zero = [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[0, 0], [0, 0]]
    matrix = linalg.mat_from_cols(field, [space.coords((E12, E21, zero))], space.dim)
    report = is_acting_morphism(matrix, P1, P2, "poisson", space=space)
    assert report.to_json_dict(field) == {"acting": False, "witness": [0, 0, 0],
                                          "defect": ["1", "0"]}


def _enumerate_outputs(tmp_path):
    field = GF(3)
    F1, L2 = builtin("abelian(1)", field), builtin("leibniz_2dim_nonlie", field)
    P1 = builtin("poisson_abelian(1)", field)
    outputs = []
    for B, X, variety in ((F1, F1, "leibniz"), (F1, L2, "leibniz"), (L2, F1, "leibniz"),
                          (P1, P1, "poisson"), (P1, P1, "cpoisson")):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"variety": variety, "acting": B.to_json_dict(),
                                    "kernel": X.to_json_dict()}))
        out = io.StringIO()
        assert main(["enumerate", str(path), "--json"], out=out, err=io.StringIO()) == 0
        outputs.append(out.getvalue())
    return outputs


def test_enumerate_outputs_digest(tmp_path):
    assert _digest(_enumerate_outputs(tmp_path)) == ENUMERATE_DIGEST
