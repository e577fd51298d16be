"""Digests of full validation, operator-space, acting, enumeration,
split-extension, search, commutation and identity reports.

Criterion 2 compares only verdicts.  These digests pin the report contents
(labels, witnesses, defect values, canonical bases, induced tensors and the
errors of refused inputs), so that a change to how the defining laws are
assembled or evaluated cannot alter any of them unnoticed.  The validation
and space digests were recorded before the laws moved into one table; the
acting and enumeration digests before enumeration moved onto the weak actor;
the extension, hunt and commutation digests before derived algebras were
built from their product rule; the identity digest before the identities of
an algebra moved into the law table.  The extension digest was re-recorded
once, when extraction began refusing exactly what ``validate()`` reports.
"""

import hashlib
import io
import json
import random
from collections import Counter
from itertools import product

from fractions import Fraction as F

from algact import linalg
from algact.actions import (
    VARIETIES,
    ActionData,
    SplitExtension,
    extract_action,
    is_acting_morphism,
    semidirect,
    semidirect_algebra,
    validate_action,
    weak_actor,
)
from algact.algebra import IDENTITY_TAGS, Algebra, check_identity
from algact.catalog import builtin, catalog_actions, catalog_algebras
from algact.cli import main
from algact.errors import AlgactError
from algact.fields import GF, Q
from algact.opspace import SPACE_KINDS, check_bim_commutation, defining_defects, space_of_kind

import oracle

FIELDS = (Q, GF(3), GF(5))
MUTATIONS_PER_ACTION = 20

VALIDATION_DIGEST = "5e99e6fa41de4c3883d8fd493633d22b713a04c45d88a17262b9c03ce95736e5"
SPACE_DIGEST = "1d6112c67f736d9c0b1462eb39d0d5512b78aac870943739d0b40ee4f925a316"
ACTING_DIGEST = "9bfd08d1f21bc544b4f9fd96a6cef1e287077d6507ffd3adce0b9bf3fc2cff4a"
ENUMERATE_DIGEST = "3170579470609fee50488c7466cad958f6a9503f1716ede12e62fa183f1b2b3b"
EXTENSION_DIGEST = "3bb31c4e89ca3fa8e198dba4f392e96878d5da70d5765e26bb065445bcbd555d"
HUNT_DIGEST = "27adb92ba0d70fbbd8388ae06a9da811bcec3750fff0e95e718fe16706cd7a43"
COMMUTATION_DIGEST = "5b47a0d563928f3a54dd5be76232798c6a355d9316ad0ab0ba779f26f1a87101"
IDENTITY_DIGEST = "14104bdb6f0eb8bcea7713a2f96391ae5e14e202eebf7cc51a40147e0a4ba3be"


def _digest(items) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _mutate(rng, act):
    """Add a nonzero scalar to one or two entries of the action tensors, as
    the action file holds them."""
    f = act.field
    nb, nx = act.acting.dim, act.kernel.dim
    data = act.to_json_dict()
    shapes = {"l": (nb, nx), "r": (nx, nb), "bracket_action": (nb, nx)}
    tensors = {}
    for key, (a, b) in shapes.items():
        if key in data:
            t = tensors[key] = [[[f.zero] * nx for _ in range(b)] for _ in range(a)]
            for i, j, m, c in data[key]:
                t[i][j][m] = f.of(c)
    for _ in range(1 + rng.randrange(2)):
        t = list(tensors.values())[rng.randrange(len(tensors))]
        i = rng.randrange(len(t))
        j = rng.randrange(len(t[i]))
        m = rng.randrange(len(t[i][j]))
        t[i][j][m] = f.add(t[i][j][m], f.of(rng.choice((1, 2, -1))))
    for key, t in tensors.items():
        data[key] = [[i, j, m, f.to_str(c)] for i, row in enumerate(t)
                     for j, vec in enumerate(row) for m, c in enumerate(vec) if c]
    return ActionData.from_json_dict(data)


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
    assert [hit[1:] for hit in defining_defects("biderivations", A, [(one, one)])] == [
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


def _acting_reports():
    reports = []
    for field in (GF(3), GF(5)):
        for name, B, X, variety in _pairs(field):
            space = weak_actor(X, variety)
            for mor in oracle.matrix_walk_homomorphisms(B, space):
                report = is_acting_morphism(mor)
                reports.append({"field": repr(field), "pair": name, "variety": variety,
                                "matrix": mor.matrix, "report": report.to_json_dict(field)})
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
    matrix = linalg.mat_from_cols([space.coords((E12, E21, zero))], space.dim)
    report = is_acting_morphism(space.morphism(P1, matrix))
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


def _outcome(fn):
    """The value of fn(), or the class and message of the error it raises."""
    try:
        return fn()
    except AlgactError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _extension_report(E):
    report = {"validate": E.validate()}
    for variety in VARIETIES:
        report[variety] = _outcome(lambda: extract_action(E, variety).to_json_dict())
    return report


def _perturb(rng, E):
    """A copy of E with one entry of the kernel injection or the section changed."""
    f = E.field
    inj = [list(row) for row in E.kernel_inj]
    sec = [list(row) for row in E.section]
    M = rng.choice([M for M in (inj, sec) if M and M[0]])
    i, j = rng.randrange(len(M)), rng.randrange(len(M[0]))
    M[i][j] = f.add(M[i][j], f.of(rng.choice((1, 2, -1))))
    return SplitExtension(E.total, inj, E.retraction, sec)


def _hand_built_extensions(field):
    """Extensions that reach the refusals no catalog action reaches."""
    one, zero = field.one, field.zero
    lie2 = builtin("lie_2dim_nonabelian", field)
    sl2 = builtin("sl2", field)
    return [
        # the retraction does not split: zero section
        ("zero-section", SplitExtension(lie2, [[zero], [one]], [[one, zero]], [[zero], [zero]])),
        # the retraction is zero, so it is not surjective
        ("zero-retraction", SplitExtension(lie2, [[zero], [one]], [[zero, zero]], [[one], [zero]])),
        # base 1 + kernel 0 against a total of dimension 2
        ("dimensions-do-not-add-up", SplitExtension(lie2, [[], []], [[one, zero]], [[one], [zero]])),
        # [e1, e2] = e1 leaves span{e2}: l value outside the kernel image
        ("bracket-leaves-kernel", SplitExtension(lie2, [[zero], [one]], [[one, zero]], [[one], [zero]])),
        # span{e, f} in sl2 is not closed: [e, f] = h
        ("kernel-not-closed", SplitExtension(
            sl2, [[one, zero], [zero, one], [zero, zero]], [[zero, zero, one]],
            [[zero], [zero], [one]])),
    ]


def _extension_reports(report=_extension_report):
    """``report`` of each extension of the corpus: the semidirect product of
    every action that has one, four seeded perturbations of it and the
    hand-built extensions, over each field."""
    rng = random.Random(20261018)
    reports = []
    for field in FIELDS:
        named = catalog_actions(field) + [("metere_action", builtin("metere_action", field))]
        for name, act in named:
            entry = {"field": repr(field), "action": name,
                     "semidirect_algebra": semidirect_algebra(act).to_json_dict(),
                     "semidirect": _outcome(lambda: semidirect(act).to_json_dict())}
            if "error" not in entry["semidirect"]:
                E = semidirect(act)
                entry["extension"] = report(E)
                entry["perturbed"] = [report(_perturb(rng, E)) for _ in range(4)]
            reports.append(entry)
        for name, E in _hand_built_extensions(field):
            reports.append({"field": repr(field), "hand_built": name,
                            "report": report(E)})
    return reports


def test_extension_reports_digest():
    reports = _extension_reports()
    messages = Counter(
        r[v]["message"]
        for entry in reports
        for r in [entry.get("report")] + [entry.get("extension")] + entry.get("perturbed", [])
        if r is not None
        for v in VARIETIES
        if "error" in r[v]
    )
    # the digest only guards what the inputs reach: every refusal of
    # extract_action is among the reports
    for needle in ("do not add up", "retraction . section", "retraction . kernel_inj",
                   "not injective", "not closed under operation", "retraction is not a hom",
                   "section is not a hom", "operation count", "not commutative"):
        assert any(needle in m for m in messages), (needle, messages)
    assert _digest(reports) == EXTENSION_DIGEST


HUNT_RUNS = ((3, 2, 3000, 0), (3, 1, 200, 1), (5, 1, 300, 2), (3, 3, 800, 3),
             (5, 2, 1500, 4), (3, 0, 5, 0), (7, 4, 40, 5))


def test_hunt_outputs_digest():
    outputs = []
    for p, dim, samples, seed in HUNT_RUNS:
        out = io.StringIO()
        argv = ["hunt", "--p", str(p), "--dim", str(dim), "--samples", str(samples),
                "--seed", str(seed), "--json"]
        assert main(argv, out=out, err=io.StringIO()) == 0
        outputs.append(out.getvalue())
    assert _digest(outputs) == HUNT_DIGEST


def _random_associative(rng, field, dim):
    """A seeded sparse random product that happens to be associative."""
    while True:
        entries = {(i, j, k): rng.randrange(1, field.p)
                   for i, j, k in product(range(dim), repeat=3) if rng.randrange(2 * dim) == 0}
        A = Algebra.from_entries(field, dim, [entries])
        if check_identity(A, "associative").holds:
            return A


def _commutation_reports():
    reports = []
    for field in FIELDS:
        for name, A, _ in catalog_algebras(field):
            rep = _outcome(lambda: vars(check_bim_commutation(A)))
            reports.append({"field": repr(field), "algebra": name, "report": rep})
    rng = random.Random(20261019)
    for field in (GF(3), GF(5)):
        for dim in (1, 2, 3):
            for _ in range(20):
                A = _random_associative(rng, field, dim)
                rep = check_bim_commutation(A)
                reports.append({"field": repr(field), "algebra": A.to_json_dict(),
                                "report": vars(rep)})
    return reports


def test_commutation_reports_digest():
    reports = _commutation_reports()
    verdicts = Counter(r["report"].get("holds") for r in reports)
    # the digest only guards what the inputs reach: both verdicts occur
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts
    assert _digest(reports) == COMMUTATION_DIGEST


def _random_op(rng, field, dim, alternating):
    """Seeded sparse random structure constants, alternating if asked."""
    scalars = (1, 2, -1, F(1, 2)) if field == Q else range(1, field.p)
    entries = {}
    for i, j, k in product(range(dim), repeat=3):
        if rng.randrange(2 * dim) == 0 and not (alternating and i >= j):
            entries[(i, j, k)] = rng.choice(scalars)
            if alternating:
                entries[(j, i, k)] = field.neg(field.of(entries[(i, j, k)]))
    return entries


def _random_algebra(rng, field, dim, num_ops, alternating):
    """One or two random operations.  An alternating bracket reaches the
    Jacobi check; with two operations the product is then redrawn until it
    is associative, so the Poisson compatibility check is reached too."""
    bracket = _random_op(rng, field, dim, alternating)
    while True:
        ops = [_random_op(rng, field, dim, False), bracket][-num_ops:]
        A = Algebra.from_entries(field, dim, ops)
        if num_ops == 1 or not alternating or check_identity(A, "associative").holds:
            return A


def _identity_reports():
    algebras = [(repr(field), name, A) for field in FIELDS
                for name, A, _ in catalog_algebras(field)]
    rng = random.Random(20261020)
    for field in FIELDS:
        for num_ops, dim, alternating in product((1, 2), (1, 2, 3), (False, True)):
            for _ in range(5):
                A = _random_algebra(rng, field, dim, num_ops, alternating)
                algebras.append((repr(field), A.to_json_dict(), A))
    return [{"field": field, "algebra": name, "tag": tag,
             "report": _outcome(lambda: check_identity(A, tag).to_json_dict(A.field))}
            for field, name, A in algebras for tag in IDENTITY_TAGS]


def test_identity_reports_digest():
    reports = _identity_reports()
    parts = Counter((r["tag"], r["report"].get("failed_part", r["report"].get("error")))
                    for r in reports)
    # the digest only guards what the inputs reach: every tag holds somewhere,
    # and fails somewhere at each of its parts
    expected = {(tag, None) for tag in IDENTITY_TAGS} | {
        (tag, tag) for tag in ("associative", "commutative", "anticommutative",
                               "leibniz_right", "jacobi", "jordan")} | {
        ("lie", "anticommutative"), ("lie", "jacobi"), ("poisson", "associative"),
        ("poisson", "anticommutative"), ("poisson", "jacobi"),
        ("poisson", "poisson_compat"), ("poisson", "OpArityMismatch"),
        ("jordan", "commutative")}
    assert expected <= set(parts), expected - set(parts)
    assert _digest(reports) == IDENTITY_DIGEST
