"""Digests of full validation and operator-space reports.

Criterion 2 compares only verdicts.  These digests pin the report contents
(labels, witnesses, defect values, canonical bases, induced tensors and the
errors of refused inputs), so that a change to how the defining laws are
assembled or evaluated cannot alter any of them unnoticed.  The expected
values were recorded before the laws moved into one table.
"""

import hashlib
import json
import random
from collections import Counter

from fractions import Fraction as F

from algact.actions import ActionData, validate_action
from algact.catalog import builtin, catalog_actions, catalog_algebras
from algact.errors import AlgactError
from algact.fields import GF, Q
from algact.opspace import SPACE_KINDS, defining_defects, space_of_kind

FIELDS = (Q, GF(3), GF(5))
MUTATIONS_PER_ACTION = 20

VALIDATION_DIGEST = "5e99e6fa41de4c3883d8fd493633d22b713a04c45d88a17262b9c03ce95736e5"
SPACE_DIGEST = "1d6112c67f736d9c0b1462eb39d0d5512b78aac870943739d0b40ee4f925a316"


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
