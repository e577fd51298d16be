"""The four workloads: their inputs, job mixes and output checks.

A workload is an endless stream of CLI jobs, cut into cycles.  Each cycle
holds the workload's fixed job mix in an order shuffled from the seed, and
cycle ``k`` of seed ``s`` is the same on every run.  Inputs are JSON files
written into a scratch directory before the cycle runs; the program under
test sees only those files and the command line.

Every check here is independent of the program's own code paths except the
references that the checks compare against, which are computed before any
job is timed: the operator-space dimension of the algebra without the change
of basis, and the action count of the morphism route.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# -- algebras as plain JSON ---------------------------------------------------


def algebra_json(p, dim, ops):
    """An algebra file: ``ops`` is a list of (name, {(i, j, k): int}).

    ``p`` is None for Q or the prime of GF(p).  Entries are written sorted
    and reduced, which is the program's own canonical form.
    """
    out_ops = []
    for name, entries in ops:
        rows = []
        for (i, j, k), c in sorted(entries.items()):
            c = c % p if p else c
            if c:
                rows.append([i, j, k, str(c)])
        out_ops.append({"name": name, "entries": rows})
    return {"field": {"p": p} if p else "Q", "dim": dim, "ops": out_ops}


def matrix_algebra(n, upper):
    """Full (M_n) or upper-triangular (T_n) matrix algebra on the E_ij basis."""
    idx = [(i, j) for i in range(n) for j in range(n) if not upper or i <= j]
    pos = {e: k for k, e in enumerate(idx)}
    prod = {}
    for a, (i, j) in enumerate(idx):
        for b, (k, l) in enumerate(idx):
            if j == k:
                prod[(a, b, pos[(i, l)])] = 1
    return len(idx), prod


def commutator(prod):
    br = {}
    for (a, b, c), v in prod.items():
        br[(a, b, c)] = br.get((a, b, c), 0) + v
        br[(b, a, c)] = br.get((b, a, c), 0) - v
    return {k: v for k, v in br.items() if v}


def unimodular(dim, rng):
    """A random integer matrix of determinant 1 and its integer inverse.

    P = L U with unit-triangular L, U whose off-diagonal entries are random
    signs.  No entry is zero, so every change of basis mixes all basis
    vectors and jobs of one kind cost about the same.
    """
    L = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0) for j in range(dim)]
         for i in range(dim)]
    U = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0) for j in range(dim)]
         for i in range(dim)]

    def mul(A, B):
        return [[sum(A[i][k] * B[k][j] for k in range(dim)) for j in range(dim)]
                for i in range(dim)]

    def unit_tri_inverse(T, lower):
        X = [[0] * dim for _ in range(dim)]
        order = range(dim) if lower else range(dim - 1, -1, -1)
        for col in range(dim):
            for i in order:
                X[i][col] = (i == col) - sum(T[i][k] * X[k][col] for k in range(dim) if k != i)
        return X

    return mul(L, U), mul(unit_tri_inverse(U, False), unit_tri_inverse(L, True))


def change_basis(entries, dim, P, Pinv):
    """Structure constants in the basis f_i = sum_a P[a][i] e_a."""
    out = {}
    for i in range(dim):
        for j in range(dim):
            vec = [0] * dim
            for (a, b, c), v in entries.items():
                x = P[a][i] * P[b][j] * v
                if x:
                    vec[c] += x
            for k in range(dim):
                s = sum(Pinv[k][c] * vec[c] for c in range(dim) if vec[c])
                if s:
                    out[(i, j, k)] = s
    return out


# -- independent checks of an output algebra ---------------------------------


def _int_tensor(op):
    """{(i, j): {k: c}} for e_i e_j, scaled by the common denominator; every
    identity checked here is homogeneous in the tensor, so it holds for the
    tensor exactly when it holds for the scaled one."""
    entries = [(i, j, k, Fraction(c)) for i, j, k, c in op["entries"]]
    scale = math.lcm(*(c.denominator for *_, c in entries)) if entries else 1
    T = {}
    for i, j, k, c in entries:
        T.setdefault((i, j), {})[k] = int(c * scale)
    return T


def identity_holds(tag, algebra, p):
    """``lie``, ``leibniz_right`` or ``associative`` on every basis triple,
    over Q (``p`` None) or GF(p)."""
    n = algebra["dim"]
    T = _int_tensor(algebra["ops"][0 if tag == "associative" else -1])
    empty = {}

    def right(u, k):  # u e_k
        out = {}
        for a, x in u.items():
            for c, y in T.get((a, k), empty).items():
                out[c] = out.get(c, 0) + x * y
        return out

    def left(i, u):  # e_i u
        out = {}
        for a, x in u.items():
            for c, y in T.get((i, a), empty).items():
                out[c] = out.get(c, 0) + x * y
        return out

    def zero(*signed):
        total = {}
        for sign, vec in signed:
            for c, x in vec.items():
                total[c] = total.get(c, 0) + sign * x
        return all((x % p if p else x) == 0 for x in total.values())

    pair = lambda i, j: T.get((i, j), empty)
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    if tag == "lie":
        return (all(zero((1, pair(i, j)), (1, pair(j, i))) for i in range(n) for j in range(n))
                and all(zero((1, right(pair(i, j), k)), (1, right(pair(j, k), i)),
                             (1, right(pair(k, i), j))) for i, j, k in triples))
    if tag == "leibniz_right":
        return all(zero((1, right(pair(i, j), k)), (-1, right(pair(i, k), j)),
                        (-1, left(i, pair(j, k)))) for i, j, k in triples)
    return all(zero((1, right(pair(i, j), k)), (-1, left(i, pair(j, k))))
               for i, j, k in triples)


# -- jobs and workloads -------------------------------------------------------


@dataclass
class Job:
    label: str  # the size class: which command on which input
    argv: list
    check: object  # check(code, stdout) -> None, or a reason the output is wrong
    memo: bool = False  # same input every cycle: an output seen correct stays correct
    input: tuple = ()  # (loader kind, path) of the input file, if any
    info: dict = field(default_factory=dict)


class Workload:
    """A seeded job stream; subclasses define the mix and the checks."""

    name = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def write(self, name, data):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def rng(self, cycle):
        return random.Random(f"{self.name}:{self.seed}:{cycle}")

    def prepare(self):
        """Write fixed inputs and compute references; runs before timing."""

    def cycle(self, k):
        """The jobs of cycle ``k``, with their input files written."""
        raise NotImplementedError


class DenseWorkload(Workload):
    """``space --json`` on matrix algebras under a fresh change of basis.

    Bases: T2 (dim 3), M2 (dim 4), T3 (dim 6) as associative algebras
    (bimultipliers), their commutator Lie algebras (derivations,
    biderivations) and the noncommutative Poisson pair of product and
    commutator (usga-poisson).
    """

    p = None
    MIX = ()  # (base, family, kind, jobs per cycle)
    BASES = {"T2": (2, True), "M2": (2, False), "T3": (3, True)}
    IDENTITY = {"derivations": "lie", "biderivations": "leibniz_right",
                "bimultipliers": "associative"}

    def _raw_ops(self, base, family):
        dim, prod = matrix_algebra(*self.BASES[base])
        if family == "assoc":
            return dim, [("mul", prod)]
        if family == "lie":
            return dim, [("bracket", commutator(prod))]
        return dim, [("mul", prod), ("bracket", commutator(prod))]

    def prepare(self):
        from algact import Algebra, space_of_kind

        self.ref_dim = {}
        for base, family, kind, _ in self.MIX:
            if (base, family, kind) not in self.ref_dim:
                dim, ops = self._raw_ops(base, family)
                A = Algebra.from_json_dict(algebra_json(self.p, dim, ops))
                self.ref_dim[(base, family, kind)] = space_of_kind(A, kind).dim

    def cycle(self, k):
        rng = self.rng(k)
        specs = [(b, f, kind) for b, f, kind, w in self.MIX for _ in range(w)]
        rng.shuffle(specs)
        jobs = []
        for pos, (base, family, kind) in enumerate(specs):
            dim, ops = self._raw_ops(base, family)
            P, Pinv = unimodular(dim, rng)
            data = algebra_json(
                self.p, dim, [(name, change_basis(e, dim, P, Pinv)) for name, e in ops])
            path = self.write(f"job{pos}.json", data)
            jobs.append(Job(
                label=f"{base}.{family}/{kind}",
                argv=["space", path, "--kind", kind, "--json"],
                check=self._checker(data, kind, self.ref_dim[(base, family, kind)]),
                input=("algebra", path),
            ))
        return jobs

    def _checker(self, data, kind, ref_dim):
        p = self.p

        def check(code, stdout):
            if code != 0:
                return f"exit code {code}"
            out = json.loads(stdout)
            if out["kind"] != kind or out["base"] != data:
                return "output names another kind or base algebra"
            if out["dim"] != ref_dim or len(out["basis"]) != ref_dim:
                return f"dimension {out['dim']}, expected {ref_dim}"
            tag = self.IDENTITY.get(kind)
            if tag and ref_dim and not identity_holds(
                    tag, {"dim": ref_dim, "ops": out["ops"]}, p):
                return f"induced algebra fails {tag}"
            return None

        return check


class DenseQ(DenseWorkload):
    """Over Q.  T3 is left out here: one T3 job takes 1-30 s over Q, which
    does not fit a hundred jobs into one run; it runs in ``dense-gf``."""

    name = "dense-q"
    p = None
    MIX = (
        ("T2", "assoc", "bimultipliers", 3),
        ("T2", "lie", "derivations", 9),
        ("T2", "lie", "biderivations", 1),
        ("T2", "pois", "usga-poisson", 3),
        ("M2", "assoc", "bimultipliers", 4),
        ("M2", "lie", "derivations", 2),
        ("M2", "lie", "biderivations", 1),
    )


class DenseGF(DenseWorkload):
    """Over GF(7).  Three M2 bimultiplier jobs sit at the middle of each
    cycle's sorted job times, so the p50 falls inside one kind of job."""

    name = "dense-gf"
    p = 7
    MIX = (
        ("T2", "assoc", "bimultipliers", 2),
        ("T2", "lie", "derivations", 2),
        ("T2", "lie", "biderivations", 2),
        ("T2", "pois", "usga-poisson", 2),
        ("M2", "assoc", "bimultipliers", 3),
        ("M2", "lie", "derivations", 2),
        ("M2", "lie", "biderivations", 2),
        ("M2", "pois", "usga-poisson", 1),
        ("T3", "lie", "derivations", 2),
        ("T3", "assoc", "bimultipliers", 2),
        ("T3", "lie", "biderivations", 2),
    )


class Closure(Workload):
    """``space --json`` on abelian algebras, whose linear systems have no
    rows, and ``repro --json``; the same inputs every cycle."""

    name = "closure"
    # (algebra, n, kind, field) -> expected dimension n^2 * factor
    SPACES = (
        ("abelian", 2, "biderivations", None),
        ("abelian", 3, "biderivations", None),
        ("poisson_abelian", 2, "usga-poisson", None),
        ("poisson_abelian", 2, "usga-cpoisson", None),
        ("poisson_abelian", 3, "usga-cpoisson", None),
        ("abelian", 3, "biderivations", 5),
        ("abelian", 4, "biderivations", 5),
        ("abelian", 5, "biderivations", 5),
        ("poisson_abelian", 2, "usga-poisson", 5),
        ("poisson_abelian", 3, "usga-poisson", 5),
        ("poisson_abelian", 3, "usga-cpoisson", 5),
        ("poisson_abelian", 4, "usga-cpoisson", 5),
    )
    DIM_FACTOR = {"biderivations": 2, "usga-poisson": 3, "usga-cpoisson": 2}
    # (field, jobs per cycle); three repro/5 jobs sit at the middle of each
    # cycle's sorted job times, so the p50 falls inside one kind of job
    REPROS = (("Q", 1), ("5", 3))

    def prepare(self):
        self.jobs = []
        for alg, n, kind, p in self.SPACES:
            ops = [("bracket", {})] if alg == "abelian" else [("mul", {}), ("bracket", {})]
            data = algebra_json(p, n, ops)
            path = self.write(f"{alg}{n}-{p or 'Q'}.json", data)
            expected = self.DIM_FACTOR[kind] * n * n
            self.jobs.append(Job(
                label=f"{alg}({n})/{kind}/{p or 'Q'}",
                argv=["space", path, "--kind", kind, "--json"],
                check=self._space_checker(data, kind, expected, p),
                memo=True,
                input=("algebra", path),
            ))
        for fld, count in self.REPROS:
            self.jobs += count * [Job(
                label=f"repro/{fld}",
                argv=["repro", "--field", fld, "--json"],
                check=self._repro_checker(fld),
                memo=True,
            )]

    @staticmethod
    def _space_checker(data, kind, expected, p):
        def check(code, stdout):
            if code != 0:
                return f"exit code {code}"
            out = json.loads(stdout)
            if out["kind"] != kind or out["base"] != data:
                return "output names another kind or base algebra"
            if out["dim"] != expected or len(out["basis"]) != expected:
                return f"dimension {out['dim']}, expected {expected}"
            if kind == "biderivations" and not identity_holds(
                    "leibniz_right", {"dim": expected, "ops": out["ops"]}, p):
                return "induced bracket fails leibniz_right"
            return None

        return check

    @staticmethod
    def _repro_checker(fld):
        field_json = "Q" if fld == "Q" else {"p": int(fld)}

        def check(code, stdout):
            if code != 0:
                return f"exit code {code}"
            out = json.loads(stdout)
            if out["field"] != field_json or out["pass"] is not True:
                return "repro did not pass"
            if not out["facts"] or not all(f["pass"] for f in out["facts"]):
                return "a fact did not pass"
            return None

        return check

    def cycle(self, k):
        jobs = list(self.jobs)
        self.rng(k).shuffle(jobs)
        return jobs


class Enumerate(Workload):
    """``enumerate --json`` over GF(3) on the pairs that brute force can
    afford, and ``action validate --json`` on every catalog action."""

    name = "enumerate"
    P = 3
    F1 = (1, [("bracket", {})])
    L2 = (2, [("bracket", {(1, 1, 0): 1})])
    P1 = (1, [("mul", {}), ("bracket", {})])
    # (acting, kernel, variety, jobs per cycle); three (L2, F1) jobs make the
    # top tenth of each cycle one kind of job, which steadies the p90
    PAIRS = (
        ("F1", "F1", "leibniz", 1),
        ("F1", "L2", "leibniz", 1),
        ("L2", "F1", "leibniz", 3),
        ("P1", "P1", "poisson", 1),
        ("P1", "P1", "cpoisson", 1),
    )

    @staticmethod
    def slots(variety, nb, nx):
        """Tensor entries of an action of a dim-nb algebra on a dim-nx one."""
        slots = nb * nx * nx
        if variety != "cpoisson":
            slots += nx * nb * nx
        if variety in ("poisson", "cpoisson"):
            slots += nb * nx * nx
        return slots

    def prepare(self):
        from algact import Algebra, GF
        from algact.actions import enumerate_acting_morphisms
        from algact.catalog import catalog_actions

        self.jobs = []
        for b, x, variety, count in self.PAIRS:
            (nb, bops), (nx, xops) = getattr(self, b), getattr(self, x)
            data = {"variety": variety,
                    "acting": algebra_json(self.P, nb, bops),
                    "kernel": algebra_json(self.P, nx, xops)}
            path = self.write(f"pair-{b}-{x}-{variety}.json", data)
            budget = self.P ** self.slots(variety, nb, nx)
            B = Algebra.from_json_dict(data["acting"])
            X = Algebra.from_json_dict(data["kernel"])
            _, homs = enumerate_acting_morphisms(B, X, variety, budget=self.P ** 12)
            self.jobs += count * [Job(
                label=f"enumerate/{b},{x}/{variety}",
                argv=["enumerate", path, "--budget", str(budget), "--json"],
                check=self._enumerate_checker(len(homs)),
                memo=True,
                input=("pair", path),
                info={"assignments": budget, "actions": len(homs)},
            )]
        for pos, (name, action) in enumerate(catalog_actions(GF(self.P))):
            data = action.to_json_dict()
            path = self.write(f"action{pos}.json", data)
            self.jobs.append(Job(
                label=f"validate/{name}",
                argv=["action", "validate", path, "--json"],
                check=self._validate_checker(data["variety"]),
                memo=True,
                input=("action", path),
            ))

    @staticmethod
    def _enumerate_checker(expected):
        def check(code, stdout):
            if code != 0:
                return f"exit code {code}"
            out = json.loads(stdout)
            if out["count"] != expected or len(out["actions"]) != expected:
                return f"{out['count']} actions, the morphism route gives {expected}"
            return None

        return check

    @staticmethod
    def _validate_checker(variety):
        def check(code, stdout):
            if code != 0:
                return f"exit code {code}"
            out = json.loads(stdout)
            if out["variety"] != variety or out["pass"] is not True:
                return "a catalog action did not validate"
            if not all(c["holds"] for c in out["conditions"].values()):
                return "a condition failed"
            return None

        return check

    def cycle(self, k):
        jobs = list(self.jobs)
        self.rng(k).shuffle(jobs)
        return jobs


WORKLOADS = {w.name: w for w in (DenseQ, DenseGF, Closure, Enumerate)}
