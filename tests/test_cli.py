import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algact.actions import DEFAULT_BUDGET, semidirect
from algact.catalog import MorphismData, biadjoint_action, builtin, catalog_algebras
from algact.cli import build_parser, main
from algact.errors import AlgactError
from algact.fields import GF, Q
from algact.opspace import SPACE_KINDS, space_of_kind


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def files(tmp_path):
    paths = {}

    def save(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        paths[name] = str(p)
        return str(p)

    save("p_abelian2.json", builtin("poisson_abelian(2)").to_json_dict())
    save("leib2.json", builtin("leibniz_2dim_nonlie").to_json_dict())
    save("metere.json", builtin("metere_morphism").to_json_dict())
    save("biadj.json", biadjoint_action(builtin("leibniz_2dim_nonlie")).to_json_dict())
    save("metere_action.json", builtin("metere_action").to_json_dict())
    F1 = builtin("abelian(1)", GF(3))
    save(
        "pair.json",
        {
            "variety": "leibniz",
            "acting": F1.to_json_dict(),
            "kernel": F1.to_json_dict(),
        },
    )
    paths["tmp"] = str(tmp_path)
    return paths


def test_check_holds(files):
    code, out, _ = run_cli("check", files["p_abelian2.json"], "--identity", "poisson")
    assert code == 0
    assert "holds" in out


def test_check_fails_with_witness(files):
    code, out, _ = run_cli("check", files["leib2.json"], "--identity", "lie")
    assert code == 1
    assert "fails" in out and "witness" not in out  # human line shows the tuple itself
    assert "(1, 1)" in out


def test_space_then_check_pipeline(files, tmp_path):
    out_path = str(tmp_path / "usga.json")
    code, out, _ = run_cli(
        "space", files["p_abelian2.json"], "--kind", "usga-poisson", "-o", out_path
    )
    assert code == 0
    assert "dimension 12" in out
    code, out, _ = run_cli("check", out_path, "--identity", "lie")
    assert code == 1  # skew-symmetry fails in the actor space of the plane


def test_space_antiderivations_output_is_input_error(files, tmp_path):
    code, _, err = run_cli(
        "space", files["leib2.json"], "--kind", "antiderivations",
        "-o", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "InputError" in err


def test_morphism_check_metere(files):
    code, out, _ = run_cli("morphism", "check", files["metere.json"])
    assert code == 1
    assert "(L6)" in out and "defect [2]" in out


def test_morphism_check_unpacks_the_morphism_once(files, monkeypatch):
    from algact import actions

    calls = []
    unpack = actions._unpack
    monkeypatch.setattr(actions, "_unpack", lambda *args: calls.append(args) or unpack(*args))
    code, _, _ = run_cli("morphism", "check", files["metere.json"])
    assert code == 1
    assert len(calls) == 1


def test_morphism_check_metere_json(files):
    code, out, _ = run_cli("morphism", "check", files["metere.json"], "--json")
    assert code == 1
    assert out == (
        '{"acting":false,"defect":["2"],"failed_conditions":["L6"],"witness":[0,0,0]}\n'
    )


def test_morphism_check_zero_morphism_json(tmp_path):
    F1 = builtin("abelian(1)")
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(MorphismData("leibniz", F1, F1, [([[0]], [[0]])]).to_json_dict()))
    code, out, _ = run_cli("morphism", "check", str(path), "--json")
    assert code == 0
    assert out == '{"acting":true}\n'


@pytest.mark.parametrize("field", [Q, GF(3)], ids=["Q", "GF3"])
def test_space_json_matches_library(field, tmp_path):
    path = tmp_path / "algebra.json"
    checked = 0
    for name, A, _ in catalog_algebras(field):
        path.write_text(json.dumps(A.to_json_dict()))
        for kind in SPACE_KINDS:
            try:
                expected = space_of_kind(A, kind).to_json_dict()
            except AlgactError:
                continue
            code, out, _ = run_cli("space", str(path), "--kind", kind, "--json")
            assert code == 0, (name, kind)
            assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
            checked += 1
    assert checked > len(SPACE_KINDS)


def test_morphism_check_poisson_inner_acting(tmp_path):
    from algact.catalog import MorphismData
    from algact.opspace import inner_tuple

    V = builtin("poisson_triangular")
    images = [inner_tuple(V, "usga-poisson", a) for a in range(V.dim)]
    mor = MorphismData("poisson", V, V, images)
    path = tmp_path / "inner.json"
    path.write_text(json.dumps(mor.to_json_dict()))
    code, out, _ = run_cli("morphism", "check", str(path))
    assert code == 0
    assert "acting" in out


def test_action_validate_pass_and_fail(files):
    code, out, _ = run_cli("action", "validate", files["biadj.json"])
    assert code == 0 and "valid" in out
    code, out, _ = run_cli("action", "validate", files["metere_action.json"])
    assert code == 1
    assert "(L6) FAILS" in out


def test_action_validate_json_metere(files):
    code, out, _ = run_cli("action", "validate", files["metere_action.json"], "--json")
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    failed = {label: c for label, c in report["conditions"].items() if not c["holds"]}
    assert failed == {"L6": {"holds": False, "witness": [0, 0, 0], "defect": ["2"]}}


def test_action_semidirect_extract_roundtrip(files, tmp_path):
    sd = str(tmp_path / "sd.json")
    code, out, _ = run_cli("action", "semidirect", files["biadj.json"], "-o", sd)
    assert code == 0
    code, out, _ = run_cli("action", "extract", sd, "--variety", "leibniz", "--json")
    assert code == 0
    extracted = json.loads(out)
    original = json.loads(Path(files["biadj.json"]).read_text())
    assert extracted == json.loads(json.dumps(original, sort_keys=True))
    # with --json, semidirect prints the extension it writes
    code, out, _ = run_cli("action", "semidirect", files["biadj.json"], "-o", sd, "--json")
    assert code == 0 and out == Path(sd).read_text()
    # with -o, extract writes the action and says where
    back = str(tmp_path / "back.json")
    code, out, _ = run_cli("action", "extract", sd, "--variety", "leibniz", "-o", back)
    assert (code, out) == (0, f"derived action written to {back}\n")
    assert json.loads(Path(back).read_text()) == extracted


def test_action_extract_refuses_a_section_that_is_no_homomorphism(tmp_path):
    ext = semidirect(builtin("biadjoint(lie_2dim_nonabelian)"))
    ext.section[3][0] = Q.one
    assert ext.validate() == ["section is not a homomorphism"]
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(ext.to_json_dict()))
    code, out, err = run_cli("action", "extract", str(path), "--variety", "leibniz")
    assert (code, out) == (2, "")
    assert err == "error [NotSplit]: section is not a homomorphism\n"


def test_action_semidirect_refuses_invalid(files, tmp_path):
    code, out, _ = run_cli(
        "action", "semidirect", files["metere_action.json"],
        "-o", str(tmp_path / "no.json"),
    )
    assert code == 1
    assert "L6" in out
    # with --json it prints the validation report, and writes nothing
    code, out, _ = run_cli(
        "action", "semidirect", files["metere_action.json"],
        "-o", str(tmp_path / "no.json"), "--json",
    )
    _, report, _ = run_cli("action", "validate", files["metere_action.json"], "--json")
    assert (code, out) == (1, report)
    assert not (tmp_path / "no.json").exists()


def test_repro_field_choice():
    code, out, _ = run_cli("repro", "--field", "5")
    assert code == 0
    assert "overall: pass" in out
    # only Q, q or ASCII digits name a field: no space, "_", sign or other digits
    for text in (" 5", "0_5", "+5", "\u0665"):
        assert run_cli("repro", "--field", text)[0] == 2, text


def test_module_entry_point_matches_main():
    # the console entry point runs main on sys.argv and exits with its code
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["repro", "--field", "5", "--json"]
    proc = subprocess.run([sys.executable, "-m", "algact.cli", *argv], env=env,
                          capture_output=True, cwd=root, timeout=120)
    code, out, _ = run_cli(*argv)
    assert (proc.returncode, code) == (0, 0)
    assert proc.stdout == out.encode()


def test_main_builds_one_parser_and_keeps_no_state_between_calls(monkeypatch):
    # after a usage error, main prints what a fresh process prints
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["repro", "--field", "5", "--json"]
    proc = subprocess.run([sys.executable, "-m", "algact.cli", *argv], env=env,
                          capture_output=True, cwd=root, timeout=120)
    init, built = argparse.ArgumentParser.__init__, []

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli("space", "--kind")[0] == 2
    code, out, _ = run_cli(*argv)
    assert built.count("algact") <= 1
    assert (proc.returncode, code) == (0, 0)
    assert proc.stdout == out.encode()


def test_repro_fact_e_prints_witness():
    code, out, _ = run_cli("repro", "--fact", "e")
    assert code == 0
    assert "skew_witness" in out and "usga_dim = 12" in out


def test_repro_single_fact_json():
    code, out, _ = run_cli("repro", "--fact", "a", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert [f["id"] for f in data["facts"]] == ["a"]


def test_repro_json_byte_identical():
    c1, out1, _ = run_cli("repro", "--field", "5", "--json")
    c2, out2, _ = run_cli("repro", "--field", "5", "--json")
    assert c1 == c2 == 0
    assert out1 == out2


def test_hunt_deterministic_json():
    args = ("hunt", "--p", "3", "--dim", "1", "--samples", "60", "--seed", "4", "--json")
    c1, out1, _ = run_cli(*args)
    c2, out2, _ = run_cli(*args)
    assert c1 == c2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["counts"]["sampled"] == 60
    code, out, _ = run_cli(*args[:-1])  # without --json: the funnel, one line a stage
    assert code == 0
    assert out.splitlines()[0] == "sampled 60 structure pairs over GF(3) in dim 1"
    assert [line.split(":")[0].strip() for line in out.splitlines()[1:]] == [
        "poisson algebras", "with commuting multipliers", "actor space again poisson",
        "candidate counterexamples"]


def test_enumerate_pairfile(files):
    code, out, _ = run_cli("enumerate", files["pair.json"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    c2, out2, _ = run_cli("enumerate", files["pair.json"], "--json")
    assert out2 == out


def test_enumerate_beyond_tensor_brute_force(tmp_path):
    # 3^16 action tensors, but only 3^6 matrices into the weak actor
    L2 = builtin("leibniz_2dim_nonlie", GF(3)).to_json_dict()
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"variety": "leibniz", "acting": L2, "kernel": L2}))
    code, out, _ = run_cli("enumerate", str(path), "--json")
    assert code == 0
    assert json.loads(out)["count"] == 15


def test_enumerate_budget_flag(files):
    code, _, err = run_cli("enumerate", files["pair.json"], "--budget", "1")
    assert code == 2
    assert "BudgetExceeded" in err


def test_usage_error_exit_code():
    code, out, err = run_cli("check")  # missing required args
    assert code == 2
    assert "usage:" in err and out == ""
    code, out, err = run_cli("--help")
    assert code == 0
    assert "usage:" in out and err == ""


def test_unknown_flag_rejected(files):
    code, _, _ = run_cli("check", files["leib2.json"], "--identity", "lie", "--frob")
    assert code == 2


def test_malformed_file_is_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli("check", str(bad), "--identity", "lie")
    assert code == 2
    assert "InputError" in err
    # and a file that cannot be read at all
    code, out, err = run_cli("check", str(tmp_path / "absent.json"), "--identity", "lie")
    assert (code, out) == (2, "")
    assert err.startswith("error [InputError]: cannot read")


def test_an_output_that_cannot_be_written_is_exit_2(files, tmp_path):
    path = str(tmp_path / "no_such_dir" / "out.json")
    code, out, err = run_cli("space", files["p_abelian2.json"], "--kind", "usga-poisson", "-o", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error [InputError]: cannot write {path}")


def test_check_json_output_roundtrips(files):
    code, out, _ = run_cli("check", files["leib2.json"], "--identity", "lie", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["holds"] is False
    assert data["witness"] == [1, 1]
    assert data["defect"] == ["2", "0"]


F1_GF3 = builtin("abelian(1)", GF(3)).to_json_dict()
F2_GF3 = builtin("abelian(2)", GF(3)).to_json_dict()
F0_GF3 = builtin("abelian(0)", GF(3)).to_json_dict()
P1_GF3 = builtin("poisson_abelian(1)", GF(3)).to_json_dict()
LIE2_GF3 = builtin("lie_2dim_nonabelian", GF(3)).to_json_dict()

Q1 = builtin("abelian(1)").to_json_dict()
F1_GF5 = builtin("abelian(1)", GF(5)).to_json_dict()
L2_GF3 = builtin("leibniz_2dim_nonlie", GF(3)).to_json_dict()

# (id, command, input file contents: JSON data, or raw bytes written as they are)
BAD_INPUTS = [
    ("algebra-entry-with-3-fields", "check",
     {**F1_GF3, "ops": [{"name": "mul", "entries": [[0, 0, 0]]}]}),
    ("labels-not-a-list", "check", {**F1_GF3, "labels": 5}),
    ("dim-given-as-float", "check", {**F1_GF3, "dim": 2.7}),
    ("dim-given-as-bool", "check", {**F1_GF3, "dim": True}),
    ("algebra-entry-index-float", "check",
     {**F1_GF3, "ops": [{"name": "mul", "entries": [[0.5, 0, 0, "1"]]}]}),
    ("algebra-entry-index-string", "check",
     {**F1_GF3, "ops": [{"name": "mul", "entries": [["0", 0, 0, "1"]]}]}),
    ("action-entry-index-bool", "validate",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3, "l": [[False, 0, 0, "1"]]}),
    ("prime-given-as-string", "check", {**F1_GF3, "field": {"p": "5"}}),
    ("action-entry-with-2-fields", "validate",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3, "l": [[0, 0]]}),
    ("action-file-not-an-object", "validate", []),
    ("pair-file-not-an-object", "enumerate", []),
    ("morphism-image-too-short", "morphism",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3, "images": [[[[1]]]]}),
    ("morphism-image-wrong-size", "morphism",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3,
      "images": [[[[1, 0], [0, 1]], [[1]]]]}),
    ("morphism-five-images-into-a-zero-dimensional-weak-actor", "morphism",
     {"variety": "leibniz", "acting": F2_GF3, "kernel": F0_GF3, "images": [[[], []]] * 5}),
    ("morphism-no-images-into-a-zero-dimensional-weak-actor", "morphism",
     {"variety": "leibniz", "acting": F2_GF3, "kernel": F0_GF3, "images": []}),
    ("negative-sample-count", "hunt", {}),
    ("associative-pair-with-non-associative-kernel", "enumerate",
     {"variety": "associative", "acting": F1_GF3, "kernel": LIE2_GF3}),
    ("two-operation-acting-algebra-in-leibniz-pair", "enumerate",
     {"variety": "leibniz", "acting": P1_GF3, "kernel": F1_GF3}),
    ("split-extension-rows-given-as-strings", "extract",
     {"total": F2_GF3, "kernel_inj": ["0", "1"], "retraction": ["10"], "section": ["1", "0"]}),
    ("morphism-images-given-as-strings", "morphism",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3, "images": ["01"]}),
    ("prime-field-of-a-strong-pseudoprime", "check",
     {**F1_GF3, "field": {"p": 318665857834031151167461}}),
    ("split-extension-ragged-section", "extract",
     {"total": F2_GF3, "kernel_inj": [[0], [1]], "retraction": [[1, 0]], "section": [[1], [0, 7]]}),
    ("operation-name-not-a-string", "space",
     {**F1_GF3, "ops": [{"name": 5, "entries": []}]}),
    ("dim-beyond-the-file-limit", "check", {**F1_GF3, "dim": 10 ** 30}),
    ("json-integer-with-5000-digits", "check",
     b'{"field": "Q", "dim": 1, "ops": [], "x": ' + b"7" * 5000 + b"}"),
    ("file-not-utf-8", "check", b'{"field": "Q", "dim": 1, "ops": [], "x": "\xff"}'),
    ("rational-exponent-literal", "check",
     {**Q1, "ops": [{"name": "bracket", "entries": [[0, 0, 0, "1e300000"]]}]}),
    ("residue-literal-with-space-and-underscore", "check",
     {**F1_GF3, "ops": [{"name": "bracket", "entries": [[0, 0, 0, " 1_0"]]}]}),
    ("residue-literal-with-plus-sign", "check",
     {**F1_GF3, "ops": [{"name": "bracket", "entries": [[0, 0, 0, "+7"]]}]}),
    ("repeated-action-entry", "validate",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3,
      "l": [[0, 0, 0, "1"], [0, 0, 0, "2"]]}),
    ("structure-constant-index-out-of-range", "check",
     {**F1_GF3, "ops": [{"name": "mul", "entries": [[0, 0, 1, "1"]]}]}),
    ("repeated-structure-constant", "check",
     {**F1_GF3, "ops": [{"name": "mul", "entries": [[0, 0, 0, "1"], [0, 0, 0, "2"]]}]}),
    ("repeated-structure-constant-zero-first", "check",
     {**F1_GF3, "ops": [{"name": "mul", "entries": [[0, 0, 0, "0"], [0, 0, 0, "1"]]}]}),
    ("action-tensor-index-out-of-range", "validate",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3, "l": [[0, 1, 0, "1"]]}),
    ("morphism-image-outside-the-weak-actor", "morphism",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": L2_GF3,
      "images": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]]}),
    ("enumerate-over-Q", "enumerate", {"variety": "leibniz", "acting": Q1, "kernel": Q1}),
    ("enumerate-across-two-fields", "enumerate",
     {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF5}),
    ("enumerate-unknown-variety", "enumerate",
     {"variety": "jordan", "acting": F1_GF3, "kernel": F1_GF3}),
    ("poisson-action-on-one-operation-algebras", "validate",
     {"variety": "poisson", "acting": F1_GF3, "kernel": F1_GF3, "l": []}),
    ("leibniz-action-on-two-operation-algebras", "validate",
     {"variety": "leibniz", "acting": P1_GF3, "kernel": P1_GF3, "l": [], "r": []}),
]

ARGV = {
    "check": ("check", "FILE", "--identity", "lie"),
    "validate": ("action", "validate", "FILE"),
    "enumerate": ("enumerate", "FILE"),
    "morphism": ("morphism", "check", "FILE"),
    "extract": ("action", "extract", "FILE", "--variety", "leibniz"),
    "space": ("space", "FILE", "--kind", "derivations", "--json"),
    "hunt": ("hunt", "--p", "3", "--dim", "2", "--samples", "-5", "--json"),
}


@pytest.mark.parametrize(
    "command,data", [case[1:] for case in BAD_INPUTS], ids=[case[0] for case in BAD_INPUTS]
)
def test_bad_input_exits_2(command, data, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    argv = [str(path) if arg == "FILE" else arg for arg in ARGV[command]]
    code, _, err = run_cli(*argv)
    assert code == 2
    assert "error [" in err


@pytest.mark.parametrize("command", [
    ARGV["check"], ARGV["space"], ARGV["validate"],
    ("action", "semidirect", "FILE", "-o", "OUT"), ARGV["extract"], ARGV["morphism"],
    ARGV["enumerate"],
], ids=" ".join)
def test_too_deeply_nested_json_is_an_input_error(command, tmp_path):
    # json.load gives up on deep nesting with a RecursionError, which must
    # end as an input error (exit 2), not a traceback (exit 1)
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    files = {"FILE": str(path), "OUT": str(tmp_path / "out.json")}
    code, out, err = run_cli(*(files.get(arg, arg) for arg in command))
    assert (code, out) == (2, "")
    assert "error [InputError]" in err and "not valid UTF-8 JSON" in err
    assert not (tmp_path / "out.json").exists()


# -- the front door: one reader per file shape, one --json ----------------------------

# each malformed [i, j, k, c] entry, for a 1-dimensional B acting on a
# 1-dimensional X, so that every tensor of either file has the shape 1x1x1
MALFORMED_ENTRIES = {
    "bool-index": [[True, 0, 0, "1"]],
    "index-out-of-range": [[0, 1, 0, "1"]],
    "repeated-index": [[0, 0, 0, "1"], [0, 0, 0, "2"]],
    "entry-with-3-fields": [[0, 0, 0]],
}


@pytest.mark.parametrize("entries", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES)
def test_algebra_and_action_files_refuse_a_malformed_entry_alike(entries, tmp_path):
    files = {
        ("check", "FILE", "--identity", "lie"):
            {**F1_GF3, "ops": [{"name": "mul", "entries": entries}]},
        ("action", "validate", "FILE"):
            {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3, "l": entries},
    }
    errors = []
    for argv, data in files.items():
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(*(str(path) if arg == "FILE" else arg for arg in argv))
        assert (code, out) == (2, ""), argv
        errors.append(err.split("]")[0])
    assert errors == ["error [InputError"] * 2


PAIRED_FILES = {
    ("action", "validate", "FILE"): {"l": []},
    ("morphism", "check", "FILE"): {"images": [[[[0]], [[0]]]]},
    ("enumerate", "FILE"): {},
}


@pytest.mark.parametrize("key", ["variety", "acting", "kernel"])
@pytest.mark.parametrize("argv,extra", PAIRED_FILES.items(), ids=[a[0] for a in PAIRED_FILES])
def test_a_file_without_variety_acting_or_kernel_is_an_input_error(argv, extra, key, tmp_path):
    data = {"variety": "leibniz", "acting": F1_GF3, "kernel": F1_GF3, **extra}
    complete = tmp_path / "complete.json"
    complete.write_text(json.dumps(data))
    del data[key]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run_cli(*(str(complete) if arg == "FILE" else arg for arg in argv))[0] in (0, 1)
    code, out, err = run_cli(*(str(path) if arg == "FILE" else arg for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error [InputError]: ") and key in err


# every leaf command: each option (or positional) and its default
LEAF_OPTIONS = {
    "check": {"file": None, "--identity": None, "--json": False},
    "space": {"file": None, "--kind": None, "-o --output": None, "--json": False},
    "action validate": {"file": None, "--json": False},
    "action semidirect": {"file": None, "-o --output": None, "--json": False},
    "action extract": {"file": None, "--variety": None, "-o --output": None, "--json": False},
    "morphism check": {"file": None, "--json": False},
    "repro": {"--fact": None, "--field": "Q", "--json": False},
    "hunt": {"--p": None, "--dim": None, "--samples": None, "--seed": 0, "--json": False},
    "enumerate": {"pairfile": None, "--budget": DEFAULT_BUDGET, "--json": False},
}


def _leaf_parsers(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), parser
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def test_every_leaf_command_keeps_its_options():
    leaves = dict(_leaf_parsers(build_parser()))
    assert sorted(leaves) == sorted(LEAF_OPTIONS)
    for name, parser in leaves.items():
        options = {
            " ".join(a.option_strings) or a.dest: a.default
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        }
        assert options == LEAF_OPTIONS[name], name
        assert callable(parser.get_default("fn")), name

