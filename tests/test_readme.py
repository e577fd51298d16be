"""The README's library example runs and does what its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_states_what_it_computes():
    env = {}
    exec(compile(_library_example(), str(README), "exec"), env)
    check_identity, g = env["check_identity"], env["g"]
    lie = check_identity(g, "lie")
    assert not lie.holds and lie.witness == (1, 1)
    assert env["bider"].dim == 3
    assert check_identity(env["bider"].as_algebra(), "leibniz_right").holds
    act, ext = env["act"], env["ext"]
    assert env["validate_action"](act).passed
    assert ext.total.dim == 4
    assert env["extract_action"](ext, "leibniz") == act
    assert env["validate_action"](env["line"]).failed_labels() == ["L6"]
    mor = env["mor"]
    assert env["is_acting_morphism"](mor).acting
    assert env["morphism_to_action"](mor) == act
