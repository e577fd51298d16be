"""Hostile-input fuzz over every file format and the command that reads it.

Each example starts from one valid file (algebra, action, split extension,
morphism, pair), replaces or deletes one subtree of its JSON, and runs the
matching command.  Whatever the input, the command must return an exit code
(0, 1 or 2) and no exception may escape.  Generated integers stay small, so a
mutated dimension cannot ask for an operator space too large to build.
"""

import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from algact.actions import semidirect
from algact.catalog import biadjoint_action, builtin
from algact.cli import main
from algact.fields import GF

FIELD = GF(3)
F1 = builtin("abelian(1)", FIELD)
L2 = builtin("leibniz_2dim_nonlie", FIELD)
ACTION = biadjoint_action(L2)

# format -> (valid document, command run on the file, "{out}" an output path)
FORMATS = {
    "algebra": (L2.to_json_dict(), [
        ["check", "{file}", "--identity", "leibniz_right"],
        ["space", "{file}", "--kind", "biderivations", "-o", "{out}"],
    ]),
    "action": (ACTION.to_json_dict(), [
        ["action", "validate", "{file}"],
        ["action", "semidirect", "{file}", "-o", "{out}"],
    ]),
    "extension": (semidirect(ACTION).to_json_dict(), [
        ["action", "extract", "{file}", "--variety", "leibniz"],
    ]),
    "morphism": (builtin("metere_morphism", FIELD).to_json_dict(), [
        ["morphism", "check", "{file}"],
    ]),
    "pair": (
        {"variety": "leibniz", "acting": F1.to_json_dict(), "kernel": L2.to_json_dict()},
        [["enumerate", "{file}", "--budget", "2000"]],
    ),
}

KEYS = ["p", "dim", "ops", "entries", "name", "x"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.sampled_from(["0", "1", "-1/2", "x", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """The path of every subtree of a JSON document, the root first."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutate(doc, path, value, delete):
    """A copy of ``doc`` with the subtree at ``path`` deleted or replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_file_ends_in_an_exit_code(fmt, data, tmp_path_factory):
    doc, commands = FORMATS[fmt]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    value, delete = data.draw(JSON, label="value"), data.draw(st.booleans(), label="delete")
    mutated = _mutate(doc, path, value, delete)
    tmp = tmp_path_factory.mktemp(fmt)
    file = tmp / "input.json"
    file.write_text(json.dumps(mutated))
    for command in commands:
        argv = [arg.format(file=file, out=tmp / "out.json") for arg in command]
        code = main(argv, out=io.StringIO(), err=io.StringIO())
        assert code in (0, 1, 2), (argv, mutated)
