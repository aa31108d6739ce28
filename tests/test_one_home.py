"""Config rules have one home, checked with a stdlib ``ast`` pass as in
``test_imports.py``.

``runner.py`` builds a ``ConfigError`` only for an errmap config with no
grid: every other config rule is checked when the config loads, so
``validate`` and ``run`` agree.  Every key of ``config.SCHEMA`` is a
property name or a keyword that ``config._walk`` supports, so an
unsupported keyword fails here rather than when a config first reaches
it.  Every ``type`` in ``SCHEMA`` is one name that ``config._TYPES``
checks, and every name there is one that ``SCHEMA`` uses, so a field has
one spelling and the walker no dead type.
"""

import ast
from pathlib import Path

from spindd.config import _TYPES, SCHEMA

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spindd"


def test_the_runner_builds_a_config_error_only_for_a_missing_errmap_grid():
    tree = ast.parse((PACKAGE / "runner.py").read_text())
    built = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "ConfigError"]
    assert built == ["ConfigError(['errmap: config has no errmap section'])"]


def walked_keywords() -> set:
    """The schema keywords that ``_walk`` compares ``key`` with."""
    tree = ast.parse((PACKAGE / "config.py").read_text())
    (walk,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_walk"]
    return {node.comparators[0].value for node in ast.walk(walk)
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Name)
            and node.left.id == "key" and isinstance(node.comparators[0], ast.Constant)}


def schema_keywords(schema: dict, path: str = "<root>") -> list:
    """``(path, keyword, rule)`` for every key of ``schema`` and of its
    subschemas that is not a property name."""
    found = []
    for key, rule in schema.items():
        found.append((path, key, rule))
        if key == "properties":
            for name, sub in rule.items():
                found += schema_keywords(sub, f"{path}.{name}")
        elif key == "items":
            found += schema_keywords(rule, f"{path}.*")
        elif key == "prefixItems":
            for i, sub in enumerate(rule):
                found += schema_keywords(sub, f"{path}.{i}")
    return found


def test_every_schema_keyword_is_one_the_walker_supports():
    supported = walked_keywords()
    assert {"type", "properties", "items", "prefixItems", "additionalProperties"} <= supported
    keywords = schema_keywords(SCHEMA)
    assert ("<root>.sequence.tau_range", "prefixItems") in {(p, k) for p, k, _ in keywords}
    assert [(path, key) for path, key, _ in keywords if key not in supported] == []
    # the walker reads additionalProperties only as False
    assert {rule for _, key, rule in keywords if key == "additionalProperties"} == {False}


def test_every_schema_type_is_one_name_the_walker_checks_and_uses():
    types = [(path, rule) for path, key, rule in schema_keywords(SCHEMA) if key == "type"]
    assert ("<root>.outputs.observables", "array") in types
    assert [(path, rule) for path, rule in types if not isinstance(rule, str)] == []
    assert {rule for _, rule in types} == set(_TYPES)
    enums = [rule for _, key, rule in schema_keywords(SCHEMA) if key == "enum"]
    assert [rule for rule in enums if None in rule] == []
