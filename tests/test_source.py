"""Source checks: no dead private helpers in the package, and an action's
verb and a mounted arm's offset each read in one place."""

import ast
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "taskmotion"
MODULES = sorted(SRC.glob("*.py"))


@cache
def statements() -> tuple[tuple[Path, ast.stmt, frozenset[str]], ...]:
    """Each top-level statement of the package, with every name it reads
    as a bare name or as an attribute."""
    out = []
    for path in MODULES:
        for statement in ast.parse(path.read_text(), filename=str(path)).body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            out.append((path, statement, frozenset(names)))
    return tuple(out)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used_outside_its_definition(path):
    """A module-level private function or class that nothing in the
    package mentions outside its own definition is dead code."""
    dead = []
    for home, definition, _ in statements():
        if (home != path
                or not isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                or not definition.name.startswith("_")
                or definition.name.startswith("__")):
            continue
        if not any(definition.name in names for _, statement, names in statements()
                   if statement is not definition):
            dead.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert not dead, "private helpers nothing in src/ uses: " + ", ".join(dead)


def attribute_readers(attr: str) -> set[str]:
    """The package modules that read the attribute `attr` of anything."""
    return {path.name for path in MODULES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and node.attr == attr}


def test_only_the_domain_and_the_scenario_reader_read_an_action_s_verb():
    """`ActionTemplate.takes` and `places` are the one reading of `verb`:
    no module but `domain.py` and `dsl.py`, which reads and writes the
    verb in scenario text, reads the `.verb` attribute."""
    readers = attribute_readers("verb")
    assert "domain.py" in readers
    assert readers <= {"domain.py", "dsl.py"}, sorted(readers)


def test_only_the_world_and_the_scenario_reader_read_a_mount_offset():
    """`world.mount_anchor` is the one placement of a mounted arm: no
    module but `world.py` and `dsl.py`, which reads and writes the offset
    in scenario text, reads the `.mount_off` attribute."""
    readers = attribute_readers("mount_off")
    assert "world.py" in readers
    assert readers <= {"world.py", "dsl.py"}, sorted(readers)
