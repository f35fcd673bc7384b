"""Every private module-level name in the package has a consumer."""

import ast
from pathlib import Path

import casimir_slab

PACKAGE = Path(casimir_slab.__file__).parent


def _private_definitions(tree):
    """(name, node) of each private module-level function, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _uses(tree):
    """(name, node) of each read of a name or attribute in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name, node


def test_every_private_name_has_a_consumer():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    uses = [use for tree in trees.values() for use in _uses(tree)]
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            if name.startswith("__"):
                continue
            own = {id(node) for node in ast.walk(definition)}
            if not any(used == name and id(node) not in own for used, node in uses):
                unused.append(f"{module}: {name}")
    assert unused == []
