import ast
import pathlib
import types

import torelli


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(torelli).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(torelli.__all__) == len(set(torelli.__all__))
    assert set(torelli.__all__) == public


def test_all_names_resolve():
    namespace: dict = {}
    exec("from torelli import *", namespace)
    for name in torelli.__all__:
        assert namespace[name] is getattr(torelli, name)
    assert not any(isinstance(getattr(torelli, name), types.ModuleType)
                   for name in torelli.__all__)


SRC = pathlib.Path(torelli.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group")
               for d in node.decorator_list)


def test_every_public_definition_has_a_reader():
    # a module-level function or class outside the public surface must be
    # named somewhere in the package; cli's click commands are read by click
    named = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unread = sorted(
        f"{module}.{node.name}" for module, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in torelli.__all__ and node.name not in named
        and not (module == "cli" and _is_click_command(node)))
    assert not unread, unread


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports the public surface, which is what it exports
    unused = []
    for module, tree in MODULES.items():
        if module == "__init__":
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{module}: {bound}")
    assert not unused, unused
