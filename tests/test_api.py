"""No public name in the library is there only for the tests.

Every public module-level function or class of ``src/poolsim``, and every
public method, must be named somewhere in the library or the benchmark
(``perfbench/``) outside its own definition.  A name counts where code
uses it: comments, docstrings, the package's re-exports and the
benchmark's tests do not.  Code that only the tests call belongs in the
tests.

No module of ``src/poolsim`` imports another module's underscore name: a
helper two modules share gets a public name.

Every file the library writes goes through ``roadnet.atomic_write``.
"""
from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_DEFINITION = (ast.FunctionDef, ast.ClassDef)


def words_in_code(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, word) of every name, attribute and word of a non-doc string."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, *_DEFINITION))
            and ast.get_docstring(node, clean=False) is not None}
    words = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            words.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            words.extend((node.lineno, w) for w in re.findall(r"\w+",
                                                              node.value))
    return words


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Public module-level functions and classes, and their public methods."""
    out = []
    for node in tree.body:
        if not isinstance(node, _DEFINITION) or node.name.startswith("_"):
            continue
        out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend((f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, _DEFINITION)
                       and not item.name.startswith("_"))
    return out


def unused_public_names() -> list[str]:
    """Public names of the library that nothing outside them names."""
    library = sorted((ROOT / "src" / "poolsim").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in library + sorted((ROOT / "perfbench").glob("*.py"))}
    uses: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for path, tree in trees.items():
        if path.name != "__init__.py":
            for line, word in words_in_code(tree):
                uses[word].append((path, line))
    unused = []
    for path in library:
        for qualname, node in public_definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(where != path or line not in own
                       for where, line in uses[node.name]):
                unused.append(f"{path.stem}.{qualname}")
    return unused


def test_every_public_name_is_used_by_the_program():
    assert unused_public_names() == []


def imported_private_names() -> list[str]:
    """``importer: module.name`` of each underscore name imported across
    the library's modules; dunder names such as ``__version__`` are public.
    """
    out = []
    for path in sorted((ROOT / "src" / "poolsim").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.startswith("poolsim"))):
                continue
            out.extend(f"{path.stem}: {node.module}.{alias.name}"
                       for alias in node.names
                       if alias.name.startswith("_")
                       and not alias.name.endswith("__"))
    return out


def test_no_module_imports_another_modules_underscore_name():
    assert imported_private_names() == []


def writes_outside_atomic_write() -> list[str]:
    """``module:line call`` of each ``os.replace``, ``os.rename``, or
    ``open`` in a mode that writes, anywhere in the library but
    ``roadnet.atomic_write``; a mode that is not a literal counts.
    """
    out = []
    for path in sorted((ROOT / "src" / "poolsim").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        own = {line for node in tree.body
               if path.stem == "roadnet" and isinstance(node, ast.FunctionDef)
               and node.name == "atomic_write"
               for line in range(node.lineno, node.end_lineno + 1)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or node.lineno in own:
                continue
            f = node.func
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == "os" and f.attr in ("replace", "rename")):
                out.append(f"{path.stem}:{node.lineno} os.{f.attr}")
            elif isinstance(f, ast.Name) and f.id == "open":
                modes = node.args[1:2] + [k.value for k in node.keywords
                                          if k.arg == "mode"]
                if any(not isinstance(m, ast.Constant) or set("wax") & set(
                        m.value) for m in modes):
                    out.append(f"{path.stem}:{node.lineno} open")
    return out


def test_every_file_is_written_through_atomic_write():
    assert writes_outside_atomic_write() == []
