"""Static checks over the package sources."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "seqrel").glob("*.py"))
BENCH_SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (`__all__` counts as a read)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_import_scan_flags_only_unread_names():
    source = "import os\nimport sys\nfrom a import b, c as d\n__all__ = ['d']\nprint(sys)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(source: str) -> list[str]:
    """Private module-level functions, classes and constants (`_name`) that
    the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_unread_private_name_scan_flags_only_unread_names():
    source = ("_A = 1\n_B: int = 2\n__all__ = []\n"
              "def _f():\n    return _A\n"
              "def _g():\n    _local = 3\n"
              "class _C:\n    _attr = 4\n"
              "def main():\n    return _f(), _B\n")
    assert unread_private_names(source) == ["line 6: _g", "line 8: _C"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


# public helpers only the tests call: acceptance criteria exercise them
TEST_ONLY_PUBLIC = [
    "compress.py: trace_representatives",
    "data.py: read_demand_csv",
    "gnn.py: forward_view",
    "graph.py: build_knn_graph",
    "synth.py: write_demand_csv",
    "tensor.py: finite_diff_check",
]


def referenced_names(source: str) -> set[str]:
    """Every name a source reads, bare or as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def is_click_command(node: ast.FunctionDef) -> bool:
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def unreferenced_public_functions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Public module-level functions of `modules` (file name -> source) that
    no reader source references; click commands are entry points."""
    used = set().union(*(referenced_names(source) for source in readers))
    return [f"{name}: {node.name}" for name, source in sorted(modules.items())
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_") and not is_click_command(node)
            and node.name not in used]


def package_modules() -> tuple[dict[str, str], list[str]]:
    modules = {p.name: p.read_text() for p in SOURCES}
    return modules, list(modules.values()) + [p.read_text() for p in BENCH_SOURCES]


def test_public_function_scan_flags_an_appended_unused_helper():
    source = ("import click\n@click.group()\ndef main():\n    pass\n"
              "@main.command()\ndef run():\n    pass\n"
              "def used():\n    pass\ndef unused():\n    pass\ndef _private():\n    pass\n")
    assert unreferenced_public_functions({"m.py": source}, ["m.used()"]) == ["m.py: unused"]
    modules, readers = package_modules()
    modules["gnn.py"] += "\n\ndef leftover_helper(x):\n    return x\n"
    readers.append(modules["gnn.py"])
    assert "gnn.py: leftover_helper" in unreferenced_public_functions(modules, readers)


def test_public_functions_outside_the_test_only_list_have_a_caller():
    assert unreferenced_public_functions(*package_modules()) == TEST_ONLY_PUBLIC
