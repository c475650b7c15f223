"""The package's public names, the names it removed, and the functions the
traced benchmark wraps."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import signed_balance

ROOT = Path(__file__).resolve().parents[1]


def _resolves(dotted):
    """Whether `dotted` names a module, or an attribute or dataclass field
    reached from the longest importable module prefix."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if attr in getattr(obj, "__dataclass_fields__", {}):
                return True
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _removed_names():
    """The dotted names listed under "Removed names" in the README."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("**Removed names.**", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`(signed_balance\.[\w.]+)`", section)


def test_public_names_removed_names_and_traced_functions():
    for name in signed_balance.__all__:
        assert hasattr(signed_balance, name), name

    removed = _removed_names()
    assert len(removed) >= 8
    for dotted in removed:
        assert not _resolves(dotted), dotted
        assert dotted.rsplit(".", 1)[1] not in signed_balance.__all__, dotted

    # perfbench's tracer wraps these by name; it is loaded from its file, not edited
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, functions in tracer.WRAPPED.items():
        module = importlib.import_module(f"signed_balance.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"

    # ...and reads these keywords from the calls, by name or by position
    read = _keywords_read(tracer)
    assert read, "no keyword reads found in the tracer"
    for dotted, keywords in read.items():
        module_name, name = dotted.split(".")
        params = list(inspect.signature(
            getattr(importlib.import_module(f"signed_balance.{module_name}"), name)).parameters)
        for keyword, position in keywords:
            assert keyword in params, f"{dotted}({keyword}=)"
            assert position is None or params.index(keyword) == position, f"{dotted}({keyword}=)"


def _keywords_read(tracer):
    """{"module.function": {(keyword, position or None)}} for every
    `kwargs.get(keyword, args[position] ...)` under `if name == "module.function"`
    in the tracer's `_meta`."""
    meta = next(node for node in ast.walk(ast.parse(inspect.getsource(tracer)))
                if isinstance(node, ast.FunctionDef) and node.name == "_meta")
    read = {}
    for branch in ast.walk(meta):
        if not (isinstance(branch, ast.If) and isinstance(branch.test, ast.Compare)
                and isinstance(branch.test.comparators[0], ast.Constant)):
            continue
        for node in (n for stmt in branch.body for n in ast.walk(stmt)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and ast.unparse(node.func.value) == "kwargs"):
                positions = [n.slice.value for arg in node.args[1:] for n in ast.walk(arg)
                             if isinstance(n, ast.Subscript) and ast.unparse(n.value) == "args"]
                read.setdefault(branch.test.comparators[0].value, set()).add(
                    (node.args[0].value, positions[0] if positions else None))
    return read
