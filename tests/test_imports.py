"""Every module-level import in the package is used, every public name
is declared once, every name the benchmark imports from the package
exists, and no private code of the package is left without a caller.

A name bound by an import at the top level of a module must be read
somewhere in that module (code, annotations or doctests aside) or be
listed in its ``__all__``.  ``from __future__`` imports bind nothing,
so they are skipped.  ``__init__.py`` names no public name: it
star-imports the layer modules and joins their ``__all__`` lists, so
it is checked for that alone.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "weylkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for every top-level import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            while isinstance(node, ast.Attribute):
                node = node.value
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


def test_every_module_is_scanned():
    assert {p.name for p in MODULES} >= {
        "charring.py", "coxeter.py", "hecke.py", "cli.py", "lcf.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keep = _used(tree) | _exported(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported_names(tree).items()
                    if name not in keep)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nx = d\n")
    keep = _used(tree) | _exported(tree)
    assert sorted(n for n in _imported_names(tree) if n not in keep) == [
        "b", "os"]


LAYERS = ("lattice", "coxeter", "hecke", "charring", "lcf", "icstalk")


def _named_imports(tree: ast.Module) -> list[str]:
    """module.name for every ``from ... import`` of a name, not of ``*``."""
    return [f"{node.module}.{alias.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name != "*"]


def _defined_elsewhere(module) -> list[str]:
    """The classes and functions of a module's ``__all__`` that another
    module defines."""
    listed = ((name, getattr(module, name)) for name in module.__all__)
    return [name for name, obj in listed
            if (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ != module.__name__]


def test_public_names_declared_once():
    # a name is public where the module that defines it lists it; the
    # package's __all__ is those lists joined, in the order of layers
    import weylkit
    modules = [importlib.import_module(f"weylkit.{m}") for m in LAYERS]
    assert list(weylkit.__all__) == [n for m in modules for n in m.__all__]
    assert len(set(weylkit.__all__)) == len(weylkit.__all__)
    elsewhere = [f"{m.__name__}.{name}" for m in modules
                 for name in _defined_elsewhere(m)]
    assert not elsewhere, f"listed where not defined: {elsewhere}"
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert not _named_imports(init), _named_imports(init)


def test_scan_flags_a_second_declaration():
    tree = ast.parse("from a import *\n"
                     "from b import c\n"
                     "from d import (e, f as g)\n"
                     "import h\n")
    assert _named_imports(tree) == ["b.c", "d.e", "d.f"]

    class Own:
        pass

    module = SimpleNamespace(
        __name__=__name__, __all__=["Own", "own", "Foreign", "CONSTANT"],
        Own=Own, own=lambda: None, Foreign=ast.Module, CONSTANT=3)
    assert _defined_elsewhere(module) == ["Foreign"]


PERFBENCH = SRC.parent.parent / "perfbench"


def _weylkit_imports(path):
    """(module, name) for every ``from weylkit... import name`` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "weylkit"
            for alias in node.names]


def test_benchmark_imports_exist():
    # the benchmark lies outside testpaths, so a renamed name it
    # imports (private ones included) would otherwise go unnoticed
    found = [(path.name, module, name)
             for path in sorted(PERFBENCH.glob("*.py"))
             for module, name in _weylkit_imports(path)]
    assert ("make_refs.py", "weylkit.coxeter",
            "_elements_up_to_length") in found
    missing = [f"{file}: {module}.{name}" for file, module, name in found
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"names the benchmark imports are gone: {missing}"


SCANNED = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (SRC.parent.parent / top).rglob("*.py"))


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Name -> line, for every top-level private function or class and
    every method of a private class (dunder methods aside: Python calls
    them)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {}
    for node in tree.body:
        if isinstance(node, defs) and node.name.startswith("_"):
            names[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, defs)
                            and not item.name.startswith("__")):
                        names[item.name] = item.lineno
    return names


def _named(tree: ast.Module) -> set[str]:
    """Every name a file reads, imports, or spells as a string (as
    ``getattr`` and ``monkeypatch.setattr`` do)."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            named.add(node.value)
    return named


def test_private_code_has_a_caller():
    named = set().union(*(_named(ast.parse(p.read_text(encoding="utf-8")))
                          for p in SCANNED))
    dead = [f"{path.name}: {name} (line {line})" for path in MODULES
            for name, line in _private_definitions(
                ast.parse(path.read_text(encoding="utf-8"))).items()
            if name not in named]
    assert not dead, f"private code that nothing names: {dead}"


def test_scan_flags_private_code_with_no_caller():
    tree = ast.parse(
        "def _dead(): pass\n"
        "def _live(): pass\n"
        "def public(): pass\n"
        "class _K:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "_live()\n"
        "getattr(_K(), 'used')\n")
    named = _named(tree)
    assert sorted(n for n in _private_definitions(tree)
                  if n not in named) == ["_dead", "unused"]


def test_one_enumerator_of_the_group():
    # the group, W_f and the dominant alcoves are numbered by one table
    # class; a second level-by-level walk would be a second numbering
    grows = [f"{path.name}: line {node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "_grow"]
    assert len(grows) == 1, f"functions named _grow: {grows}"


def _calls(tree: ast.Module, name: str) -> list[int]:
    """Lines that call ``name``, bare or as an attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ((isinstance(node.func, ast.Name) and node.func.id == name)
                 or (isinstance(node.func, ast.Attribute)
                     and node.func.attr == name))]


def test_one_matrix_product_in_the_group_law():
    # the finite half of a product is looked up in the context's memo;
    # only a memo miss multiplies matrices
    found = [f"{path.name}: line {line}" for path in sorted(SRC.rglob("*.py"))
             for line in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                "_mat_mul")]
    assert len(found) == 1, f"calls of _mat_mul: {found}"


def test_scan_flags_a_second_matrix_product():
    tree = ast.parse(
        "def _mat_mul(a, b): pass\n"
        "x = _mat_mul(a, b)\n"
        "y = coxeter._mat_mul(\n"
        "    a, b)\n"
        "f = _mat_mul\n"
        "s = '_mat_mul(a, b)'\n")
    assert _calls(tree, "_mat_mul") == [2, 3]


def test_one_kl_recursion_per_table():
    # the datum's context holds one recursion per table, built in one
    # place; a handle that built its own would compute every row again
    found = [f"{path.name}: line {line}" for path in sorted(SRC.rglob("*.py"))
             for line in _calls(ast.parse(path.read_text(encoding="utf-8")),
                                "_KLRecursion")]
    assert len(found) == 1, f"recursions built: {found}"


def test_scan_flags_a_second_kl_recursion():
    tree = ast.parse(
        "class _KLRecursion: pass\n"
        "a = _KLRecursion(ctx.group)\n"
        "b = hecke._KLRecursion(\n"
        "    ctx.alcoves)\n"
        "k = _KLRecursion\n"
        "s = '_KLRecursion(t)'\n")
    assert _calls(tree, "_KLRecursion") == [2, 3]


def _pool_view_reads(tree: ast.Module) -> list[int]:
    """Lines outside the class ``_KLRecursion`` that name ``_views`` or
    call ``view``, and lines that define a method named ``polynomial``."""
    own = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "_KLRecursion":
            own.update(range(node.lineno, node.end_lineno + 1))
    views = {node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr == "_views")
             or (isinstance(node, ast.FunctionDef) and node.name == "_views")}
    polynomial = {item.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) for item in node.body
                  if isinstance(item, ast.FunctionDef)
                  and item.name == "polynomial"}
    return sorted((views | set(_calls(tree, "view"))) - own | polynomial)


def test_pool_views_read_only_by_the_recursion():
    # every coefficient of a b_x is read through _KLRecursion.views,
    # which unpacks what is missing under the context's lock; a second
    # reader, on an element or per entry, would be a second form
    tree = ast.parse((SRC / "hecke.py").read_text(encoding="utf-8"))
    assert _pool_view_reads(tree) == []


def test_scan_flags_a_second_reader_of_views():
    tree = ast.parse(
        "class _KLRecursion:\n"
        "    def view(self, k): return self._views[k]\n"
        "    def polynomial(self, y, row): return self.view(row[y])\n"
        "class HeckeElement:\n"
        "    def _views(self):\n"
        "        return self.algebra._engine._views\n"
        "    def one(self, k): return eng.view(k)\n"
        "    def all(self, ks): return eng.views(ks)\n"
        "s = '_views'\n")
    assert _pool_view_reads(tree) == [3, 5, 6, 7]


def _functools_caches(tree: ast.Module) -> list[int]:
    """Lines that import or name functools.lru_cache or functools.cache."""
    caches = ("lru_cache", "cache")
    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.ImportFrom) and node.module == "functools"
                and any(alias.name in caches for alias in node.names))
            or (isinstance(node, ast.Attribute) and node.attr in caches
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools")]


def test_no_functools_cache():
    # every cache has an owner (a context, a handle or an engine) that
    # _context.cache_clear() drops; a functools cache would outlive it
    found = [f"{path.name}: line {line}" for path in sorted(SRC.rglob("*.py"))
             for line in _functools_caches(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"functools caches: {found}"


def test_scan_flags_a_functools_cache():
    tree = ast.parse(
        "import functools\n"
        "from functools import cached_property, lru_cache\n"
        "@functools.cache\n"
        "def f(): pass\n"
        "class K:\n"
        "    cache = {}\n"
        "K.cache.clear()\n")
    assert _functools_caches(tree) == [2, 3]


def _inexact(tree: ast.Module) -> list[int]:
    """Lines with a true division, a float literal, a ``float(...)``
    call, or an import of ``fractions`` or ``decimal``."""
    inexact = ("fractions", "decimal")
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, (ast.BinOp, ast.AugAssign))
                       and isinstance(node.op, ast.Div))
                   or (isinstance(node, ast.Constant)
                       and isinstance(node.value, float))
                   or (isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Name)
                       and node.func.id == "float")
                   or (isinstance(node, ast.Import)
                       and any(alias.name.split(".")[0] in inexact
                               for alias in node.names))
                   or (isinstance(node, ast.ImportFrom) and node.module
                       and node.module.split(".")[0] in inexact)})


def test_exact_arithmetic_only():
    # every result is an exact integer computation: Freudenthal's
    # formula divides with divmod and checks the remainder
    found = [f"{path.name}: line {line}" for path in sorted(SRC.rglob("*.py"))
             for line in _inexact(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, f"inexact arithmetic: {found}"


def test_scan_flags_inexact_arithmetic():
    tree = ast.parse(
        "import decimal\n"
        "from fractions import Fraction\n"
        "x = 7 // 2 + 7 % 2\n"
        "y = 7 / 2\n"
        "x /= 2\n"
        "z = 0.5\n"
        "w = float(x)\n"
        "s = '1 / 2'\n"
        "t = 10 ** 6\n")
    assert _inexact(tree) == [1, 2, 4, 5, 6, 7]


def _digit_work(tree: ast.Module) -> list[int]:
    """Lines that read or write the bytes of an int, swap the bytes of
    an array, or size its items: what base-2^w digits are made of."""
    tools = ("to_bytes", "from_bytes", "byteswap", "itemsize")
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in tools})


def test_packed_digits_only_in_exact():
    # the Kazhdan-Lusztig pools and the exact inverse read and write
    # their packed digits through the one kernel in _exact
    found = {path.name for path in sorted(SRC.rglob("*.py"))
             if _digit_work(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"_exact.py"}, f"base-2^w digit work: {sorted(found)}"


def test_scan_flags_digit_work():
    tree = ast.parse(
        "n = int.from_bytes(b, 'little')\n"
        "b = n.to_bytes(2, 'little')\n"
        "a.byteswap()\n"
        "w = array('Q').itemsize * 8\n"
        "s = 'to_bytes'\n"
        "c = bytes(3)\n")
    assert _digit_work(tree) == [1, 2, 3, 4]


def _weight_bypasses(tree: ast.Module) -> list[int]:
    """Lines that build a Weight past its public constructor: a call of
    ``__new__`` that names Weight, the ``coords`` slot's ``__set__``,
    ``__setattr__`` of "coords", or ``Weight._trusted``."""
    def names(node, kind, field, value):
        return any(isinstance(n, kind) and getattr(n, field) == value
                   for n in ast.walk(node))

    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Call)
                       and names(node, ast.Attribute, "attr", "__new__")
                       and names(node, ast.Name, "id", "Weight"))
                   or (isinstance(node, ast.Attribute)
                       and node.attr == "__set__"
                       and isinstance(node.value, ast.Attribute)
                       and node.value.attr == "coords")
                   or (isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "__setattr__"
                       and names(node, ast.Constant, "value", "coords"))
                   or (isinstance(node, ast.Attribute)
                       and node.attr == "_trusted"
                       and isinstance(node.value, ast.Name)
                       and node.value.id == "Weight")})


def test_trusted_weights_built_only_in_lattice():
    # weights built without the public constructor's checks come from
    # the one bulk constructor in weylkit.lattice
    found = {path.name for path in sorted(SRC.rglob("*.py"))
             if _weight_bypasses(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {"lattice.py"}, f"trusted weights built in {sorted(found)}"


def test_scan_flags_trusted_weights():
    tree = ast.parse(
        "w = object.__new__(Weight)\n"
        "ws = list(map(object.__new__, repeat(Weight, n)))\n"
        "Weight.coords.__set__(w, (1,))\n"
        "object.__setattr__(w, 'coords', (1,))\n"
        "v = Weight._trusted((1,))\n"
        "c = object.__new__(Character)\n"
        "object.__setattr__(c, 'terms', ())\n"
        "u = Weight((1,))\n")
    assert _weight_bypasses(tree) == [1, 2, 3, 4, 5]


def test_principal_block_checks_written_once():
    # "p >= h" and the Jantzen bound are decided in weylkit.coxeter, and
    # every other module asks it
    source = "".join(path.read_text(encoding="utf-8")
                     for path in sorted(SRC.rglob("*.py")))
    assert source.count("must be at least the Coxeter number") == 1
    assert source.count("p * (p -") == 1


def test_input_checks_written_once():
    # each kind of argument is checked by one function, in the layer
    # that owns its type: exact ints and primes in weylkit._exact,
    # weights in weylkit.lattice, elements in weylkit.coxeter; the
    # ad-hoc spellings they replaced are gone
    source = "".join(path.read_text(encoding="utf-8")
                     for path in sorted(SRC.rglob("*.py")))
    for message in ("must be int, got", "must be at least {low}, got",
                    "is not prime", "expected a Weight, got", "where rank",
                    "expected a Weyl group element, got",
                    "different root data"):
        assert source.count(message) == 1, message
    for spelling in ("p must be at least 1", "rank mismatch",
                     "must be an int,", "an int at least", "must be integers",
                     "must be nonnegative", "different root datum",
                     "different ranks"):
        assert spelling not in source, spelling


def test_importing_the_cli_builds_no_parser():
    # every benchmark workload imports weylkit.cli during set-up; a
    # parser is built by the first call of main that needs it
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import weylkit.cli\n"
        "print(len(built), weylkit.cli._parsers)\n"
        "weylkit.cli.main(['root-datum', 'A1'])\n"
        "print(len(built) > 0, list(weylkit.cli._parsers))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ,
                                          "PYTHONPATH": str(SRC.parent)})
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert lines[0] == "0 {}" and lines[-1] == "True ['root-datum']"
