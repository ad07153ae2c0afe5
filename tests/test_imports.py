"""Every name a powergame module imports is used in that module, no module
reads another module's private (``_name``) attributes, the CLI leaves
feasibility and every other table decision to the experiment drivers, only
``system`` uses the per-user filter reference, every exported name
resolves, and neither importing the package, reading its config types nor
running `gamma-star` loads numpy.

No linter is a dependency, so these stdlib-ast checks stand in for one.
``__init__.py`` is skipped (its imports are the package's re-exports), and so
are ``from __future__`` imports.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powergame"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by imports in source but never loaded, with line numbers."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(source: str):
    """(line, name) of every private name imported from another module or
    read as an attribute of an imported name."""
    tree = ast.parse(source)
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and node.value.id in imported):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_modules_found():
    assert {"cli.py", "game.py", "system.py"} <= {p.name for p in MODULES}


def test_checker_flags_unused_and_ignores_used():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from math import fsum, sqrt as root\n"
              "x = np.zeros(root(4.0))\n")
    assert unused_imports(source) == [(2, "os"), (4, "fsum")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_private_reads_only():
    source = ("from . import experiments\nfrom .game import _helper, run\n"
              "import numpy as np\n"
              "class A:\n    def f(self):\n        return self._x\n"
              "y = experiments._STREAM + np.__version__ + _local\n")
    assert private_reads(source) == [(2, "_helper"),
                                     (7, "experiments._STREAM")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str):
    """Every dotted-name component of the modules source imports from, plus
    the names of ``from . import name``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            found.update((node.module or "").split("."))
            if node.module is None:
                found.update(alias.name for alias in node.names)
    return found - {""}


def test_checker_finds_relative_and_absolute_modules():
    source = ("from . import experiments\nfrom .multiantenna import f\n"
              "import powergame.asymptotic as a\n")
    assert imported_modules(source) == {"experiments", "multiantenna",
                                        "powergame", "asymptotic"}


def test_cli_leaves_feasibility_to_experiments():
    # the drivers decide which (receiver, m, load) cells a table holds; a CLI
    # that reached the closed forms could grow a second, disagreeing gate,
    # and the drivers take the antenna count's load limits from asymptotic
    for module, banned in (("cli.py", {"asymptotic", "multiantenna"}),
                           ("experiments.py", {"multiantenna"})):
        source = (PACKAGE / module).read_text(encoding="utf-8")
        assert imported_modules(source).isdisjoint(banned), module


def names_used(source: str):
    """Every name source loads, imports or reads as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def test_checker_finds_names_imports_and_attributes():
    source = ("from .system import output_sir as o\nimport numpy.linalg\n"
              "x = system.receiver_filter(y)\nz = 'sir_per_watt'\n")
    assert names_used(source) == {"output_sir", "linalg", "system",
                                  "receiver_filter", "y", "x", "z"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_system_uses_the_per_user_reference(path):
    # a user's SIR against frozen interferers lives in system.sir_per_watt;
    # the per-user filter and its output SIR stay the tests' reference
    if path.name != "system.py":
        used = names_used(path.read_text(encoding="utf-8"))
        assert used.isdisjoint({"receiver_filter", "output_sir"})


def test_every_exported_name_resolves():
    # the package loads each export lazily from the module its table names
    import powergame
    for name in powergame.__all__:
        assert hasattr(powergame, name), name


def test_package_import_loads_no_numpy():
    # the CLI entry point pins the BLAS thread count before numpy loads, and
    # the config types live in a module of their own that needs no numpy
    probe = ("import sys, powergame\n"
             "powergame.SystemParams, powergame.ReceiverKind\n"
             "print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout == "False\n", proc.stderr


def test_gamma_star_loads_no_numpy():
    # gamma-star is a scalar closed form: only the table subcommands import
    # the experiment drivers, and with them numpy
    probe = ("import sys\nfrom powergame import cli\n"
             "code = cli.main(['gamma-star'])\n"
             "print(code, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


@pytest.mark.parametrize("argv,code", [
    (["gamma-star"], 0),
    (["gamma-star", "--set", "K=0"], 2),
], ids=["table", "config-error"])
def test_gamma_star_process_loads_no_numpy(argv, code):
    # -X importtime lists every module the process imports on stderr
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m",
                           "powergame", *argv], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    imported = {line.rpartition("|")[2].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "powergame.cli" in imported
    assert "numpy" not in imported
    if code:
        assert "config error: K: must be >= 1, got 0\n" in proc.stderr


def config_reads(source: str):
    """(line, attribute) of every attribute read from a name ``config``."""
    return sorted((node.lineno, node.attr)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "config")


def test_checker_finds_config_reads():
    source = ("def f(config, args):\n    return config.model, args.output\n"
              "g = lambda config: len(config.antennas)\n")
    assert config_reads(source) == [(2, "model"), (3, "antennas")]


def test_cli_reads_only_the_model_of_a_config():
    # which loads, antennas and modes a table can hold is the driver's
    # decision; a CLI reading them could grow a second, disagreeing rule
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert {attr for _, attr in config_reads(source)} <= {"model"}


def ordered_compares(tree, skip=()):
    """Line numbers of <, <=, > and >= comparisons in tree outside the
    functions named in skip."""
    skipped = {id(node) for fn in ast.walk(tree)
               if isinstance(fn, ast.FunctionDef) and fn.name in skip
               for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and id(node) not in skipped
                  and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                          for op in node.ops))


def test_checker_finds_ordered_compares():
    source = ("def grid(a):\n    return a < 1\n"
              "def f(a, b):\n    return a == b or a >= 0\n")
    assert ordered_compares(ast.parse(source), skip={"grid"}) == [4]


def test_cli_checks_no_config_value():
    # the config dataclasses hold every value rule; the CLI only converts
    # text, and the alpha-range parser orders numbers only to build its grid
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert ordered_compares(tree, skip={"_parse_alpha_range"}) == []
    parse_config = next(node for node in ast.walk(tree)
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "parse_config")
    assert not any(isinstance(node, ast.Try)
                   for node in ast.walk(parse_config))
