"""Rules the source keeps, checked on every test run:

- Addresses are plain values inside the package; ``dhcp.py`` alone parses
  and formats their text, so it alone may import ``ipaddress``.
- The package runs on the stdlib alone: every module it imports is in
  ``sys.stdlib_module_names`` or is ``dhcpguard`` itself.
- A module uses every name it imports, in the package and in the tests.
- Reporting goes through the CLI: no module but ``cli.py`` calls ``print``.

Each rule maps a list of files to the violations it finds in them, and
finds a violation planted in a file of its own.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dhcpguard").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

_IPADDRESS_IMPORT = re.compile(r"\s*(import|from)\s.*\bipaddress\b")


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def ipaddress_imports(paths):
    return [f"{path}:{lineno}: import of ipaddress" for path in paths if path.name != "dhcp.py"
            for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
            if _IPADDRESS_IMPORT.match(line)]


def non_stdlib_imports(paths):
    bad = []
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path}:{node.lineno}: import of {name}" for name in names
                    if name.partition(".")[0] not in (*sys.stdlib_module_names, "dhcpguard")]
    return bad


def unused_imports(paths):
    bad = []
    for path in paths:
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name.partition(".")[0],
                                        node.lineno)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        bad += [f"{path}:{line}: {name} imported but never used"
                for name, line in imported.items() if name not in used]
    return bad


def print_calls(paths):
    return [f"{path}:{node.lineno}: print call" for path in paths if path.name != "cli.py"
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"]


# Each rule, the files it holds for, and a module that breaks it.
RULES = {
    ipaddress_imports: (PACKAGE, "import ipaddress\n\nipaddress.ip_address(1)\n"),
    non_stdlib_imports: (PACKAGE, "import pytest\n\npytest.fail\n"),
    unused_imports: (PACKAGE + TESTS, "import json\n"),
    print_calls: (PACKAGE, 'print("report")\n'),
}


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_source_keeps_the_rule(rule):
    paths, _ = RULES[rule]
    assert paths and rule(paths) == []


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_rule_finds_a_planted_violation(rule, tmp_path):
    path = tmp_path / "netsim.py"
    path.write_text(RULES[rule][1], encoding="utf-8")
    found = rule([path])
    assert len(found) == 1 and found[0].startswith(f"{path}:1: ")
