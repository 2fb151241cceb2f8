"""The package depends on the standard library alone: numpy may be installed
alongside it, but it is not a dependency. Its sources and scripts parse on
the oldest Python that pyproject.toml admits."""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lionsweep"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_sources_parse_on_the_python_floor():
    """requires-python is ">=3.10", so no source may use later syntax such as except*."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=3.10"' in pyproject
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
