"""Standing constraint of README and ROADMAP aim 2: dense linear algebra in
the library stays in-repo.  scipy and numpy.linalg are test references only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qbattery"
BANNED = ("scipy", "numpy.linalg", "np.linalg")


def _banned_uses(path: Path) -> list[str]:
    """``file:line name`` for each scipy import or numpy.linalg use in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            names = [ast.unparse(node)]
        else:
            continue
        found += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if any(name == b or name.startswith(b + ".") for b in BANNED)
        ]
    return found


def test_library_imports_no_scipy_and_uses_no_numpy_linalg():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "dense_linalg.py" for p in paths)
    assert [use for p in paths for use in _banned_uses(p)] == []


def test_banned_uses_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import scipy.linalg\n"
        "from numpy import linalg\n"
        "import numpy as np\n"
        "x = np.linalg.eigh\n"
        '"""np.linalg in a docstring is fine"""\n'
    )
    assert _banned_uses(probe) == [
        "probe.py:1 scipy.linalg",
        "probe.py:2 numpy.linalg",
        "probe.py:4 np.linalg",
    ]
