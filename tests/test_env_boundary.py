"""Static check that the environment is read in one place (AST-based).

Every ``REPRO_*`` variable is read, validated and defaulted by
:meth:`repro.eval.run_config.RunConfig.from_env`; every layer below it
takes resolved values.  A second ``os.environ`` / ``os.getenv`` read
anywhere else in ``src/repro`` would bring back a private default and a
private error message, so this test fails the build on one.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the one module allowed to read the environment
BOUNDARY = SRC / "eval" / "run_config.py"

_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENV_NAMES for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_boundary_module_reads_the_environment():
    assert _env_reads(BOUNDARY), "RunConfig moved; update BOUNDARY"


def test_no_other_module_reads_the_environment():
    violations = [
        f"{path.relative_to(SRC)}:{lineno}"
        for path in sorted(SRC.rglob("*.py"))
        if path != BOUNDARY
        for lineno in _env_reads(path)
    ]
    assert not violations, (
        "environment read outside RunConfig.from_env (add a RunConfig field "
        "instead):\n" + "\n".join(violations)
    )
