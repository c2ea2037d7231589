"""numpy is the only third-party package the runtime needs."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``None`` in ``sys.modules`` makes every later import of the name fail,
#: as if the package were not installed.
BLOCKED_RUN = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None
    sys.modules["networkx"] = None

    import repro
    import repro.experiments.__main__ as cli
    import repro.taskbased

    sys.exit(cli.main(["bronze", "--pairs", "2"]))
    """
)


def test_cli_runs_with_scipy_and_networkx_blocked():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "makespan" in done.stdout + done.stderr


def test_no_source_file_imports_scipy_or_networkx():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("scipy", "networkx") for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
