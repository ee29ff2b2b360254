"""The package runs without its test-only dependencies.

networkx builds the partition tests' fixture graphs and nothing else:
``pyproject.toml`` lists it under the ``test`` extra only.  These tests
hold that line — the entry points import without it, and a whole
TOP + PLACE + PROFILE emulation runs with ``import networkx`` made to
fail.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# ``sys.modules[name] = None`` makes every later ``import name`` raise.
_BLOCK = "import sys; sys.modules['networkx'] = None\n"


def _run(code: str, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", _BLOCK + code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_entry_points_do_not_import_networkx(tmp_path):
    proc = _run(
        "import repro.api, repro.cli, repro.service.server\n"
        "import repro.experiments.runner\n"
        "assert sys.modules['networkx'] is None\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_emulate_runs_without_networkx(tmp_path):
    proc = _run(
        "from repro.cli import massf\n"
        "sys.exit(massf(['emulate', '--topology', 'campus',\n"
        "                '--approaches', 'top,place,profile',\n"
        "                '--duration', '30',\n"
        f"                '--cache-dir', {str(tmp_path / 'cache')!r}]))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
