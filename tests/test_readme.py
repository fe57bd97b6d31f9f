"""The README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n") :]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
