"""Put a `ctrwlab` console script on PATH when none is installed.

tests/test_cli.py runs the CLI as a subprocess and resolves it with
`shutil.which` when the module is imported, so the shim is written in
`pytest_configure`, before collection. The shim imports `ctrwlab.cli:main`
from this checkout's `src`, as the installed console script does.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SHIM = """#!{python}
import sys

sys.path.insert(0, {src!r})
from ctrwlab.cli import main

sys.exit(main())
"""


def pytest_configure(config):
    if shutil.which("ctrwlab"):
        return
    shim_dir = tempfile.mkdtemp(prefix="ctrwlab-shim-")
    shim = Path(shim_dir) / "ctrwlab"
    shim.write_text(SHIM.format(python=sys.executable, src=str(SRC)))
    shim.chmod(0o755)
    old_path = os.environ.get("PATH", "")
    os.environ["PATH"] = shim_dir + os.pathsep + old_path

    def restore():
        os.environ["PATH"] = old_path
        shutil.rmtree(shim_dir, ignore_errors=True)

    config.add_cleanup(restore)
