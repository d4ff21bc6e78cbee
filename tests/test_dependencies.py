"""The package needs nothing beyond the standard library at runtime."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
import canpath
for info in pkgutil.iter_modules(canpath.__path__):
    importlib.import_module("canpath." + info.name)
names = {name.split(".")[0] for name in sys.modules}
# __mp_main__ is the alias multiprocessing gives the __main__ module
print(sorted(names - set(sys.stdlib_module_names) - {"canpath", "__main__", "__mp_main__"}))
"""


def test_every_module_imports_with_the_standard_library_only():
    # -S keeps site-packages off the path and skips the .pth hooks that
    # import third-party modules at startup
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_EVERY_MODULE],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
