"""Locate the checkout the benchmark runs in and import ``repro`` from its ``src``."""

from __future__ import annotations

import os
import sys

#: the checkout root: the directory that holds ``perfbench/``
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def load_repro():
    """Import the ``repro`` package of this checkout (never another copy)."""
    package = os.path.join(SRC, "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise MissingProgram(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(package + os.sep):
        raise MissingProgram(
            f"imported repro from {repro.__file__}, not from {package}"
        )
    return repro


def work_dir(name: str) -> str:
    """A scratch directory inside the checkout (listed in .gitignore)."""
    path = os.path.join(ROOT, name)
    os.makedirs(path, exist_ok=True)
    return path
