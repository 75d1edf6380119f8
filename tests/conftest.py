"""Shared fixtures of the package tests."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, freshly loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench():
    """``perfbench(name)`` loads ``perfbench/<name>.py``; perfbench is not a package."""
    return _load_perfbench
