"""Setuptools shim; all metadata lives in pyproject.toml.

Kept so that ``pip install -e .`` works on environments whose setuptools
lacks the ``wheel`` package (legacy editable installs go through
``setup.py develop``).  The package is pure Python: there is nothing to
build.
"""

from setuptools import setup

setup()
