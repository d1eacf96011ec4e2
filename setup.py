"""Setup script for the repro package (plain setup.py, no pyproject.toml).

The bare-setup.py layout is deliberate: with a pyproject.toml present,
pip builds in an isolated environment that needs network access to
fetch setuptools, and this repository must install with
``pip install -e .`` fully offline.  The package is pure Python.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
