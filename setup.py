"""Setup shim enabling legacy editable installs on environments without the
``wheel`` package.  The library needs networkx (the data-flow graphs of
:mod:`repro.ir.dfg`) and numpy (the vectorized candidate evaluation of
:mod:`repro.core.batch`)."""

from setuptools import setup

setup(
    install_requires=["networkx", "numpy>=1.24"],
)
