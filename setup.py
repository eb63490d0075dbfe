"""Setup shim enabling legacy editable installs on environments without the
``wheel`` package.  The library needs numpy (the vectorized candidate
evaluation of :mod:`repro.core.batch`) and nothing else outside the
standard library."""

from setuptools import setup

setup(
    install_requires=["numpy>=1.24"],
)
