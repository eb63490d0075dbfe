"""Setup shim enabling legacy editable installs on environments without the
``wheel`` package.  The library needs nothing outside the standard
library; numpy and networkx are test and example dependencies only
(``requirements-dev.txt``)."""

from setuptools import setup

setup()
