"""Packaging for the ``repro`` library (the DFX paper reproduction).

The package lives under ``src/``; ``pip install -e .`` installs it through
the legacy ``setup.py develop`` path, which also works where pip, setuptools
and wheel are too old for PEP 660 editable installs.  The version matches
``repro.__version__``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    python_requires=">=3.10",
)
