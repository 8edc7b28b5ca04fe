"""Package metadata (self-contained: there is no ``pyproject.toml``).

The execution environment has no ``wheel`` package, so PEP 660 editable
installs fail inside setuptools' ``editable_wheel``; use
``pip install -e . --no-use-pep517 --no-build-isolation`` to take the
classic ``setup.py develop`` path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Deterministic discrete-event reproduction of TSUE and six "
                "baseline erasure-code update methods",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.gf": ["_region.c"]},
    python_requires=">=3.9",
    install_requires=["numpy", "cffi"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
