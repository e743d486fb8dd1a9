"""Package metadata: `pip install -e .` (or `python setup.py develop`).

This is the project's only packaging file; the tests and tools also run
from a plain checkout with `PYTHONPATH=src`.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.8.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "networkx>=3.0"],
)
