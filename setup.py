"""Legacy setup shim.

The execution environment is offline with setuptools 65.5 and no ``wheel``
package, so PEP 660 editable installs (which need ``bdist_wheel``) fail.
This shim lets ``pip install -e . --no-use-pep517 --no-build-isolation``
(and plain ``pip install -e .`` via the fallback path) work offline.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="DSXplore reproduction: sliding-channel convolutions for CNNs (IPDPS 2021)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
