"""Setup shim: this environment lacks the `wheel` package, so modern PEP 660
editable installs fail; the legacy `setup.py develop` path works offline."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="BrickDL reproduction: graph-level DNN optimizations with fine-grained data blocking (ICPP 2024)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
