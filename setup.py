from setuptools import find_packages, setup

setup(
    name="repro-cfd",
    version="0.2.0",
    description=(
        "Detecting CFD violations in distributed data "
        "(Fan, Geerts, Ma, Müller; ICDE 2010) — reproduction and engine"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
