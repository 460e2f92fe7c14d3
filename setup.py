"""Build script: the package is pure Python; pyproject.toml holds its metadata.

package_dir and entry_points are duplicated here so the console script
survives older setuptools versions that do not read them from pyproject.toml.
"""

from setuptools import setup

setup(
    package_dir={"": "src"},
    entry_points={"console_scripts": ["hdvar = hdvar.cli:entry_point"]},
)
