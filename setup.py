"""Legacy setuptools entry point.

Kept so that ``pip install -e .`` works in offline environments whose
setuptools/wheel combination cannot build PEP 517 editable wheels; all project
metadata lives in ``setup.cfg``.
"""

from setuptools import setup

setup()
