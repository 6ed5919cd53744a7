"""Shared test setup: import visionmpc before any test module imports numpy.

Importing visionmpc pins one BLAS thread unless the user set a count, and
numpy's OpenBLAS reads that count once, when numpy is first imported. Every
test module imports numpy before visionmpc, so without this import the
in-process tests would run OpenBLAS at its default count, one thread per
core, and not at the count the `visionmpc` command runs.
"""

import visionmpc  # noqa: F401
