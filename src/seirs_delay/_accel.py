"""Name of the kernel path, read by ``perfbench/run.py`` to label its timings.

The kernels in ``_kernels`` have a single path, plain CPython, so there is
no compiled variant to enable.
"""

NUMBA_ENABLED = False
