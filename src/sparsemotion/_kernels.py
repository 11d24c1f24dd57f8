"""Kept only for ``NUMBA_ENABLED``, which perfbench's run record reads."""

NUMBA_ENABLED = False
