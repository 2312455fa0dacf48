"""Pins OpenBLAS and OpenMP to one thread for the whole suite.

pytest imports this file before any test module, so the variables are set
before numpy loads OpenBLAS.  On a shared 2-core machine the default thread
count made some n = 12 cases many times slower under load, and the first
n = 12 table of a process stall for about a second.  A value already in the
environment is kept.
"""
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
