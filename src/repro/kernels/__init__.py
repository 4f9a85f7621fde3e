"""NumPy reference kernels -- the library's cuDNN substitute.

BrickDL invokes vendor kernels at brick granularity (section 3.3.4); this
reproduction invokes these NumPy kernels instead.  They are written with the
vectorization idioms of the HPC-Python guides (stride-trick window views, no
Python-level loops over elements, contiguous outputs) and serve as the
numerical ground truth.

:mod:`repro.kernels.dispatch` is the entry point: every value comes from its
whole-tensor :func:`apply_node_full`; the brick-local
:func:`apply_node_local` is the per-brick call whose cost the simulator
counts and the test suite's per-brick oracle makes.
"""

from repro.kernels.dispatch import apply_node_full, apply_node_local, pad_value_for

__all__ = ["apply_node_full", "apply_node_local", "pad_value_for"]
