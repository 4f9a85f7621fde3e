"""NumPy reference kernels -- the library's cuDNN substitute.

BrickDL invokes vendor kernels at brick granularity (section 3.3.4); this
reproduction invokes these NumPy kernels instead.  They are written with the
vectorization idioms of the HPC-Python guides (stride-trick window views, no
Python-level loops over elements, contiguous outputs) and serve as the
numerical ground truth: merged brick execution must reproduce their results
exactly.

:mod:`repro.kernels.dispatch` is the entry point used by all executors.
"""

from repro.kernels.dispatch import (BY_TENSOR, STACKABLE, apply_node_full, apply_node_local, by_tensor,
                                    pad_value_for)

__all__ = ["BY_TENSOR", "STACKABLE", "apply_node_full", "apply_node_local", "by_tensor", "pad_value_for"]
