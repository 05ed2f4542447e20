"""Mega-scale (N = 1024-4096) vectorized kernels.

The paper's Figure 3 stops at N = 256; pushing the same experiments an
order of magnitude further needs the protocol's trial resolution off
Python object graphs and onto machine words and flat arrays.  This
package holds:

* :mod:`repro.megascale.kernel` — the CSD protocol's first-fit grant on
  per-channel segment bitmasks (:class:`VectorCSDKernel`), which
  resolves the sweep engine's trials, and the grant-log replay of the
  live sampler's probes (:class:`~repro.megascale.kernel.VectorSampler`);
* :mod:`repro.megascale.bench` — the live-vs-vector identity +
  speedup measurement backing ``BENCH_megascale.json``.

Everything here is held to the repo's byte-identity contract: a vector
result that differs from the live simulator in any observable — grants,
blocks, channel counts, sampled probes — is a bug, and the hypothesis
lockstep suite in ``tests/megascale/`` checks it against the live
:class:`~repro.csd.dynamic_csd.DynamicCSDNetwork`.
"""

from repro.megascale.bench import measure_kernel_speedup
from repro.megascale.kernel import VectorCSDKernel

__all__ = [
    "VectorCSDKernel",
    "measure_kernel_speedup",
]
