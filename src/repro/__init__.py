"""repro — reproduction of "High Throughput Training of Deep Surrogates from
Large Ensemble Runs" (SC'23).

The package implements a Melissa-style framework for online training of deep
surrogate models from large ensembles of simulation runs, together with every
substrate the paper depends on:

* :mod:`repro.nn` — a NumPy neural-network library (modules, optimizers,
  schedulers) used in place of PyTorch/TensorFlow.
* :mod:`repro.parallel` — the thread-based SPMD substrate of the data-parallel
  training ranks and the client/server transport layer.
* :mod:`repro.solvers` — the 2D heat-equation solver (implicit Euler with a
  direct or CG linear solve, plus an explicit reference).
* :mod:`repro.sampling` — experimental-design samplers (Monte Carlo, Latin
  hypercube, Halton).
* :mod:`repro.buffers` — the FIFO, FIRO and Reservoir training buffers.
* :mod:`repro.client`, :mod:`repro.server`, :mod:`repro.launcher` — the three
  Melissa components.
* :mod:`repro.offline` — the on-disk dataset and the dataloader of the
  paper's offline baseline, which trains through the server's training loop.
* :mod:`repro.core` — high-level study API tying everything together.
* :mod:`repro.simulation` — a discrete-event performance model used to
  extrapolate to the paper's full scale.
* :mod:`repro.experiments` — one driver per paper table/figure.
"""

from repro.version import __version__

__all__ = ["__version__"]
