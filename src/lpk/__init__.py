"""Linear-predictability toolkit for finite-support Fourier data.

Samples of a compactly supported profile taken on a uniform frequency
grid satisfy short linear recurrences; this package builds the scenes,
fits the recurrence (annihilation) filters, quantifies how well a filter
annihilates a scene through exact energy identities, and uses the
filters to fill unmeasured samples in single- and multi-channel
acquisitions, partial-coverage acquisitions, and slice superpositions.

Layout:

- :mod:`lpk.core` grids, signals, filters, masks
- :mod:`lpk.io` the ``.lpk`` container format and the JSON document reader and writer
- :mod:`lpk.phantom` closed-form scenes and their exact samples
- :mod:`lpk.lp` filter fitting, pattern interpolation, energy identities
- :mod:`lpk.recon` lifted low-rank and least-squares reconstruction
- :mod:`lpk.multi` multi-channel scenes and slice separation
- :mod:`lpk.harness` mask generation, noise, metrics, batch runs
- :mod:`lpk.cli` the ``lpk`` command

Names are imported from these modules; the package itself only loads
them.
"""

from . import core, harness, io, lp, multi, phantom, quadrature, recon

__version__ = "0.1.0"

__all__ = ["core", "harness", "io", "lp", "multi", "phantom", "quadrature", "recon"]
