"""Exact-arithmetic machinery for certifying that plane polynomial shift maps
act discretely along their axes in an infinite-dimensional hyperboloid model.

Layers:
  lattice     sparse exact classes with the signature-(1, oo) pairing
  cremona     polynomial maps (fields, polymaps) and their lattice action (action)
  hyperbolic  numeric hyperboloid geometry: geodesics, projections, tubes
  certifier   the verification pipeline, with an exhaustive Fix-set search
  report      diffable JSON form of reports: 12-digit reals, exact rationals
  cli         machine-readable command-line front end

The package root re-exports nothing, so importing one layer loads only that
layer and the layers it uses; import names from the layer modules.
"""

__version__ = "0.1.0"
