"""Exact-arithmetic machinery for certifying that plane polynomial shift maps
act discretely along their axes in an infinite-dimensional hyperboloid model.

Layers:
  lattice     sparse exact classes with the signature-(1, oo) pairing
  cremona     polynomial maps (fields, polymaps) and their lattice action (action)
  hyperbolic  numeric hyperboloid geometry: geodesics, projections, tubes
  certifier   the verification pipeline, with an exhaustive Fix-set search
  cli         machine-readable command-line front end
"""

from .action import AxisData, axis_classes, base_points, henon_act, orbit_label
from .certifier import (
    CertReport,
    ParameterError,
    StarWindow,
    certify,
    degree_bound,
    epsilon_window,
    fix_set_bruteforce,
    fix_set_symbolic,
    kernel_name,
    worst_case_intersection,
)
from .fields import PrimeField, QQ, RationalField
from .hyperbolic import (
    DELTA,
    GeodesicSpec,
    Tube,
    check_point,
    distance,
    geodesic_point,
    project_to_geodesic,
    quad_fourth_side,
    traversal_offset,
    tube_radius,
    tube_traverses,
    wpd_exponents,
)
from .lattice import (
    PMClass,
    PointLabel,
    anon_label,
    exceptional,
    intersect,
    is_unit_timelike,
    line_class,
    p_label,
    parse_label,
    q_label,
)
from .polymaps import (
    PolyMap,
    affine_map,
    compose,
    conjugate_by_henon,
    coordinate_swap,
    degree,
    henon_inverse,
    henon_map,
    identity_map,
    jonquieres_involution,
    translation,
)

__version__ = "0.1.0"
