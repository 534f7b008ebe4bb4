"""A bit guard on the mass integrals: E, M_alpha and the area of AdS
coordinate spheres and of the tilted AdS profile, and the asymptotic
series, as ``float.hex``, recorded with the numpy version below.  Every
sum of these outputs is a theta column of phi sums whose order no
refactor of the row loop is meant to move, so they must keep their bits;
on another numpy version, whose pairwise sum or trig may round otherwise,
they are compared to 1e-15 of the largest component instead.

To record the table again after a change that moves them on purpose,
print ``{case: _hex(_outputs(case)) for case in GOLDEN}``
and state in CHANGES.md which cases moved and by how much."""

import numpy as np
import pytest

from hypermass.geometry import (QuadratureGrid, ads_schwarzschild_metric,
                                coordinate_sphere_surface,
                                radial_profile_surface)
from hypermass.hypgeom import radial_bounds
from hypermass.mass import (asymptotic_limit, round_sphere_quadrature,
                            shi_tam_alpha, shi_tam_vector, surface_mass_data,
                            wang_mass)

from conftest import ADS_M, TILTED_LINEAR

NUMPY_VERSION = "2.4.6"
# the asymptotic op of the spinor-series benchmark: 128x256, these radii,
# and an h with every component of its linear part nonzero
ASYMPTOTIC_H = (0.61, (0.37, -0.82, 0.23))
ASYMPTOTIC_RADII = (0.2, 0.1, 0.05, 0.025)


def _outputs(case):
    """The vectors of ``case``: E, M_alpha (alpha from the nodes' radial
    bounds, as the CLI takes it) and the area of a surface, or E(S_r) at
    each radius, the extrapolated limit and Upsilon/2 of the series."""
    kind, axes = case.split("@")
    grid = QuadratureGrid.build(*map(int, axes.split("x")))
    if kind == "asymptotic":
        sphere = round_sphere_quadrature(*ASYMPTOTIC_H, grid)
        energies, extrapolated = asymptotic_limit(sphere, ASYMPTOTIC_RADII)
        upsilon_half = 0.5 * np.asarray(wang_mass(sphere))
        return [*energies.tolist(), extrapolated.tolist(),
                upsilon_half.tolist()]
    surface = (coordinate_sphere_surface(2.0, grid) if kind == "ads_r2"
               else radial_profile_surface(1.0, TILTED_LINEAR, 1.0, grid))
    data = surface_mass_data(surface, ads_schwarzschild_metric(ADS_M),
                             iso_tol=1.0)
    alpha = shi_tam_alpha(*radial_bounds(data.R0))
    return [np.asarray(data.energy()).tolist(),
            np.asarray(shi_tam_vector(data, alpha)).tolist(), [data.area()]]


def _hex(vectors):
    return [" ".join(v.hex() for v in vector) for vector in vectors]


GOLDEN = {
    'ads_r2@16x32': [
        '0x0.0p+0 0x0.0p+0 '
        '0x1.6000000000000p-55 0x1.44f71434627e0p+1',
        '0x0.0p+0 0x0.0p+0 '
        '-0x1.4000000000000p-57 0x1.697cb12a1ac57p+0',
        '0x1.921fb54442d19p+5',
    ],
    'ads_r2@32x64': [
        '0x0.0p+0 0x0.0p+0 '
        '0x0.0p+0 0x1.44f71434627e0p+1',
        '0x0.0p+0 0x0.0p+0 '
        '-0x1.6000000000000p-57 0x1.697cb12a1ac57p+0',
        '0x1.921fb54442d19p+5',
    ],
    'ads_r2@64x128': [
        '0x0.0p+0 0x0.0p+0 '
        '0x1.2800000000000p-57 0x1.44f71434627e0p+1',
        '0x0.0p+0 0x0.0p+0 '
        '-0x1.6000000000000p-59 0x1.697cb12a1ac57p+0',
        '0x1.921fb54442d19p+5',
    ],
    'ads_r2@128x256': [
        '0x0.0p+0 0x0.0p+0 '
        '-0x1.6300000000000p-56 0x1.44f71434627dfp+1',
        '0x0.0p+0 0x0.0p+0 '
        '-0x1.6c00000000000p-57 0x1.697cb12a1ac57p+0',
        '0x1.921fb54442d19p+5',
    ],
    'tilted_ads@32x64': [
        '-0x1.80690cb140f7bp-7 -0x1.80690cb140f4fp-6 '
        '-0x1.204ec984f0b7bp-5 0x1.5d0360650a7f4p+1',
        '-0x1.ce4f386b3cbc6p-11 -0x1.ce4f386b3ca19p-10 '
        '-0x1.5abb6a506d7a8p-9 0x1.dbc4fe1b66dc3p+2',
        '0x1.43f6ece639decp+4',
    ],
    'tilted_ads@128x256': [
        '-0x1.80690cb140f6fp-7 -0x1.80690cb140f49p-6 '
        '-0x1.204ec984f0b79p-5 0x1.5d0360650a7f3p+1',
        '-0x1.ce4f386b3cb5ep-11 -0x1.ce4f386b3ca51p-10 '
        '-0x1.5abb6a506d7d6p-9 0x1.dbdf3a450146bp+2',
        '0x1.43f6ece639debp+4',
    ],
    'asymptotic@128x256': [
        '0x1.88745149317f9p-1 -0x1.b2e1c1db7c0a1p+0 '
        '0x1.e7ea8e9259370p-2 0x1.ee654cc45df89p+2',
        '0x1.8b8ff80d94bc1p-1 -0x1.b6536cd0c768cp+0 '
        '0x1.ebc7bec4c6c08p-2 0x1.eb7c9dd005d11p+2',
        '0x1.8c7263bbfd94ap-1 -0x1.b74e52d73b970p+0 '
        '0x1.ece13db94919ep-2 0x1.eace54d21bd3ap+2',
        '0x1.8cae737ae4ec4p-1 -0x1.b790e0d449c7bp+0 '
        '0x1.ed2be98407d9ep-2 0x1.eaa4c09155ccfp+2',
        '0x1.8cc321bb52ecfp-1 -0x1.b7a7cb6eb5d64p+0 '
        '0x1.ed459f8ef179dp-2 0x1.ea9752cbd559dp+2',
        '0x1.8cc32013906f0p-1 -0x1.b7a7c99923821p+0 '
        '0x1.ed459d801b59dp-2 0x1.ea9752e7c2289p+2',
    ],
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_outputs_keep_their_bits(case):
    got = _outputs(case)
    if np.__version__ == NUMPY_VERSION:
        assert _hex(got) == GOLDEN[case]
        return
    assert len(got) == len(GOLDEN[case])
    for vector, recorded in zip(got, GOLDEN[case]):
        expect = [float.fromhex(v) for v in recorded.split()]
        scale = max(map(abs, expect))
        assert np.max(np.abs(np.subtract(vector, expect))) <= 1e-15 * scale
