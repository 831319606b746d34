"""Every random draw in src/ keeps its bytes.

The checks' verdicts, the run artifacts and the benchmark's reference
outputs all rest on these draws, so a change to how a field is drawn must
leave every coefficient's bytes as they are, zero signs included.  Each
digest is the first 16 hex digits of the sha256 of one caller's
coefficient bytes, concatenated over DIGEST_POINTS.  The digests were
recorded from the two generators that spectral.random_field replaced
(hermitian_noise and random_phases); this module uses only names that
both forms of the code define.
"""

import hashlib

import pytest

from sqgev import checks
from sqgev.solver import InitialData, SolverConfig, initial_field
from sqgev.spectral import Grid, random_band_limited

DIGEST_POINTS = ((16, 0), (32, 7), (64, 123))  # (n, seed)


def initial(profile, dealias, p):
    def draw(grid, seed):
        data = InitialData(profile, amplitude=0.3, seed=seed)
        return initial_field(SolverConfig(grid=grid, dealias=dealias, p=p, initial_data=data))

    return draw


SRC_DRAWS = {
    "random_band_limited": lambda grid, seed: random_band_limited(grid, 2, seed),
    "_shaped_band_field": lambda grid, seed: checks._shaped_band_field(grid, 2, seed),
    "_smooth_noise": checks._smooth_noise,
    "_prescribed_profile_field-p2": lambda grid, seed: checks._prescribed_profile_field(
        grid, 0.5, 2.0, seed),
    "_prescribed_profile_field-p4-damped": lambda grid, seed: checks._prescribed_profile_field(
        grid, 0.3, 4.0, seed, 0.2, 0.5),
    **{
        f"initial_field-{profile}-{dealias}-p{p:g}": initial(profile, dealias, p)
        for profile in ("random-band", "single-ring")
        for dealias in ("two-thirds", "none")
        for p in (2.0, 4.0)
    },
}

DRAW_DIGESTS = {
    "_prescribed_profile_field-p2": "695ee82211bb83ee",
    "_prescribed_profile_field-p4-damped": "1b83d3f66b25a271",
    "_shaped_band_field": "93d9f4552aab599d",
    "_smooth_noise": "7074672f4915841a",
    # the random-band datum fills the two-thirds box under either rule
    "initial_field-random-band-none-p2": "b2abb082f18eda15",
    "initial_field-random-band-none-p4": "c7438d06aecf93b7",
    "initial_field-random-band-two-thirds-p2": "b2abb082f18eda15",
    "initial_field-random-band-two-thirds-p4": "c7438d06aecf93b7",
    "initial_field-single-ring-none-p2": "b383d2f4e5aa035d",
    "initial_field-single-ring-none-p4": "5f152e007aa2eee6",
    "initial_field-single-ring-two-thirds-p2": "5868213bee8f6bbc",
    "initial_field-single-ring-two-thirds-p4": "df29846b7236b285",
    "random_band_limited": "f0ac6aa4caf4e367",
}


@pytest.mark.parametrize("name", sorted(SRC_DRAWS))
def test_draw_keeps_its_recorded_bytes(name):
    digest = hashlib.sha256()
    for n, seed in DIGEST_POINTS:
        digest.update(SRC_DRAWS[name](Grid(n), seed).coeffs.tobytes())
    assert digest.hexdigest()[:16] == DRAW_DIGESTS[name]
