"""Pinned records of the cylinder experiments.

Each case hashes (sha256) the exact bits (float.hex) of a `cylinder_delta_exit`
or `cylinder_exit_from_origin` estimate and standard error, with its
truncated and undecided counts.  The walk kernel draws its uniforms in a
fixed order and picks edges by a fixed tie rule, so any change to either, or
to the environment sampler, moves a digest.  The cases cover d = 2 cells of
the benchmark's delta grid, a d = 3 cylinder whose outside vertex has degree
16 (every other vertex has degree 6), irregular, tiny and huge weights, rows
that sample to NaN, several chunks under two workers, and step caps that stop
walkers while many are still active and once only stragglers remain.
"""

import hashlib

import numpy as np
import pytest

from rwre import (
    CylinderSpec,
    LatticeSpec,
    RngStream,
    cylinder_delta_exit,
    cylinder_exit_from_origin,
)

IRREGULAR = (0.7, 0.3, 0.11, 1.3, 2.9, 0.05)

# name -> (experiment, weights, N, L, replicas, step cap, seed, workers)
_CASES = {
    "delta-grid-N1-L1": ("delta", (2.0, 1.0, 1.0, 1.0), 1, 1, 3000, 5000, 701, 1),
    "delta-grid-N2-L2": ("delta", (2.0, 1.0, 1.0, 1.0), 2, 2, 3000, 5000, 702, 1),
    "delta-grid-N4-L4": ("delta", (2.0, 1.0, 1.0, 1.0), 4, 4, 3000, 5000, 703, 1),
    "delta-d1": ("delta", (2.0, 1.0), 1, 6, 3000, 5000, 704, 1),
    "delta-d3-N4": ("delta", (2.0, 1.0, 1.0, 1.0, 1.0, 1.0), 4, 2, 2000, 5000, 705, 1),
    "delta-irregular-N2": ("delta", IRREGULAR, 2, 3, 2000, 5000, 706, 1),
    "delta-irregular-N4": ("delta", IRREGULAR, 4, 1, 1500, 5000, 707, 1),
    "delta-heavy": ("delta", (1e9, 2e8, 3.3, 0.7), 2, 3, 2000, 5000, 708, 1),
    "delta-nan-rows": ("delta", (0.002, 0.001, 0.001, 0.001), 2, 4, 300, 400, 709, 1),
    "delta-cap-lockstep": ("delta", (2.0, 1.0, 1.0, 1.0), 4, 5, 3000, 3, 710, 1),
    "delta-cap-tail": ("delta", (2.0, 1.0, 1.0, 1.0), 4, 5, 3000, 300, 711, 1),
    "delta-chunks-w2": ("delta", (2.0, 1.0, 1.0, 1.0), 1, 1, 9000, 5000, 712, 2),
    "exit-grid-N2-L1": ("exit", (2.0, 1.0, 1.0, 1.0), 2, 1, 3000, 5000, 721, 1),
    "exit-grid-N4-L2": ("exit", (2.0, 1.0, 1.0, 1.0), 4, 2, 3000, 5000, 722, 1),
    "exit-d1": ("exit", (2.0, 1.0), 1, 5, 3000, 5000, 723, 1),
    "exit-d3-N4": ("exit", (2.0, 1.0, 1.0, 1.0, 1.0, 1.0), 4, 2, 2000, 5000, 724, 1),
    "exit-irregular": ("exit", IRREGULAR, 2, 2, 2000, 5000, 725, 1),
    "exit-cap-lockstep": ("exit", (2.0, 1.0, 1.0, 1.0), 4, 4, 3000, 4, 726, 1),
    "exit-cap-tail": ("exit", (2.0, 1.0, 1.0, 1.0), 4, 4, 3000, 60, 727, 1),
    "exit-chunks-w2": ("exit", (2.0, 1.0, 1.0, 1.0), 2, 1, 9000, 5000, 728, 2),
}

_DIGESTS = {
    "delta-cap-lockstep": "b618870a1bb57bd420135b967f1e8561555d867730035305e13c77888c24d34e",
    "delta-cap-tail": "697ac669a4467d8536ca06cca822f8dded28da47028e666661dcac74534f9c67",
    "delta-chunks-w2": "a28a507f4833782a157e7ba4b4ddace99c0766ca69e0e7cd88b3e4bc69b5d8c5",
    "delta-d1": "f14737d1fc1af606a64277a3e9cda33a93bfc6b31b27d73cbe5301066c52ce37",
    "delta-d3-N4": "b4dc79183eeb73c6a62cd400ee4cd78dc3b70b8c010ff9528af08defc71ff3da",
    "delta-grid-N1-L1": "462ef2b870f2f170397ddf2c2f21b7b8818a96596869edf50d3abe020346a8c2",
    "delta-grid-N2-L2": "42039a1602f7e0cb7783a392c310380c3629864a13385c3af4ba8e8243b7109c",
    "delta-grid-N4-L4": "1aad82f324a8b0ac58a82b14ab6806ae1b38cb8308b3ad1778295a01f7b7cf3c",
    "delta-heavy": "814f0b4639a57c1510cc3e4cc067539d92c4019d1599bf6027b8c5ea72fe5783",
    "delta-irregular-N2": "633cb3a78efbe46cda3fd5dc27ecc2a465aeedf8d8947b6622c5d6a6cdd86a72",
    "delta-irregular-N4": "c069706cef7ca19a062ab38ed37e45e46a1fb337f4118332d9d49c36d90dcb10",
    "delta-nan-rows": "93b39330d5f6316f7b1a3c57c4b21e53921dbedc96df26f0da8195972e7669f0",
    "exit-cap-lockstep": "33cd1b9959aae272b9d932c19f44734190b0ca7bbd84254217195d34dbb90b45",
    "exit-cap-tail": "f88454db6743c2db439a067d35141a26c64a8f4f118bd69c45898f61126ed09d",
    "exit-chunks-w2": "f12b947da1a5939fa5543a4557afa14338f1d98261345a96989b5c9a689a0c81",
    "exit-d1": "2f0ef313e66b168e04f0feba3774f648f6c46f2622776d66805c241a8fa1449a",
    "exit-d3-N4": "2e2fde25419d3dcc41deed7eb4a88685fa78730384c721b9d8d0507ff4735ebb",
    "exit-grid-N2-L1": "ca5b19424f895930eef296c6506e556aa7f43e47294cd96b06dfe68405c19ec0",
    "exit-grid-N4-L2": "8d012f887e6212311e519d03c4e443caa9a78aa843eeed415f324e3daf7cff17",
    "exit-irregular": "07d40d57848729e087aa77fcb538b50192987d66e127962d50d2056605402ed4",
}


def _record(case):
    experiment, weights, N, L, replicas, cap, seed, workers = _CASES[case]
    run = cylinder_delta_exit if experiment == "delta" else cylinder_exit_from_origin
    spec = CylinderSpec(N=N, L=L, lattice=LatticeSpec(weights))
    # rows whose Gamma draws all underflow normalise to NaN (0/0)
    with np.errstate(invalid="ignore"):
        res = run(spec, replicas, RngStream(seed), step_cap=cap, workers=workers)
    return (res.estimate.hex(), res.standard_error.hex(), res.truncated, res.undecided)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_cylinder_records_are_pinned(case):
    digest = hashlib.sha256(repr(_record(case)).encode()).hexdigest()
    assert digest == _DIGESTS[case]
