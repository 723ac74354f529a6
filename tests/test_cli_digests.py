"""Pinned stdout of the command line.

Each case hashes (sha256) the exact bytes `rwre` writes to stdout for one
invocation.  The cases cover every record subcommand in JSON and CSV, the
three `grid` experiments and an empty sweep, and one invocation of each
other subcommand.  A subcommand that takes `--workers` runs at 1 and at 2
workers against the same digest, so the worker count is pinned to change
nothing.  The replica counts above 8192 give two chunks, so that two
workers both run.
"""

import contextlib
import hashlib
import io

import pytest

from rwre.cli import main

# name -> (argv, whether the subcommand takes --workers)
_CASES = {
    "cylinder-delta-json": (["cylinder-delta", "--alpha", "2,1,1,1", "--N", "2", "--L", "2",
                             "--replicas", "9000", "--steps", "5000", "--seed", "801"], True),
    "cylinder-delta-csv": (["cylinder-delta", "--alpha", "2,1,1,1,1,1", "--N", "2", "--L", "1",
                            "--replicas", "9000", "--steps", "40", "--seed", "802",
                            "--format", "csv"], True),
    "cylinder-exit-json": (["cylinder-exit", "--alpha", "2,1,1,1", "--N", "2", "--L", "2",
                            "--replicas", "9000", "--seed", "803"], True),
    "cylinder-exit-csv": (["cylinder-exit", "--alpha", "0.7,0.3", "--L", "3",
                           "--replicas", "9000", "--seed", "804", "--format", "csv"], True),
    "transience-json": (["transience", "--alpha", "2,1,1,1", "--L", "2,4",
                         "--replicas", "8500", "--steps", "200", "--seed", "805"], True),
    "transience-csv": (["transience", "--alpha", "2,1", "--L", "3",
                        "--replicas", "8500", "--seed", "806", "--format", "csv"], True),
    "velocity-json": (["velocity", "--alpha", "0.06,0.05,0.05,0.05", "--horizons", "8,2",
                       "--replicas", "8500", "--seed", "807"], True),
    "velocity-csv": (["velocity", "--alpha", "2,1", "--horizons", "5",
                      "--replicas", "8500", "--seed", "808", "--format", "csv"], True),
    "ruin-json": (["ruin", "--alpha", "2,1", "--L", "4", "--replicas", "9000",
                   "--seed", "809"], True),
    "ruin-csv": (["ruin", "--alpha", "0.5,0.4", "--L", "2", "--replicas", "9000",
                  "--seed", "810", "--format", "csv"], True),
    "grid-cylinder-delta": (["grid", "cylinder-delta", "--alpha", "2,1,1,1", "--N", "1,2",
                             "--L", "1,2", "--replicas", "600", "--steps", "5000",
                             "--seed", "811"], True),
    "grid-cylinder-exit": (["grid", "cylinder-exit", "--alpha", "2,1,1,1", "--N", "2",
                            "--L", "1,3", "--replicas", "9000", "--seed", "812"], True),
    "grid-transience": (["grid", "transience", "--alpha", "2,1,1,1", "--N", "1,2",
                         "--L", "2,4", "--replicas", "600", "--steps", "200",
                         "--seed", "813"], True),
    "grid-empty": (["grid", "cylinder-delta", "--alpha", "2,1,1,1", "--N", "1,2",
                    "--L", "", "--seed", "814"], True),
    "annealed-prob": (["annealed-prob", "--alpha", "2,1", "--torus", "3",
                       "--path", "0,1,0,1", "--replicas", "9000", "--seed", "815"], True),
    "cycle-check": (["cycle-check", "--alpha", "2,1,1,1", "--torus", "3,3",
                     "--path", "0,1,0"], False),
    "reverse-check-json": (["reverse-check", "--alpha", "2,1", "--torus", "3", "--k", "2",
                            "--replicas", "9000", "--seed", "816", "--format", "json"], True),
    "sample-env-torus": (["sample-env", "--alpha", "2,1,1,1", "--torus", "2,3",
                          "--seed", "817"], False),
    "sample-env-cylinder": (["sample-env", "--alpha", "2,1,1,1", "--N", "2", "--L", "2",
                             "--seed", "818"], False),
    "trap-check": (["trap-check", "--alpha", "0.1,0.1,0.1,0.1", "--axis", "2"], False),
}

_DIGESTS = {
    "annealed-prob": "ba98f38b93a162082beb64eddc245309a293451c79479d91e52f165153bf2620",
    "cycle-check": "80331d7ab13a8216db9b1241e9b6b079bd37a0397f0f675b729a01bb933d21da",
    "cylinder-delta-csv": "d0fc5d9b90759b0bdd60c423d924d64ebee67a0f68f1eab15549208e7782e4bf",
    "cylinder-delta-json": "27df6f7d3c5ed5329d4a7afd7b5a65a0c1d40d1b3e10863530972d2af6a50d2b",
    "cylinder-exit-csv": "b57925a8fdd3fb7fd5446cdc60b307b88f7c69308fbb02779e926317522550db",
    "cylinder-exit-json": "d1e2cb756a402796da81758c349bd0d23f0659a43c6779f8a62228fbdf9ba13f",
    "grid-cylinder-delta": "a9da6ecc0233b501e5fd9cd0b10fff154a602d6495c5607cf75501c37ec9007e",
    "grid-cylinder-exit": "0b97b370c93831d06d9cf3436dcccec6c8de86195263e0e1f8d5f2f6a0be34b0",
    "grid-empty": "5fbdf800b609c0cb42ceddf3716fd852d433fd51c85a6259247b6119689c5db0",
    "grid-transience": "941b4ae54d1802e9de1e8f1eb2a8a658d6d2732ad6edb975ae65e25e24d0b9a8",
    "reverse-check-json": "7196f4dad576069f73bd134edf02c512a4011ddf5e3d99aa25a2d8fa13f07983",
    "ruin-csv": "7a206e33a5eccb14f2644cd5b96fca24558bddd0a29cb4ca1f623dea80df8172",
    "ruin-json": "93f136f4e2d0bdc68417470a4a7a3059b3a8eae9914a3d23ffc68eba4c5c3c30",
    "sample-env-cylinder": "a38973c5328d4191efad4d6ef5c33b5502b465fa50cc9f895e3484755155b63d",
    "sample-env-torus": "d7f8d9eb597d38545d9712ccae83779506e534207a6d16585804dc339c53e1de",
    "transience-csv": "553cd19690ecf5180f3cbe9771764f848a15e5a03bdc4125ff09f124034f2cdf",
    "transience-json": "70351830d067a24ebfe7661625e4c8ab4cdba7f2ad5c1d3bb4380702a20f1133",
    "trap-check": "bae10148221a8fb29a49322b7ad63cee0e8023746bb892449a6e5a5bce50c455",
    "velocity-csv": "a0d5167127c3f9556e8b3af7c137636a8f63ec8b306ab85f78b9fa8fae234145",
    "velocity-json": "095be82a273ede3852ef48e50fb747d9750394112b42c5a1d841ebc66948c115",
}


def _stdout(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().encode()


_RUNS = [(case, workers) for case in sorted(_CASES)
         for workers in ((1, 2) if _CASES[case][1] else (None,))]


@pytest.mark.parametrize("case,workers", _RUNS)
def test_cli_stdout_is_pinned(case, workers, monkeypatch):
    monkeypatch.delenv("RWRE_SEED", raising=False)
    argv, _ = _CASES[case]
    if workers is not None:
        argv = [*argv, "--workers", str(workers)]
    assert hashlib.sha256(_stdout(argv)).hexdigest() == _DIGESTS[case]
