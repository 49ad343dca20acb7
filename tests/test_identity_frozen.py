"""The bits of the pointwise identities, frozen: digests (sha256 of
``tobytes()``) of the float64 rows of ``bochner_residuals`` (residual,
scale), ``hessian_trace_gaps`` (least slack, scale) and ``cauchy_step_trace``
(mean_sq, second, fisher), on verify's draws and times and on seeded ones,
and the sha256 of the stdout of ``verify --only`` for the three identity
groups and of a full ``verify``.  Every digest is computed in one child
process at one BLAS thread, so no product's rounding depends on how the BLAS
splits it between threads.

The seeded batches of 1, 3, 4 and 7 pairs or fields are one block, one full
block, a full block and a block of one, and two full blocks and a block of
one, at ``_BLOCK_FIELDS`` = 3; the mixed batches change the cutoff between
neighbours, which cuts a block at each change."""

import json

import pytest

from conftest import run_python

_DIGESTS = r"""
import contextlib, hashlib, io, json
import numpy as np
from heatent import cli, fixtures as fx, spectral as sp, verify as vf

COUNTS = (1, 3, 4, 7)
TORUS = sp.torus2(1.0, 1.0)


def digest(rows):
    return hashlib.sha256(np.asarray(rows, dtype=float).tobytes()).hexdigest()[:12]


def bochner_cases(rng):
    draws = fx.seeded_torus_fields(vf._RANDOM_SEED, (True,) + (True, False) * 9)
    yield "verify", [(draws[0], None), *zip(draws[1::2], draws[2::2])]
    for cutoff in (2, 3, 4):
        for count in COUNTS:
            fields = sp.random_torus_fields(rng, TORUS, (True,) * count, cutoff)
            potentials = sp.random_torus_fields(rng, TORUS, (False,) * count, cutoff)
            drift = sp.torus2_drift(sp.random_torus_fields(rng, TORUS, [False], 2, [0.3])[0])
            yield f"c={cutoff} {count} none", [(w, None) for w in fields]
            yield f"c={cutoff} {count} explicit", list(zip(fields, potentials))
            yield f"c={cutoff} {count} mixed", [(w, v if i % 2 else None) for i, (w, v)
                                                 in enumerate(zip(fields, potentials))]
            yield f"c={cutoff} {count} drifted", [
                (sp.SpectralField(drift, w.coefficients, cutoff), None) for w in fields]


def trace_cases(rng):
    yield "verify", fx.seeded_torus_fields(vf._RANDOM_SEED + 1, (True,) * 8)
    for cutoff in (2, 3, 4):
        for count in COUNTS:
            yield f"c={cutoff} {count}", sp.random_torus_fields(rng, TORUS, (True,) * count, cutoff)
    yield "mixed", [fx.random_positive_torus_field(rng, TORUS, cutoff=2 + i % 3) for i in range(7)]


def cauchy_cases(rng):
    for name in ("circle", "torus", "sphere"):
        field = fx.get_fixture(name).initial
        yield f"{name} verify", field, (0.05, 0.2, 1.0)
        for count in COUNTS:
            yield f"{name} {count}", field, np.append(0.0, rng.uniform(0.0, 2.0, count - 1))


def stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


rng = np.random.default_rng(20261021)
print(json.dumps({
    "bochner_residuals": {label: digest(sp.bochner_residuals(pairs))
                          for label, pairs in bochner_cases(rng)},
    "hessian_trace_gaps": {label: digest(sp.hessian_trace_gaps(fields))
                           for label, fields in trace_cases(rng)},
    "cauchy_step_trace": {label: digest(sp.cauchy_step_trace(field, times))
                          for label, field, times in cauchy_cases(rng)},
    "verify": {" ".join(argv): stdout(argv)
               for argv in [["verify", "--only", group]
                            for group in ("bochner_residual", "hessian_trace", "cauchy_step")]
               + [["verify"]]},
}))
"""


@pytest.fixture(scope="module")
def digests():
    proc = run_python("-c", _DIGESTS, OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# label: digest of the (residual, scale) rows
FROZEN_BOCHNER = {
    "verify": "8cffb3482208",
    "c=2 1 none": "6a76679bbc96",
    "c=2 1 explicit": "5ae6896e5395",
    "c=2 1 mixed": "6a76679bbc96",
    "c=2 1 drifted": "14ececf13479",
    "c=2 3 none": "f6c836479b85",
    "c=2 3 explicit": "4402b3a52cb3",
    "c=2 3 mixed": "98eeaba7ca24",
    "c=2 3 drifted": "f631aba65235",
    "c=2 4 none": "1bc875d57b72",
    "c=2 4 explicit": "63ee40a1743a",
    "c=2 4 mixed": "45bf20fdb3d1",
    "c=2 4 drifted": "1df2b78edaf5",
    "c=2 7 none": "f26b9d1d5461",
    "c=2 7 explicit": "480bc4adf317",
    "c=2 7 mixed": "fe1ad247dc99",
    "c=2 7 drifted": "ff6183b4f4f4",
    "c=3 1 none": "aef2c55ced8f",
    "c=3 1 explicit": "551520376030",
    "c=3 1 mixed": "aef2c55ced8f",
    "c=3 1 drifted": "706f5e8c6805",
    "c=3 3 none": "014f0acb1b5f",
    "c=3 3 explicit": "7f166aa01ddd",
    "c=3 3 mixed": "2cd2d47ab7cf",
    "c=3 3 drifted": "34a6381726e3",
    "c=3 4 none": "850f86b62d28",
    "c=3 4 explicit": "296cb0203e04",
    "c=3 4 mixed": "bb37408de0e6",
    "c=3 4 drifted": "84ee584eb937",
    "c=3 7 none": "65fb076f020b",
    "c=3 7 explicit": "6966263e8376",
    "c=3 7 mixed": "4e85f03de64b",
    "c=3 7 drifted": "7e93fcda5b3b",
    "c=4 1 none": "47a3b5338ea8",
    "c=4 1 explicit": "920bec5ad7e5",
    "c=4 1 mixed": "47a3b5338ea8",
    "c=4 1 drifted": "8a93c00063e9",
    "c=4 3 none": "7e0b9dd0fca8",
    "c=4 3 explicit": "d036829fb007",
    "c=4 3 mixed": "a34dfb0e6898",
    "c=4 3 drifted": "8caddec96bf2",
    "c=4 4 none": "ee4ab6588623",
    "c=4 4 explicit": "c31113b5bb2a",
    "c=4 4 mixed": "1298170567d5",
    "c=4 4 drifted": "ce7fd49d5882",
    "c=4 7 none": "85d1a277fbd1",
    "c=4 7 explicit": "f68fa3b0b97b",
    "c=4 7 mixed": "efd1bb34d92d",
    "c=4 7 drifted": "17cdf5011298",
}

# label: digest of the (least slack, scale) rows
FROZEN_TRACE_GAPS = {
    "verify": "e358bec558c9",
    "c=2 1": "9bfe2735ac13",
    "c=2 3": "b28e58b364e9",
    "c=2 4": "564c592dc813",
    "c=2 7": "2bfa70672244",
    "c=3 1": "c0e804a7188c",
    "c=3 3": "096efc094b46",
    "c=3 4": "fc670a479e55",
    "c=3 7": "bb49c8921150",
    "c=4 1": "22963fb1f2f1",
    "c=4 3": "cdb857c3a13a",
    "c=4 4": "1df33550605e",
    "c=4 7": "99e2083d8e20",
    "mixed": "df8e280fb6d5",
}

# label: digest of the (mean_sq, second, fisher) rows
FROZEN_CAUCHY_STEPS = {
    "circle verify": "cc5a305292cf",
    "circle 1": "55625023f63a",
    "circle 3": "bd2d28be1066",
    "circle 4": "e30a94d4c044",
    "circle 7": "bd062a545aa7",
    "torus verify": "ffc50a8f8b8a",
    "torus 1": "c58d2f23e765",
    "torus 3": "e01e4ae7d74f",
    "torus 4": "ebe0753d8704",
    "torus 7": "48580efd480f",
    "sphere verify": "ecfc1cf5444e",
    "sphere 1": "73e3039ec7d8",
    "sphere 3": "95be2354142f",
    "sphere 4": "07a074130a96",
    "sphere 7": "62bce08f649a",
}

# argv: sha256 of stdout
FROZEN_VERIFY = {
    "verify --only bochner_residual": "bdfb94e8ffc69af0",
    "verify --only hessian_trace": "a22c80a14285c0e2",
    "verify --only cauchy_step": "b74947ce23861f6e",
    "verify": "40aa92b0bf9a5e10",
}


FROZEN_ROWS = {"bochner_residuals": FROZEN_BOCHNER, "hessian_trace_gaps": FROZEN_TRACE_GAPS,
               "cauchy_step_trace": FROZEN_CAUCHY_STEPS}


@pytest.mark.parametrize("function", FROZEN_ROWS)
def test_identity_rows_keep_their_frozen_bits(digests, function):
    got, frozen = digests[function], FROZEN_ROWS[function]
    assert list(got) == list(frozen)
    changed = {label: (want, got[label]) for label, want in frozen.items() if got[label] != want}
    assert not changed


def test_verify_identity_groups_keep_their_frozen_bytes(digests):
    got = digests["verify"]
    assert list(got) == list(FROZEN_VERIFY)
    changed = [argv for argv, want in FROZEN_VERIFY.items() if got[argv] != want]
    assert not changed
