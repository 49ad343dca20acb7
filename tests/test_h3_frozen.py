"""The bits of the H3 path, frozen: digests (sha256 of ``tobytes()``) of every
``H3Sweep`` array over seeded (kappa, grid) cases, the exact messages of
refused grids, and the ``h3`` command's output.  The digests were taken from
the straightforward form of ``evaluate_records`` (three ``errstate`` blocks,
each refusal tested where its quantity was formed) and pin its rewrites to
the same bits."""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from heatent import cli
from heatent import h3entropy as h3
from heatent.quadrature import QuadratureConvergenceError

# 1, 21, 22 and 43 rows are 3, 63, 66 and 129 kernel rows: one block, just
# under one 64-row block, just over it, and one row past two blocks
ROW_COUNTS = (1, 21, 22, 43)
WINDOWS = range(-8, 12)  # one decade of kappa^2 t each, 1e-8 to 1e12


def sweep_digest(sweep: h3.H3Sweep) -> str:
    """The first 12 hex digits of sha256 over every field's bytes, in field order."""
    digest = hashlib.sha256()
    for field in fields(sweep):
        digest.update(np.asarray(getattr(sweep, field.name), dtype=float).tobytes())
    return digest.hexdigest()[:12]


def sweep_cases():
    """(label, kappa, times): per row count a seeded kappa in [0.25, 4] per
    window, its times log-spaced across the window (one time drawn inside it
    for one row), then two grids at seeded kappa^2 t over 1e-8 to 1e12 in
    seeded order."""
    rng = np.random.default_rng(20240817)
    for count in ROW_COUNTS:
        for window in WINDOWS:
            kappa = 0.25 * 16.0 ** rng.random()
            k2t = (10.0 ** (window + rng.random(1)) if count == 1
                   else np.geomspace(10.0 ** window, 10.0 ** (window + 1), count))
            yield f"{count}x1e{window}", kappa, k2t / kappa ** 2
        for draw in range(2):
            kappa = 0.25 * 16.0 ** rng.random()
            k2t = 10.0 ** rng.uniform(-8.0, 12.0, count)
            yield f"{count}xmixed{draw}", kappa, k2t / kappa ** 2


FROZEN_SWEEPS = """
f8ec85fc8dc2 7536b4c0de65 582ea11ba79c d97a06d83fbf ed43ac50de38 3e57216eb4ac 444c2a120547
5de13b87a241 185b14d609ca ea4fc85690eb cf65bdf2b812 3db8a3a0371e f3ffe2158652 08cdfef0742c
46d9e1f470b2 ddaac66f15c7 cb08510c47cf 8b354cca29ab 4ea9b1f6ecff 71607cbe6e74 f5801a7ac6e7
a08b1bff8182 2ba530a1ba94 95b8218fcc02 b2064ae17c57 13da4c2e0bb0 34ac147a24fd dffdc96098e4
c71f923afc69 0a88e3267eb0 08b5a813c357 822d2d2dd3c8 1751cc1fad78 b31c6e0be873 c76ae7c13a8a
2bc02b7fc642 e829a67be236 25d06e79ecfc 2a0625f7d7d9 4b31fec69eaa 87f167124c49 376d0d0c4106
8d2fe4acce6f e268dba2b294 4364dc354468 43aa02d20f6c d1b53d9ce11f 8fc7a1af9255 ed0a47c853b6
b0a9608cd7a0 7bcba187297a 766d8dbed521 12f8d3a6cbad dd50245538a4 070b2943eb46 330fcde2214a
8fae6dd82b3c 168566e7aba2 0e31a1c88177 0102917b2e0e fc9525b2706d 5de932c29b0b bfc11175c2e8
61a9da3fa954 d6efd952503f fe3ec46955ea b76798944935 d7fc7a7e2461 436e2cb8a945 a5682fd79455
bab246f4ce07 903f6b6d2d69 a4b3b16a2491 ae0808b0f2e6 a2fcf0b319a6 5fc088103cf4 189c6b8d309c
bf3d3d1e7577 3bf8ef37f190 d1e1fc6ec02d c55dabe508dc 78c371c6ea49 9a529686831f 91bf374a0825
1309554fb1f7 e76379fd3b13 2ec67027c35c f076dbf59f94
""".split()


def test_sweeps_keep_their_frozen_bits():
    digests = [(label, sweep_digest(h3.evaluate_records(h3.H3Params(kappa), times)))
               for label, kappa, times in sweep_cases()]
    assert len(digests) == len(FROZEN_SWEEPS) == len(ROW_COUNTS) * (len(WINDOWS) + 2)
    changed = [label for (label, got), want in zip(digests, FROZEN_SWEEPS) if got != want]
    assert not changed


# Refused grids across the kernel's row blocks, each with the message its
# first failing check gives; the checks run in the order of the docstring of
# evaluate_records, each naming the first time that fails it.
REFUSALS = [
    (1.0, np.geomspace(1.0, 1e300, 43), ValueError,
     "t=1.38949549437317e+107 leaves the double range: a node sum of eta or eta' overflows"),
    (1.0, np.geomspace(1e-140, 1.0, 43), ValueError,
     "t=1e-140 leaves the double range: xi, xi' or the eta' scale 1/(2t^2) overflows or "
     "underflows"),
    (1e78, np.geomspace(1e-22, 1.0, 22), ValueError,
     "a moment factor F_0 to F_4 overflows at kappa = 1e+78, t = 0.0896150501946605"),
    (1e40, np.geomspace(1e50, 1e61, 21), ValueError,
     "t=1e+50 leaves the double range: a closed part, envelope term or margin is not finite"),
    (1e200, np.geomspace(1e-3, 1.0, 43), ValueError,
     "t=0.001 leaves the double range: kappa^2 t overflows"),
]


@pytest.mark.parametrize("kappa, times, error, message", REFUSALS)
def test_refusals_keep_their_frozen_messages(kappa, times, error, message):
    with pytest.raises(error) as raised:
        h3.evaluate_records(h3.H3Params(kappa), times)
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("last, message", [
    (0, "log-weighted sinh integral (power 1) at t=1e-08: error estimate 6.792e-29 on 153 nodes"),
    (3, "log-weighted sinh integral (power 3) at t=2.0309176209047348e-08: error estimate "
        "1.840e-36 on 153 nodes"),
    (21, "log-weighted sinh integral (power 1) at t=1.4252451805700266e-06: error estimate "
         "1.171e-25 on 153 nodes")])
def test_unconverged_rows_keep_their_frozen_message(last, message, tolerances):
    # at relative tolerance 3e-14 the rule misses some integrals below
    # t = 1e-6 and meets every other one; the last of 22 rows misses all
    # four, eta'(t) and both eta(t +- h), or eta(t + h) alone, and the first
    # in the order eta(t), eta'(t), eta(t + h), eta(t - h) is named
    tolerances(3e-14, 1e-300)
    small = np.geomspace(1e-8, 1e-4, 40)
    times = np.concatenate([small[24:], np.geomspace(1e-3, 1e2, 5), small[[last]]])
    with pytest.raises(QuadratureConvergenceError) as raised:
        h3.evaluate_records(h3.H3Params(1.0), times)
    assert str(raised.value) == message


# h3 commands and the sha256 of (exit status, stdout, stderr) each gave
FROZEN_COMMANDS = [
    (["h3"], "a90d438bbd81df51"),
    (["h3", "--format", "json"], "e15e0cb5fff68ad8"),
    (["h3", "--kappa", "0.25", "--t-start", "1.6e-7", "--t-stop", "1.6e13", "--t-count", "43"],
     "a1b7e6398dcc6907"),
    (["h3", "--kappa", "4", "--t-start", "6.25e-10", "--t-stop", "6.25e10", "--t-count", "22",
      "--format", "json"], "18f20c54524d7b1e"),
    (["h3", "--kappa", "1", "--t-start", "1000", "--t-stop", "3000", "--t-count", "21",
      "--format", "json"], "1f56fd1f88cdc5d1"),
    (["h3", "--kappa", "100", "--t-start", "1e-12", "--t-stop", "1e12", "--t-count", "50"],
     "48c6d1bb5c26e3cb"),
]


@pytest.mark.parametrize("argv, digest", FROZEN_COMMANDS,
                         ids=[" ".join(argv[1:]) for argv, _ in FROZEN_COMMANDS])
def test_h3_output_keeps_its_frozen_bytes(argv, digest, capsys):
    status = cli.main(argv)
    out, err = capsys.readouterr()
    assert hashlib.sha256(f"{status}\n{out}\n{err}".encode()).hexdigest()[:16] == digest
