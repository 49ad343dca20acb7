"""The bits of the spectral path, frozen: digests (sha256 of ``tobytes()``)
of ``entropy_trace``'s columns, of every ``check_bounds`` report (its name, the
rates, its rhs and verdicts, and the least rhs - rate) and of lone
``evolve`` coefficients, over the four fixtures and seeded random fields, and
the sha256 of (exit status, stdout, stderr) of ``evolve`` and ``bounds`` on
every manifold.  Every digest is computed in one child process at one BLAS
thread, so no product's rounding depends on how the BLAS splits it between
threads.

The grids of 1, 2, 3, 8, 9 and 17 times are 3, 6, 9, 24, 27 and 51 trace
rows: one, one, two, three, four and seven 8-row blocks of drifted
propagation, and one, one, one, one, two and three chunks on the c = 6 grid,
whose chunk holds 8 times."""

import json

import pytest

from conftest import run_python

_DIGESTS = r"""
import contextlib, hashlib, io, json, math
import numpy as np
from heatent import bounds as bd, cli, fixtures as fx, spectral as sp

COUNTS = (1, 2, 3, 8, 9, 17)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:  # a string by its utf-8 bytes, anything else as a float array
        h.update(a.encode() if isinstance(a, str) else np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:12]


def seeded_times(rng, lo, hi, count):
    return np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), count)))


def sphere_field(rng, cutoff):
    # 1 + a zonal polynomial of degree cutoff // 2 with sup norm at most 0.5
    coeffs = np.zeros(cutoff + 1)
    degree = np.arange(1, cutoff // 2 + 1)
    noise = rng.normal(size=degree.size) * 0.6 ** degree
    coeffs[degree] = noise * math.sqrt(4.0 * math.pi) / np.sqrt(2.0 * degree + 1.0)
    coeffs[degree] *= 0.5 / np.abs(noise).sum()
    coeffs[0] = math.sqrt(4.0 * math.pi)
    return sp.SpectralField(sp.sphere2(1.0), coeffs, cutoff)


def cases():
    rng = np.random.default_rng(20261020)
    for name in ("circle", "torus", "sphere", "torus-drift"):
        fixture = fx.get_fixture(name)
        yield f"{name} default", fixture.initial, fixture.default_times
        lo, hi = fixture.default_times[0], fixture.default_times[-1]
        for count in COUNTS:
            yield f"{name} {count}", fixture.initial, seeded_times(rng, lo, hi, count)
    torus = sp.torus2(1.0, 1.0)
    for cutoff, count in zip(range(2, 7), (1, 2, 3, 9, 17)):
        field = fx.random_positive_torus_field(rng, torus, cutoff)
        yield f"torus c={cutoff}", field, seeded_times(rng, 0.01, 2.0, count)
    for cutoff, count in zip(range(6, 15), COUNTS + (8, 3, 1)):
        yield f"sphere c={cutoff}", sphere_field(rng, cutoff), seeded_times(rng, 0.01, 8.0, count)
    for cutoff, count in ((3, 9), (6, 17)):
        potential = sp.random_torus_fields(rng, torus, [False], 2, [0.3])[0]
        data = fx.random_positive_torus_field(rng, torus, cutoff)
        field = sp.SpectralField(sp.torus2_drift(potential), data.coefficients, cutoff)
        yield f"drift c={cutoff}", field, seeded_times(rng, 0.02, 2.0, count)


def least_margin(rhs, rates):
    # the least rhs - rate in floats, NaN when any margin is
    margins = [value - rate for rate, value in zip(rates.ravel().tolist(), rhs.ravel().tolist())]
    return math.nan if any(map(math.isnan, margins)) else min(margins)


def arrays(field, times):
    trace = sp.entropy_trace(field, times)
    reports = bd.check_bounds(trace, field.manifold, field)
    rates = trace.rate_direct
    return [digest(trace.times, trace.entropy, rates, trace.rate_fd, trace.fisher),
            digest(*(a for r in reports for a in (r.bound_name, rates, r.rhs, r.satisfied,
                                                  least_margin(r.rhs, rates)))),
            digest(*(sp.evolve(field, t).coefficients for t in times))]


def command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    text = f"{status}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GRIDS = ([], ["--t-start", "0.02", "--t-stop", "1.7", "--t-count", "9", "--t-scale", "lin"],
         ["--t-start", "0.001", "--t-stop", "100", "--t-count", "17"],
         ["--t-start", "0.3", "--t-stop", "0.3", "--t-count", "1"],
         ["--t-start", "2", "--t-stop", "1"])
print(json.dumps({
    "arrays": {label: arrays(field, times) for label, field, times in cases()},
    "commands": {" ".join(argv): command(argv)
                 for command_name in ("evolve", "bounds")
                 for manifold in ("circle", "torus", "sphere", "torus-drift")
                 for fmt in ("csv", "json") for grid in GRIDS
                 for argv in [[command_name, "--manifold", manifold, "--format", fmt, *grid]]},
}))
"""


@pytest.fixture(scope="module")
def digests():
    proc = run_python("-c", _DIGESTS, OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# label: (trace columns, bound reports, lone evolve coefficients)
FROZEN_ARRAYS = {
    "circle default": ("cf23181ed71a", "6e9d5110c6ef", "01d9cecd1f3a"),
    "circle 1": ("90d6baf14040", "17b84cf202c6", "2c7f848c26cc"),
    "circle 2": ("6028509346ab", "bfe0a85f4ad1", "6a01ca2aa689"),
    "circle 3": ("ebb87c026d59", "a81ed7b7e903", "8fb6cbf5c704"),
    "circle 8": ("1bb4a6c2c0d4", "24a7135f752b", "dd0ec89c040f"),
    "circle 9": ("6208612eb723", "0d9ce152afbe", "e2d4dcaae964"),
    "circle 17": ("63b191f1ecb0", "4ff7d93a59d9", "75bfebc8e1bd"),
    "torus default": ("d01a4567cf6e", "a3182c4ccaab", "e77bd31173a1"),
    "torus 1": ("65b15620e9a5", "afa2ee85dd4f", "c6967da56ec8"),
    "torus 2": ("7087db881349", "0866b262a380", "7eeda9e0f633"),
    "torus 3": ("ee51b3107e56", "dac309c1bcec", "2474eaa8fa5b"),
    "torus 8": ("2b450dad7298", "cd229afaa957", "5ddbb3b48563"),
    "torus 9": ("64941bf997ca", "b0ab9af93410", "d9a137e3f160"),
    "torus 17": ("85033282c37e", "9ab1d0d6247c", "e688733084e9"),
    "sphere default": ("82c65d1fc876", "f9ebc83306cf", "7db4afdd49c7"),
    "sphere 1": ("a66b73af6bc8", "d19631373bc9", "601544d55985"),
    "sphere 2": ("56166809f6b6", "d9a73dcdcb9d", "a4c7b21a4e0f"),
    "sphere 3": ("95c9fea95dbd", "c68566ae6134", "6b24480ecb2e"),
    "sphere 8": ("d91048bba34e", "e3ea0728d2ea", "de5d4159444a"),
    "sphere 9": ("07937b61a66f", "08acb532936a", "ea86399b5ae8"),
    "sphere 17": ("a8046693302e", "333b381c9f94", "3dab022a2fd0"),
    "torus-drift default": ("9a83be0b29f1", "bd5033b6539b", "14eb56ea5223"),
    "torus-drift 1": ("6abc79a7ca5c", "2262bb8b46ae", "5caa9d3c8638"),
    "torus-drift 2": ("59a6dd64b454", "b590bf19392a", "63cc3a4f4ae6"),
    "torus-drift 3": ("244180c020c0", "09f233f03bae", "098f10cbadb0"),
    "torus-drift 8": ("04638c607d2c", "1d1d59a8f4ca", "c50b5401c20c"),
    "torus-drift 9": ("7f96fc8309b7", "8906f23408f2", "1d0dd3a8c129"),
    "torus-drift 17": ("09bdb25c49a5", "a8e3dbef4e21", "d8989b524960"),
    "torus c=2": ("52881dcb8dbf", "5b48f8cf1cb5", "3730b2b96bb6"),
    "torus c=3": ("2787f20eea73", "1876869874c0", "eb44cf5690e4"),
    "torus c=4": ("88f8efc4e3f6", "ad01fbc1faf0", "e1f429463d90"),
    "torus c=5": ("ba12b9452c83", "e768bcf2b30b", "6504cb284304"),
    "torus c=6": ("a7cf65114634", "528607ec5f6d", "e24c65d49237"),
    "sphere c=6": ("ca1827cef6b5", "8974a8dd3bc4", "acddd2479da7"),
    "sphere c=7": ("586db0bc9ba4", "b84941eaed5a", "b74e4dc85436"),
    "sphere c=8": ("f2668438d0e1", "ff2760ce0318", "ffbd1423638c"),
    "sphere c=9": ("4f245349e31b", "36633d1a62c6", "3afb2a3b3091"),
    "sphere c=10": ("064ee4de6ded", "b20cb99c90b8", "f8e4be9499fe"),
    "sphere c=11": ("8f04507e235c", "4b35aa334ee2", "c5c141e06345"),
    "sphere c=12": ("ff7630719028", "4c035eab5d25", "62a93cf587c4"),
    "sphere c=13": ("6686048acbfe", "399cc9fe35b4", "b4ee5dbb5b6c"),
    "sphere c=14": ("1a72c609d48e", "4ed009e68129", "cb492ca2f7e2"),
    "drift c=3": ("3eae1a888204", "b791b4b46dee", "3539be5ee5c6"),
    "drift c=6": ("baaf2ef7079d", "c776d3858f60", "deb5def60398"),
}

# argv: sha256 of (exit status, stdout, stderr)
FROZEN_COMMANDS = {
    "evolve --manifold circle --format csv": "646be2b34626705b",
    "evolve --manifold circle --format csv --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "0f31081bdea9d2eb",
    "evolve --manifold circle --format csv --t-start 0.001 --t-stop 100 --t-count 17":
        "07b44b94158426c6",
    "evolve --manifold circle --format csv --t-start 0.3 --t-stop 0.3 --t-count 1":
        "26d9951dabedf3e7",
    "evolve --manifold circle --format csv --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "evolve --manifold circle --format json": "6aa6f15610443cbc",
    "evolve --manifold circle --format json --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "d3660c7225ae0ef1",
    "evolve --manifold circle --format json --t-start 0.001 --t-stop 100 --t-count 17":
        "87ed3e5032dc7537",
    "evolve --manifold circle --format json --t-start 0.3 --t-stop 0.3 --t-count 1":
        "8a53012e1a2d0907",
    "evolve --manifold circle --format json --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "evolve --manifold torus --format csv": "8fdbbcec305fc107",
    "evolve --manifold torus --format csv --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "b3b47fa8f7a5a72d",
    "evolve --manifold torus --format csv --t-start 0.001 --t-stop 100 --t-count 17":
        "8ad17591c67d5b9e",
    "evolve --manifold torus --format csv --t-start 0.3 --t-stop 0.3 --t-count 1":
        "6700d1a71ce01988",
    "evolve --manifold torus --format csv --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "evolve --manifold torus --format json": "80cfe4ff32237b78",
    "evolve --manifold torus --format json --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "cdaf3e7e1251ca3b",
    "evolve --manifold torus --format json --t-start 0.001 --t-stop 100 --t-count 17":
        "6411dc9a729c1d08",
    "evolve --manifold torus --format json --t-start 0.3 --t-stop 0.3 --t-count 1":
        "6334e15d50f85207",
    "evolve --manifold torus --format json --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "evolve --manifold sphere --format csv": "5241a4349f039c95",
    "evolve --manifold sphere --format csv --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "509ccf751d4d5a78",
    "evolve --manifold sphere --format csv --t-start 0.001 --t-stop 100 --t-count 17":
        "4eed838a6ec14b7e",
    "evolve --manifold sphere --format csv --t-start 0.3 --t-stop 0.3 --t-count 1":
        "4df170e21c811edf",
    "evolve --manifold sphere --format csv --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "evolve --manifold sphere --format json": "bb902d6b9cfb3e39",
    "evolve --manifold sphere --format json --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "d45615a8c96e38c5",
    "evolve --manifold sphere --format json --t-start 0.001 --t-stop 100 --t-count 17":
        "707b5ea636e31784",
    "evolve --manifold sphere --format json --t-start 0.3 --t-stop 0.3 --t-count 1":
        "3d1b385539d28f49",
    "evolve --manifold sphere --format json --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "evolve --manifold torus-drift --format csv": "3b027346f2bd97e6",
    "evolve --manifold torus-drift --format csv"
    " --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "a4de9f2f9dee4238",
    "evolve --manifold torus-drift --format csv --t-start 0.001 --t-stop 100 --t-count 17":
        "26c4a2541fc5795c",
    "evolve --manifold torus-drift --format csv --t-start 0.3 --t-stop 0.3 --t-count 1":
        "cdbeab9612c33950",
    "evolve --manifold torus-drift --format csv --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "evolve --manifold torus-drift --format json": "1e4026c2c2674792",
    "evolve --manifold torus-drift --format json"
    " --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "8f97959ac50bd440",
    "evolve --manifold torus-drift --format json --t-start 0.001 --t-stop 100 --t-count 17":
        "f69c56bfc1bd6730",
    "evolve --manifold torus-drift --format json --t-start 0.3 --t-stop 0.3 --t-count 1":
        "d6e801427ffe9dc8",
    "evolve --manifold torus-drift --format json --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "bounds --manifold circle --format csv": "c34a8a88db630663",
    "bounds --manifold circle --format csv --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "5ad9e39bfa6912ed",
    "bounds --manifold circle --format csv --t-start 0.001 --t-stop 100 --t-count 17":
        "a7656c2cc289858a",
    "bounds --manifold circle --format csv --t-start 0.3 --t-stop 0.3 --t-count 1":
        "f0d51fd79a9691cf",
    "bounds --manifold circle --format csv --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "bounds --manifold circle --format json": "3027be2ac3968e09",
    "bounds --manifold circle --format json --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "4cf2fcc0adf778aa",
    "bounds --manifold circle --format json --t-start 0.001 --t-stop 100 --t-count 17":
        "71bc498bf601509c",
    "bounds --manifold circle --format json --t-start 0.3 --t-stop 0.3 --t-count 1":
        "7178d426d370cadd",
    "bounds --manifold circle --format json --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "bounds --manifold torus --format csv": "2c38a8631ab917c6",
    "bounds --manifold torus --format csv --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "fc567b0cbd38ac33",
    "bounds --manifold torus --format csv --t-start 0.001 --t-stop 100 --t-count 17":
        "4aac20b06ace5b59",
    "bounds --manifold torus --format csv --t-start 0.3 --t-stop 0.3 --t-count 1":
        "c1d60f8140a327bc",
    "bounds --manifold torus --format csv --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "bounds --manifold torus --format json": "784e001c95ade485",
    "bounds --manifold torus --format json --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "e44eb5985edbc17b",
    "bounds --manifold torus --format json --t-start 0.001 --t-stop 100 --t-count 17":
        "0e01170316968b37",
    "bounds --manifold torus --format json --t-start 0.3 --t-stop 0.3 --t-count 1":
        "b6747715e4dd0a7b",
    "bounds --manifold torus --format json --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "bounds --manifold sphere --format csv": "3a2434b816c4844e",
    "bounds --manifold sphere --format csv --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "abf92b08885976a1",
    "bounds --manifold sphere --format csv --t-start 0.001 --t-stop 100 --t-count 17":
        "d0f75344563e1237",
    "bounds --manifold sphere --format csv --t-start 0.3 --t-stop 0.3 --t-count 1":
        "968090c5dbf25286",
    "bounds --manifold sphere --format csv --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "bounds --manifold sphere --format json": "0a5cb9a15a016bed",
    "bounds --manifold sphere --format json --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "9602ddddd68f8d5a",
    "bounds --manifold sphere --format json --t-start 0.001 --t-stop 100 --t-count 17":
        "2a6fca66b709f074",
    "bounds --manifold sphere --format json --t-start 0.3 --t-stop 0.3 --t-count 1":
        "598c0e3a6ce3535b",
    "bounds --manifold sphere --format json --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "bounds --manifold torus-drift --format csv": "78ecd453d6bc92db",
    "bounds --manifold torus-drift --format csv"
    " --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "e3fdeaf6b6231bdd",
    "bounds --manifold torus-drift --format csv --t-start 0.001 --t-stop 100 --t-count 17":
        "3cadd01373f7e699",
    "bounds --manifold torus-drift --format csv --t-start 0.3 --t-stop 0.3 --t-count 1":
        "21b1e67bf898336a",
    "bounds --manifold torus-drift --format csv --t-start 2 --t-stop 1": "bda076208a1c1d17",
    "bounds --manifold torus-drift --format json": "64b401434b608e2d",
    "bounds --manifold torus-drift --format json"
    " --t-start 0.02 --t-stop 1.7 --t-count 9 --t-scale lin":
        "8887086448dc478e",
    "bounds --manifold torus-drift --format json --t-start 0.001 --t-stop 100 --t-count 17":
        "cc5f7d7069adb7cd",
    "bounds --manifold torus-drift --format json --t-start 0.3 --t-stop 0.3 --t-count 1":
        "d734fa6e8bd8b373",
    "bounds --manifold torus-drift --format json --t-start 2 --t-stop 1": "bda076208a1c1d17",
}


def test_traces_reports_and_evolves_keep_their_frozen_bits(digests):
    got = digests["arrays"]
    assert list(got) == list(FROZEN_ARRAYS)
    changed = {label: (want, got[label]) for label, want in FROZEN_ARRAYS.items()
               if list(want) != got[label]}
    assert not changed


def test_evolve_and_bounds_commands_keep_their_frozen_bytes(digests):
    got = digests["commands"]
    assert list(got) == list(FROZEN_COMMANDS)
    changed = [argv for argv, want in FROZEN_COMMANDS.items() if got[argv] != want]
    assert not changed
