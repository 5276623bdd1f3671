"""Byte-for-byte pins of the `holonomy tau` report.

The digests were taken when each sample was still carried as a Fraction, a
`SampleCheck` and a {"point", "pass"} dict on its way to the writer, and
the collinear-map ones when `PLHomeo` was still set up on Fractions; any
change to the bytes of these reports shows up here first.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from tautcalc import holonomy
from tautcalc.cli import main
from tautcalc.holonomy import TileShiftMap

DEFAULT = {
    ("a", "json"): "475adb107c984e59a4d6eaf866acf873efaad8bb3444fc8d7f0c5cd4b3f186f0",
    ("b", "json"): "49ac4dcd740aa7881d0daa073af5fa9e45786df2ef1e6635e66272387588391b",
    ("c", "json"): "e05b4eabdd6030ec7256e9a221bc6b60b8cf730dcf6a151763af52ca6319efae",
    ("d", "json"): "848b22d8b800618287f100b905393b39a8664107f38a4ae316654ce7ec1301f4",
    ("e", "json"): "5db604003e7835c72b7e9f6f8169edd828a347641d3aab0c72aec72fd5fb1b0e",
    ("f", "json"): "52677289eb86436c7197e9114eca6e1569394295008725b178ceb0abfa40bd74",
    ("a", "text"): "35113d7d6a845d8deace5d74c606e061a2da63ac68203c5bb78d51c934ffc9bf",
    ("b", "text"): "246e39ddff8cd6e2fb12afdf003de994e4bd167b6e0458d293a3bec75280f279",
    ("c", "text"): "d201aa1c36f7601e0b5902f564bce5c37c86fe17285cf6cb57af4ab4d69982ed",
    ("d", "text"): "28def2183c8670887331a84dfeb574c78e5dd51430c2d0ab2c18e4fe3e1d8273",
    ("e", "text"): "8c883b84d9116034b5c6258268a74e7babee89a7d35157d68d9d5fc1ec38edfc",
    ("f", "text"): "c1415e6d699bc25509ca8992f1bff17b99ff3c611152c4bf8172a9d803b96402",
}

LARGE = {
    ("a", "json"): "c8c8e42d901754637d8c7fb05b8ac155230d9852afbadb2fe5bc9777a255ef06",
    ("b", "json"): "81917114556538a53351c961031f317f5d5ee44ba25a36b2945120fc3553840e",
    ("c", "json"): "b04d844098eaeec8a5d38e0443ac9663b3eee9f0d8be4fa959b710ae1031a3bb",
    ("d", "json"): "a00cb6e9298a30fc6bee07dc4c55e0ad5413f1ade9c495b21c059aedcef41bbd",
    ("e", "json"): "3469c758d308f1207d8b1783331f60f7dc7a00e9b1c6df1018dd57a1339bd055",
    ("f", "json"): "a01e182748490e8bbf4e970091cae41d6a6d71c1f17ad438748047662a008368",
    ("a", "text"): "4f0d281c0e9091316badb9e9d6d11c45b0b92b04d22fd0088a164a42e2e70e61",
    ("b", "text"): "176800d9a7a4553cf987b4170436cb3e55f200e2708a4b48b08b499255545ac9",
    ("c", "text"): "fbf7f46a9f5845094ac6d9ac76e922b006fe1877992769174aa778e52eba0bdd",
    ("d", "text"): "b79563e64041e5f2fcf8e1de5d85f29d81e50be8d4cacad28bf4966eb4092041",
    ("e", "text"): "a8607d30c804a259a98edfd17453a8168ffa0101d14cb75298ca3460d95d9641",
    ("f", "text"): "4d6acc6d7fa2ffddfe6f3db767c7a2f2d2109b6f237e612d5cf0fd8031f77a40",
}

SEEDED = {"json": "14d3d419c587b0d1cf79e4d7f347a16d54822efe7e1e9e96d1becadb684e6d33",
          "text": "3a3180be1ad8d826f9f3eee800cfa51f639e380b83c0e82548a12b2b69dfeeef"}

# maps with runs of collinear interior breakpoints and large or prime
# denominators; the report lists them after the collinear points are dropped
NORMALIZED = {"json": "0ea3437555769c56271c6d6d4163c4fe2138ccae7b34c34369e79399ceec6b7d",
              "text": "b59103ce2eee6c82aca5cf7cd030ef6b8c5f5e9b8b2d89ea24f00af0c97131e7"}

# the bundled shifts with the conjugator's middle piece moved by one
WRONG_CONJUGATOR = {"json": "8336e068db1cd14fd10306e27e140531ab7bd2fc11af7becf8c75943064ca1a8",
                    "text": "d15c50bbd7c9c0ae24a8a65f3441a2673381364e930764601803c6d3a0c76595"}


def digest(capsys, code, *argv):
    assert main(list(argv)) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def seeded_map(rng, breaks):
    """An increasing PL map of [-1, 1] with `breaks` interior breakpoints on
    a grid of 97ths, as 'p/q' strings."""
    xs = sorted(rng.sample(range(-96, 97), breaks))
    ys = sorted(rng.sample(range(-96, 97), breaks))
    fmt = lambda n: str(Fraction(n, 97))
    return {"breakpoints": ["-1", *map(fmt, xs), "1"], "values": ["-1", *map(fmt, ys), "1"]}


PRIMES = (3, 97, 10_007, 65_537, 998_244_353, 999_999_937, 1_000_000_007, 1_000_000_009)


def collinear_map(rng, breaks):
    """An increasing PL map of [-1, 1] with `breaks` corners whose
    coordinates have denominators from PRIMES (or 10**9), and with one to
    three collinear points inserted in about half of its segments, the
    first and last segments always among them."""
    def corners():
        cs = set()
        while len(cs) < breaks:
            p = rng.choice(PRIMES + (10**9,))
            cs.add(Fraction(rng.randrange(1 - p, p), p))
        return sorted(cs)

    xs, ys = [Fraction(-1), *corners(), Fraction(1)], [Fraction(-1), *corners(), Fraction(1)]
    bps, vals = [xs[0]], [ys[0]]
    for i, (x0, x1, y0, y1) in enumerate(zip(xs, xs[1:], ys, ys[1:])):
        if i in (0, breaks) or rng.random() < 0.5:
            m = rng.choice((2, 3, 4, 7, 10**9 + 7))
            for k in sorted(rng.sample(range(1, m), min(3, m - 1))):
                bps.append(x0 + (x1 - x0) * k / m)
                vals.append(y0 + (y1 - y0) * k / m)
        bps.append(x1)
        vals.append(y1)
    return {"breakpoints": list(map(str, bps)), "values": list(map(str, vals))}


@pytest.mark.parametrize("case, fmt", sorted(DEFAULT))
def test_default_size_bytes(capsys, case, fmt):
    assert digest(capsys, 0, "holonomy", "tau", "--case", case, "--format", fmt) == DEFAULT[case, fmt]


@pytest.mark.parametrize("case, fmt", sorted(LARGE))
def test_large_size_bytes(capsys, case, fmt):
    argv = ("holonomy", "tau", "--case", case, "--tiles", "256", "--samples", "4096", "--format", fmt)
    assert digest(capsys, 0, *argv) == LARGE[case, fmt]


@pytest.mark.parametrize("fmt", sorted(SEEDED))
def test_seeded_maps_bytes(capsys, tmp_path, fmt):
    rng = random.Random(20)
    for name, breaks in (("u", 7), ("v", 12)):
        (tmp_path / f"{name}.json").write_text(json.dumps(seeded_map(rng, breaks)))
    argv = ("holonomy", "tau", "--case", "a", "--tiles", "24", "--samples", "300",
            "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json"), "--format", fmt)
    assert digest(capsys, 0, *argv) == SEEDED[fmt]


@pytest.mark.parametrize("fmt", sorted(NORMALIZED))
def test_collinear_prime_maps_bytes(capsys, tmp_path, fmt):
    rng = random.Random(21)
    for name, breaks in (("u", 9), ("v", 14)):
        (tmp_path / f"{name}.json").write_text(json.dumps(collinear_map(rng, breaks)))
    argv = ("holonomy", "tau", "--case", "a", "--tiles", "16", "--samples", "200",
            "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json"), "--format", fmt)
    assert digest(capsys, 0, *argv) == NORMALIZED[fmt]


@pytest.mark.parametrize("fmt", sorted(WRONG_CONJUGATOR))
def test_failing_report_bytes(capsys, monkeypatch, fmt):
    monkeypatch.setattr(holonomy, "TileShiftMap", lambda m, k: TileShiftMap((m + 1) % k, k))
    argv = ("holonomy", "tau", "--case", "e", "--tiles", "3", "--samples", "12", "--format", fmt)
    assert digest(capsys, 1, *argv) == WRONG_CONJUGATOR[fmt]
