"""Byte-for-byte pins of the `holonomy tau` report.

The digests were taken when each sample was still carried as a Fraction, a
`SampleCheck` and a {"point", "pass"} dict on its way to the writer, and
the collinear-map ones when `PLHomeo` was still set up on Fractions; any
change to the bytes of these reports shows up here first.

The JSON digests were re-pinned when every integer in a report became a
decimal string; `golden.assert_pinned` checks each against the digest it
replaced.
"""

import json
import random
from fractions import Fraction

import pytest
from golden import assert_pinned

from tautcalc import holonomy
from tautcalc.cli import main
from tautcalc.holonomy import TileShiftMap

DEFAULT = {
    ("a", "json"): "17c9382f6f130b0a543bf208fc63e4b9f5cb4bc5875f889cec422fbbd81388d9",
    ("b", "json"): "49bb656fb953a6082a182af5999c342b94d430f7b33c7a545dc28835371e7c2b",
    ("c", "json"): "55e4eb82c24168cce6975ced630cc64d2f22f90269489458103f2843334a2f0a",
    ("d", "json"): "287d09932e35e6bdf73409c48f9b66cdcaf7d8b7c753efdd7e674369efcedd6d",
    ("e", "json"): "876867e6e182565c0e67b2fa7700c8cb41bbaa6d8285ee74c5ff13410b647752",
    ("f", "json"): "429cbf745c3e959e9777b69aecfa36907f8d2b1d28432525034a50ee6aad7d63",
    ("a", "text"): "35113d7d6a845d8deace5d74c606e061a2da63ac68203c5bb78d51c934ffc9bf",
    ("b", "text"): "246e39ddff8cd6e2fb12afdf003de994e4bd167b6e0458d293a3bec75280f279",
    ("c", "text"): "d201aa1c36f7601e0b5902f564bce5c37c86fe17285cf6cb57af4ab4d69982ed",
    ("d", "text"): "28def2183c8670887331a84dfeb574c78e5dd51430c2d0ab2c18e4fe3e1d8273",
    ("e", "text"): "8c883b84d9116034b5c6258268a74e7babee89a7d35157d68d9d5fc1ec38edfc",
    ("f", "text"): "c1415e6d699bc25509ca8992f1bff17b99ff3c611152c4bf8172a9d803b96402",
}

LARGE = {
    ("a", "json"): "6e0a3a9828fe15fa572029f4c5c5ca84a5e4d1acba27bbb057c7f31d05197c8d",
    ("b", "json"): "41eeaf2fc0c59a5c3aab7336beb1a363e5cb6bac6de6f96d3b6aa9e665af4dff",
    ("c", "json"): "821f69b32c2c04573f33ef13c109a49ef416b32ba8f9ca8034d5c293333e2857",
    ("d", "json"): "a4d8ead9c3c3f3231bc3f0b2c17dd0726e35dded482bee371d88c6053a9c85ba",
    ("e", "json"): "c12d495cc147fe497b3bfd5bf6e2705a35352cca7eae24998b8745fcec0aeff1",
    ("f", "json"): "89b1afaeda4b94c59545501bf8a1694659c636a9694e5c9857763e7e0e96d3da",
    ("a", "text"): "4f0d281c0e9091316badb9e9d6d11c45b0b92b04d22fd0088a164a42e2e70e61",
    ("b", "text"): "176800d9a7a4553cf987b4170436cb3e55f200e2708a4b48b08b499255545ac9",
    ("c", "text"): "fbf7f46a9f5845094ac6d9ac76e922b006fe1877992769174aa778e52eba0bdd",
    ("d", "text"): "b79563e64041e5f2fcf8e1de5d85f29d81e50be8d4cacad28bf4966eb4092041",
    ("e", "text"): "a8607d30c804a259a98edfd17453a8168ffa0101d14cb75298ca3460d95d9641",
    ("f", "text"): "4d6acc6d7fa2ffddfe6f3db767c7a2f2d2109b6f237e612d5cf0fd8031f77a40",
}

SEEDED = {"json": "010b9b66766e4ce1c0f33133218c117aeaa86645aee0fa444238f54b65a75e74",
          "text": "3a3180be1ad8d826f9f3eee800cfa51f639e380b83c0e82548a12b2b69dfeeef"}

# maps with runs of collinear interior breakpoints and large or prime
# denominators; the report lists them after the collinear points are dropped
NORMALIZED = {"json": "3179462af70412448e4482ee7da75c7835ae5de6c2b648569bcfac62630d11e3",
              "text": "b59103ce2eee6c82aca5cf7cd030ef6b8c5f5e9b8b2d89ea24f00af0c97131e7"}

# the bundled shifts with the conjugator's middle piece moved by one
WRONG_CONJUGATOR = {"json": "a2edd436c4504389be4e592b762d3ee30cf04cc06386a00158163d92cb314251",
                    "text": "d15c50bbd7c9c0ae24a8a65f3441a2673381364e930764601803c6d3a0c76595"}


def report(capsys, code, *argv):
    assert main(list(argv)) == code
    return capsys.readouterr().out


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
    assert_pinned(report(capsys, 0, "holonomy", "tau", "--case", case, "--format", fmt), DEFAULT[case, fmt])


@pytest.mark.parametrize("case, fmt", sorted(LARGE))
def test_large_size_bytes(capsys, case, fmt):
    argv = ("holonomy", "tau", "--case", case, "--tiles", "256", "--samples", "4096", "--format", fmt)
    assert_pinned(report(capsys, 0, *argv), LARGE[case, fmt])


@pytest.mark.parametrize("fmt", sorted(SEEDED))
def test_seeded_maps_bytes(capsys, tmp_path, fmt):
    rng = random.Random(20)
    for name, breaks in (("u", 7), ("v", 12)):
        (tmp_path / f"{name}.json").write_text(json.dumps(seeded_map(rng, breaks)))
    argv = ("holonomy", "tau", "--case", "a", "--tiles", "24", "--samples", "300",
            "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json"), "--format", fmt)
    assert_pinned(report(capsys, 0, *argv), SEEDED[fmt])


@pytest.mark.parametrize("fmt", sorted(NORMALIZED))
def test_collinear_prime_maps_bytes(capsys, tmp_path, fmt):
    rng = random.Random(21)
    for name, breaks in (("u", 9), ("v", 14)):
        (tmp_path / f"{name}.json").write_text(json.dumps(collinear_map(rng, breaks)))
    argv = ("holonomy", "tau", "--case", "a", "--tiles", "16", "--samples", "200",
            "--u", str(tmp_path / "u.json"), "--v", str(tmp_path / "v.json"), "--format", fmt)
    assert_pinned(report(capsys, 0, *argv), NORMALIZED[fmt])


@pytest.mark.parametrize("fmt", sorted(WRONG_CONJUGATOR))
def test_failing_report_bytes(capsys, monkeypatch, fmt):
    monkeypatch.setattr(holonomy, "TileShiftMap", lambda m, k: TileShiftMap((m + 1) % k, k))
    argv = ("holonomy", "tau", "--case", "e", "--tiles", "3", "--samples", "12", "--format", fmt)
    assert_pinned(report(capsys, 1, *argv), WRONG_CONJUGATOR[fmt])
