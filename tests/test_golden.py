"""Golden bytes: digests of collocation sets and an exported outline, pinned so
that any drift in their bits fails here, whatever code path produced them."""

import hashlib

import numpy as np
import pytest

from mixopt.cli import main
from mixopt.geometry import ChannelDims
from mixopt.sampling import CollocationCounts, SampleBounds, generate_collocation

NARROW = SampleBounds(x=(3.0, 4.0), cp1=(0.5, 0.5), cp2=(0.5, 0.5), cp3=(0.5, 0.5))


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def group_digests(colloc) -> dict:
    out = {"interior": digest(colloc.interior), "kinds": ",".join(colloc.boundary)}
    for kind, group in colloc.boundary.items():
        out[f"boundary.{kind}"] = digest(group.X, group.normals)
    out["slices"] = digest(*(a for s in colloc.slices for a in ([s.station], s.X, s.weights)))
    return out


GOLDEN_COLLOCATION = {
    (0, "default"): {
        "interior": "3d2fb03b659f38ccc0982460b62197086a9916c70414491004434ddc2da12177",
        "kinds": "inlet_top,inlet_bottom,wall,baffle,outlet",
        "boundary.inlet_top": "65ddb094680eebdd0efda25ba1ab6cce0ca3e701c41171c3ee60e3408ac0c715",
        "boundary.inlet_bottom": "57b5e608e506b71be3e412eaec059bde9c46142d38d21f518d65e85339262d1e",
        "boundary.wall": "5e75fd08d1f1b1ecdcd645a5d9ce1253f1bae4061f9cde559a35a50bb777c302",
        "boundary.baffle": "8e299a4a8abd8f35e67975cc58500c09fc12648a909d15c75b7dc354076f8c19",
        "boundary.outlet": "641d0efec5995ca302b29e696b69d6a3771650c316bb865100b87203a9008788",
        "slices": "82efdaa31e9c8c87eb43f83e3542618e69402f307202db3afdaf16ea18d3ff93",
    },
    (1, "narrow"): {
        "interior": "f574c74f8e183c0c6c2b1f6031df9b6da81421c8b3ade44d3aeb51e2ad120d76",
        "kinds": "inlet_top,inlet_bottom,wall,baffle,outlet",
        "boundary.inlet_top": "564d477c44e69f2ebdfde82a30faca3110d2156c978614dd88220c00c7431f2b",
        "boundary.inlet_bottom": "1f6a201722dab5bda3cedd28cdd03dabb0d6dbf3bbf8d475e78120090ed06aab",
        "boundary.wall": "34b94b351e0aa8b85b23ef216a6d3bbc00c6b7797102f2d2bdfa82f30d5add07",
        "boundary.baffle": "6b4e760cbd84721367e2e1d67ed4b8f03ab3ac2141558677077cad1a5d627e77",
        "boundary.outlet": "cb8973a269e51715d6f14525cc16bbfbaaa34363a70acce30c74a31bbfc817e6",
        "slices": "a210b93f6dcc1872a361556809b75abc7467c11358040ac35260119c271fb834",
    },
}

# ``mixopt geometry --cp 0.31 -0.22 0.13 --points 513``; the CI console-script
# step checks the installed command against the same digest
GOLDEN_OUTLINE = "46bc5b9d569170b522979bd58df6fd438029c6ca97dcfffe20d1101adf10ebf2"


@pytest.mark.parametrize("seed,bounds", sorted(GOLDEN_COLLOCATION))
def test_collocation_bits_are_pinned(seed, bounds):
    colloc = generate_collocation(ChannelDims(), {"default": SampleBounds(), "narrow": NARROW}[bounds],
                                  CollocationCounts(), seed=seed)
    assert group_digests(colloc) == GOLDEN_COLLOCATION[seed, bounds]


def test_geometry_csv_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "outline.csv"
    assert main(["geometry", "--cp", "0.31", "-0.22", "0.13", "--points", "513", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_OUTLINE
