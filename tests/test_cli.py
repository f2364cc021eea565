import hashlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from lemspec import natural_map, spectra, verify
from lemspec.instances import build_instance, catalog, find_descriptor, format_descriptor, parse_descriptor
from lemspec.le_modules import colon, spectrum, submodule_elements
from lemspec.cli import COMMANDS, main, parse_args

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from shared_instances import ANNIHILATED, f2xy_descriptor  # noqa: E402

M3_DESCRIPTOR = """\
name broken-scalars
ring zn 4
module explicit size 3 zero 0
  leq 1 1 1 ; 0 1 1 ; 0 0 1
  add 0 1 2 ; 1 2 2 ; 2 2 2
  action 0 0 0 ; 0 1 2 ; 0 1 2 ; 0 1 2
"""

BAD_POSET_DESCRIPTOR = """\
name not-a-poset
ring zn 2
module explicit size 2 zero 0
  leq 1 1 ; 1 1
  add 0 1 ; 1 1
  action 0 0 ; 0 1
"""


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "Z6-ideal-lattice" in out
    assert len(out.strip().splitlines()) == 16


def test_validate_catalog_instance(capsys):
    assert main(["validate", "Z6-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert "instance: Z6-ideal-lattice" in out
    assert "spectrum points: 2" in out
    assert "valid" in out


def test_spec_text(capsys):
    assert main(["spec", "Z6-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert "point {0,3}" in out
    assert "injective=True surjective=True" in out


def test_spec_structured(capsys):
    assert main(["spec", "Z6-ideal-lattice", "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["annihilator"] == [0]
    assert payload["quotient_order"] == 6
    assert [p["label"] for p in payload["points"]] == ["{0,3}", "{0,2,4}"]


def test_topology_star(capsys):
    assert (
        main(["topology", "Z6-ideal-lattice", "--format", "structured"]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["properties"]["t0"] is True
    assert payload["properties"]["connected"] is False
    assert len(payload["closed_sets"]) == 4


def test_topology_quasi_on_top_instance(capsys):
    assert main(["topology", "Z6-ideal-lattice", "--which", "quasi"]) == 0
    assert "quasi" in capsys.readouterr().out


def test_topology_quasi_rejected(capsys):
    code = main(["topology", "Z2xZ2-over-Z2-submodules", "--which", "quasi"])
    assert code == 1
    assert "not a topology" in capsys.readouterr().err


def test_verify_single_instance(capsys):
    assert main(["verify", "Z4-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert "Z4-ideal-lattice" in out
    assert "falsified=0" in out


def test_verify_structured_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["verify", "--format", "structured", "--out", str(first)]) == 0
    assert main(["verify", "--format", "structured", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    payload = json.loads(first.read_text())
    assert payload["summary"]["falsified"] == 0


def test_verify_catalog_report_bytes_are_pinned(capsys):
    # Changes only in a change that means to change the report: update the
    # digest together with the verdicts, witnesses or details it pins.
    assert main(["verify", "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "60a0fc42f0ae89e9cb86e7cff3e433c7972f76922bd18c00cf28b78f8300382f"


ZN_REPORT_DIGESTS = {
    32: "f5f9349329d6c047d9e0577d8682ad53302a71ff14e80cc46bac9cfc270c85da",
    36: "d2f342f0ff734dbe023785623a5d6880c4b2a10864375e0eae24b28c54f8c661",
    42: "f68df0870b4a87d23b4854bb174b12954c1875eb51c2bc7b6aa9014c04d44a24",
    45: "a234b8e7c612cb8ca737749582ca501bb6f968e0f11abc8cb3e2dfc2df1c8ff4",
    210: "6b90656e8342f0b877437e302aa89f54af26cd249e3203c926aecb9dbeb605ae",
    840: "1d4667c421e2c33ec9b61c046581803c34823dc4821688aef0ecf3f478e4b799",
    1680: "5ef7526a6eae42694c4a00faf4c501d7c055d10dc257f405f60751caac7f5a1f",
}


@pytest.mark.parametrize("n", sorted(ZN_REPORT_DIGESTS))
def test_verify_zn_report_bytes_are_pinned(n, tmp_path, capsys):
    # Rings beyond the catalog, where scalars fall into few classes of equal
    # action rows; the digests were taken from scans over every scalar, and
    # for Z840 and Z1680 from ideals found by the generic search.
    path = tmp_path / f"Z{n}.lem"
    path.write_text(f"name Z{n}-ideal-lattice\nring zn {n}\nmodule ideal-lattice\n")
    assert main(["verify", str(path), "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ZN_REPORT_DIGESTS[n]


def test_verify_non_principal_ideal_lattice_report_bytes_are_pinned(tmp_path, capsys):
    # F2[x, y]/(x, y)^2, the one ring here with a non-principal ideal,
    # (x, y): its ideal products take the multi-generator path.  The digest
    # was taken from products found by a greedy span of each ideal.
    path = tmp_path / "f2xy.lem"
    path.write_text(f2xy_descriptor())
    assert main(["verify", str(path), "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "2fb509065e4d8907a23b0eb45bef83fc8ef656e45e6b6f2ba6ab7e4c9890d008"


POWER_MODULE_DIGESTS = {
    (2, 4): "062c89728621177ae9830fd2d9f6fc0be1478698868731b92c552e5ae4d70f92",
    (4, 3): "5fec11a6881af93d2ad9f09c377745f64d29d799526e63e192e887fef15de5b2",
    (3, 4): "5c2d7f18740c8119063ce2087074b89706809dac25ba469fb6ed0097f0463c46",
}


@pytest.mark.parametrize("m, k", sorted(POWER_MODULE_DIGESTS))
def test_verify_power_module_report_bytes_are_pinned(m, k, tmp_path, capsys):
    # Submodule lattices of (Z_m)^k with tens of points, where the point and
    # family scans dominate; the digests were taken from scans over frozensets.
    path = tmp_path / f"Z{m}^{k}.lem"
    path.write_text(workloads.power_module_descriptor(m, k))
    assert main(["verify", str(path), "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == POWER_MODULE_DIGESTS[m, k]


POWER_MODULE_TOPOLOGY_DIGESTS = {
    (2, 4, "star"): "e17a6f9db3f3f9b9491505a783308045345cb8f45dc2d5c61f6bf6656fd2e2ff",
    (2, 4, "prime"): "06df4bab388cba045d078b3367458edd8a3347092db4153d370988d53e06d7ee",
    (2, 4, "specialization"): "f9d22881db71bec3e715eab6122e9a8f0fbce5047e69a524723c4ad85fb13045",
    (4, 3, "star"): "1066955b5e3bb0ec9b894dcde727366a2eb767af0a5205f13ac7baf339f79986",
    (4, 3, "prime"): "0b725c611efd22bbb208ccb6675a2fe23df7a2f3f0dd8a23136fbf57e35f9cb5",
    (4, 3, "specialization"): "3a7708c39a63054b174d3da24534064bb5f3aaea6e319112f6f15f6a37635fa3",
}


@pytest.mark.parametrize("m, k, which", sorted(POWER_MODULE_TOPOLOGY_DIGESTS))
def test_power_module_topology_bytes_are_pinned(m, k, which, tmp_path, capsys):
    # The point-set properties and the specialization edges are read from the
    # point closures; the digests were taken from a closure call per point.
    path = tmp_path / f"Z{m}^{k}.lem"
    path.write_text(workloads.power_module_descriptor(m, k))
    if which == "specialization":
        argv = ["export-dot", str(path), "--target", "specialization"]
    else:
        argv = ["topology", str(path), "--which", which, "--format", "structured"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == POWER_MODULE_TOPOLOGY_DIGESTS[m, k, which]


# (exit code, sha256 of stdout and stderr) of ``topology NAME --which W
# --format F`` on each catalog instance.  The closed sets are listed in the
# order of ``spectra.canonical_family``; the digests were taken when the
# closed sets were frozensets.  The quasi family is not a topology on two
# instances, which exit 1 with an error.
CATALOG_TOPOLOGY_DIGESTS = {
    ('Z12-ideal-lattice', 'prime', 'structured'): (0, '0881987de07ce75525395bcb3d9b2b7bca582b76527b27bdaed20e303e7bd483'),
    ('Z12-ideal-lattice', 'prime', 'text'): (0, 'b7eeaa98dfdd84639cc8f74dceca0b0edeb5d468293fbc1dc0f70ed886d6eedd'),
    ('Z12-ideal-lattice', 'quasi', 'structured'): (0, '0e66f71f2edfaf2c6139dda9def7e601c311e1e5fa1b9f749da8ea702bd8e7f7'),
    ('Z12-ideal-lattice', 'quasi', 'text'): (0, '2d40439a350f5672e4891a52bfa22fdcac71298e1b919865cd7545d7fb68317e'),
    ('Z12-ideal-lattice', 'star', 'structured'): (0, '33044e904e1e04e70059dd73cc727a7e8b69c71006b5c1f3d00be172caa42038'),
    ('Z12-ideal-lattice', 'star', 'text'): (0, '4b060700013a33d45381154db7cf778c80ee113e84a8d97c9a4ed112381cd1d0'),
    ('Z2-ideal-lattice', 'prime', 'structured'): (0, 'fed1bbf814e3e78583625c7f34fe5ad28d9ed34c0e275855517de073ca0d815a'),
    ('Z2-ideal-lattice', 'prime', 'text'): (0, 'd2858caee4a635ac1c65f2b4829767a4e6d33670ff5a87df7e2a43f43cc6ecc4'),
    ('Z2-ideal-lattice', 'quasi', 'structured'): (0, '1a6c1e55a4a07c3aabafd168da234cbedcdd65e98766b45ee62e528a48e57541'),
    ('Z2-ideal-lattice', 'quasi', 'text'): (0, 'ddecff93847ff81daf07d646e78d028c02eaaf73320a743e900bd0b28ccb4369'),
    ('Z2-ideal-lattice', 'star', 'structured'): (0, '69d48ec8d7fecfb9d4ae7950469b032777ae4a7f3fcb7c9b10ab4a73672b145e'),
    ('Z2-ideal-lattice', 'star', 'text'): (0, 'bdf2cb095709d7dbc8aff1184ee5103270a45b1246898d8277595ad148d715b1'),
    ('Z2xZ2-ideal-lattice', 'prime', 'structured'): (0, '2ddcecf018ac0deed36677f23f6cbbec0b1ab4b2ac0cdd3ab2ea4488ef840540'),
    ('Z2xZ2-ideal-lattice', 'prime', 'text'): (0, '0e1069b7f4969ed71afb3f7b546ebd53ff36fc0c21213a4c7b2c9dbd14859d72'),
    ('Z2xZ2-ideal-lattice', 'quasi', 'structured'): (0, '4f846dbd5d55527c7dea056e78be242eb6ba55137be97ec964174330b28bfeef'),
    ('Z2xZ2-ideal-lattice', 'quasi', 'text'): (0, 'd73aeda120a15ef4aba5fc33e7ed13037df939b0a084c81cedb589f75cc1ff20'),
    ('Z2xZ2-ideal-lattice', 'star', 'structured'): (0, 'e9160ac4ea57d04feb433475b1662c773ad49482e32f8f8affd9f5f5e97de4fd'),
    ('Z2xZ2-ideal-lattice', 'star', 'text'): (0, '1f0c21f0a932c369daf1d9fd08534db16870a99eec992349c1818bc6524e55f2'),
    ('Z2xZ2-over-Z2-submodules', 'prime', 'structured'): (0, '65712a5e21b31c094daf1ebdd790d03de0cfea70be07751c0eb05b175f2e94a2'),
    ('Z2xZ2-over-Z2-submodules', 'prime', 'text'): (0, '25d736632d0680fa183c8715768879152a7ae0b2a511a850061a674ebf1a4a22'),
    ('Z2xZ2-over-Z2-submodules', 'quasi', 'structured'): (1, 'cab97bc3788003bbc69f233c55a903d861ef3fd09ba681bcbda6f717ed290b23'),
    ('Z2xZ2-over-Z2-submodules', 'quasi', 'text'): (1, 'cab97bc3788003bbc69f233c55a903d861ef3fd09ba681bcbda6f717ed290b23'),
    ('Z2xZ2-over-Z2-submodules', 'star', 'structured'): (0, '39e7a467b4477a752aa174efbfea3e9e7535cba87385dd82efa72bea6c2035a0'),
    ('Z2xZ2-over-Z2-submodules', 'star', 'text'): (0, '9564cd3eb7cd601eb5e73813953c41985d0e4409fc522029cc65617535353b4f'),
    ('Z2xZ3-ideal-lattice', 'prime', 'structured'): (0, '33165423cf82b0b9a1d5c9ca77393ce8eee2405f217330ae109135e40488586e'),
    ('Z2xZ3-ideal-lattice', 'prime', 'text'): (0, 'afd25ae740320ded5a2fdd10d2171085067eb3937a90580f9be1cc8babd957ba'),
    ('Z2xZ3-ideal-lattice', 'quasi', 'structured'): (0, 'fb1049f0cc77266498b7dfe9d564792a5749558ab5007578600e8d6ec5b0897b'),
    ('Z2xZ3-ideal-lattice', 'quasi', 'text'): (0, '8bdb179ea5105edff7072f5034d2c61c2f063c05697b3efd1e1deaa14c5caf0d'),
    ('Z2xZ3-ideal-lattice', 'star', 'structured'): (0, '49557ba18d123fd7d4cd9df2c09b3fe24c271185e4f2216a9cf940a7d795b04b'),
    ('Z2xZ3-ideal-lattice', 'star', 'text'): (0, 'c19b15fd3857e7316e48e360fe1a7176d6b196c8f8a1e1a2b8d46177f385e358'),
    ('Z2xZ4-over-Z4-submodules', 'prime', 'structured'): (0, 'f29f7c81c1479ad686cc580fbda70ed89c10a293a751415de189eeba66771d7f'),
    ('Z2xZ4-over-Z4-submodules', 'prime', 'text'): (0, 'bc26d421e09fa07bcffaaadc1daafab51fa94c7c2d04abcbd7e08939ccd2c051'),
    ('Z2xZ4-over-Z4-submodules', 'quasi', 'structured'): (1, '622cc67b2ced9cf9edf9d2090330d1dc4915000ad8ec2752f3a3fa7aa00fe872'),
    ('Z2xZ4-over-Z4-submodules', 'quasi', 'text'): (1, '622cc67b2ced9cf9edf9d2090330d1dc4915000ad8ec2752f3a3fa7aa00fe872'),
    ('Z2xZ4-over-Z4-submodules', 'star', 'structured'): (0, 'e36b3a059a88f13f2f50892f4e72589b0d2059890cbbbec7b1020da15e348c22'),
    ('Z2xZ4-over-Z4-submodules', 'star', 'text'): (0, '5844dc6a6fe0b952cb69078f0c99f759ea66d8c082d4dc928702ab5acac541aa'),
    ('Z3-ideal-lattice', 'prime', 'structured'): (0, '46f1d91b9b5ed16cb04efbf48b91a8589ce26cd1db9d1e04233c3f9fd3f8d5f8'),
    ('Z3-ideal-lattice', 'prime', 'text'): (0, '4b1ddd270bc1668326e5b18050e5ca5631e799fda8eec3bdf232310be0979e63'),
    ('Z3-ideal-lattice', 'quasi', 'structured'): (0, '8993c8f09f77042d21acf1a3423f8501f4694a957d5e3cb87564e0e8b3de86c4'),
    ('Z3-ideal-lattice', 'quasi', 'text'): (0, 'be77554d6ae717b5af64cada601e88031b4f9ecc9ff2ddd671a05cf989300153'),
    ('Z3-ideal-lattice', 'star', 'structured'): (0, '716bfc88abdf3dd2ef87ef5d4aa4abd36a161c88b3b4d4e4e1e279f239768b36'),
    ('Z3-ideal-lattice', 'star', 'text'): (0, '15e417a86b7732ea7e89d88b705b50dcbb0c361466c4881a1ae353c35b80fc6f'),
    ('Z30-ideal-lattice', 'prime', 'structured'): (0, '8dc520c96ac6f9570def5f17dd9a533d930a3ca75dfdbb8f1bd36dd8395d1caa'),
    ('Z30-ideal-lattice', 'prime', 'text'): (0, '6ed3fbc241ef7332e0724ae54936c88490fb2b6f6b998e1270a2f30265301204'),
    ('Z30-ideal-lattice', 'quasi', 'structured'): (0, '6d85433c3fdbc51124a9b9b8cbf057ae13add18e5908787734263e7004772fde'),
    ('Z30-ideal-lattice', 'quasi', 'text'): (0, 'd0ea305253fbfed649912881ea3b65ffd803127000bcb427387efc274dea0bdd'),
    ('Z30-ideal-lattice', 'star', 'structured'): (0, '4ecc9111f0f3ae2cae31b24325e805b9fe5d0725be6f6263835c8ad5bf3d3887'),
    ('Z30-ideal-lattice', 'star', 'text'): (0, '38b97f6e5240ec15b5bc852e5235a82dbe01d288c8630f5aee165139f8e8b69c'),
    ('Z4-ideal-lattice', 'prime', 'structured'): (0, '74a736220916bdfcdcf16fd003f82b47428806783febfae79ff9c100e3e6c04c'),
    ('Z4-ideal-lattice', 'prime', 'text'): (0, 'f249fe3c054295360d6217dd80642a306ac86ba8a215f9bf4c4c67f436678a85'),
    ('Z4-ideal-lattice', 'quasi', 'structured'): (0, '2f0372614ebd723804d88e54ce0d243c9e89a48ad3024f97ac9f94081309ae6a'),
    ('Z4-ideal-lattice', 'quasi', 'text'): (0, '56dbd6a2ce257dd3e0d412e8dc268d8a7652756c8cfe90d271e71c7bb8d43a2c'),
    ('Z4-ideal-lattice', 'star', 'structured'): (0, 'c6ac8f706c0883ac99bbfb14aa4dbbcbbfcfe4fda330876a292a3eada6c90f10'),
    ('Z4-ideal-lattice', 'star', 'text'): (0, '9a0828c109f9dadda74969acbad9d7ed1c5d4858248318f1767fdb202455341d'),
    ('Z4-over-Z4-submodules', 'prime', 'structured'): (0, '64c3f5c625333c69b51119b0b6792f6bcd7a648a5ced66f75051b9812250c393'),
    ('Z4-over-Z4-submodules', 'prime', 'text'): (0, 'e78000c6a736c133fee52db67977e845b28e7e55e289acbee554c38c4c53821f'),
    ('Z4-over-Z4-submodules', 'quasi', 'structured'): (0, '2f356491ea66e135b13dbefc6c72ac6d5ddb3eb7d8d7e825e4bbb4d0f6fcb19c'),
    ('Z4-over-Z4-submodules', 'quasi', 'text'): (0, '7dc919fb381cd7cffb29b0f09ea40fc3277da1e114448469e923da07341f26bc'),
    ('Z4-over-Z4-submodules', 'star', 'structured'): (0, 'c2baaf00900da8248a7762e5c34d3f5555f50067e528d777cdb4ec75829bb8bc'),
    ('Z4-over-Z4-submodules', 'star', 'text'): (0, '9d03837e2cfff50e9457268a5ff2a618ab849274c42c31ef89edc0b1bb810884'),
    ('Z5-ideal-lattice', 'prime', 'structured'): (0, '33cb94b6ce0ff52e2f2f39653379a6666525d88d1f0bb374e0928419cddb06dc'),
    ('Z5-ideal-lattice', 'prime', 'text'): (0, '2264df202dcbe477b8b22f96a495e39befa74aad1882145ea46ad45863a97516'),
    ('Z5-ideal-lattice', 'quasi', 'structured'): (0, '0a9f61631cc9dcf6c36e09dddaf27068ba1b573dd686ea212ad6d7a255088364'),
    ('Z5-ideal-lattice', 'quasi', 'text'): (0, '48a1f872c7ba326c247c7255387966e20f9ea752c50bace9d98f9a76bb7ab1a3'),
    ('Z5-ideal-lattice', 'star', 'structured'): (0, '70e72ffe04334de78390e0d38f4243faee96df1d734ac059538f6aac9256382e'),
    ('Z5-ideal-lattice', 'star', 'text'): (0, '42a2fb476845a66408e209574302d6154f3e5278a8e310dc3e5bbd2c4608c7ad'),
    ('Z6-ideal-lattice', 'prime', 'structured'): (0, 'df053b606ba1dda0b6c248a748bdf93b678078121ce2935925b657a71506104d'),
    ('Z6-ideal-lattice', 'prime', 'text'): (0, 'bb36977dab3798a5901e18434d2ddc1b0184c21e24997e5b601fe4050bea8aa5'),
    ('Z6-ideal-lattice', 'quasi', 'structured'): (0, '4ba84fab2003c4fbf71c2bc901f8c069320c96aab482e10e0a273dc3229afc71'),
    ('Z6-ideal-lattice', 'quasi', 'text'): (0, '33a4e7a285f0cadce024f145fcb9f89b1cf68094b92e4a63618d5ea3752762a2'),
    ('Z6-ideal-lattice', 'star', 'structured'): (0, '0c0b61ed62fd5615d5d3ac7df754d4a079d80ed2ee484526c8e1ef7efa8196a1'),
    ('Z6-ideal-lattice', 'star', 'text'): (0, '20d58f27a9b0f1c6a51fa932aff171f8ebc2e790d185257294cf4243cb898147'),
    ('Z6-over-Z6-submodules', 'prime', 'structured'): (0, '5220d5eeec613a0c3551a144b2f262ece1191994a612c3b7877ef886dc726625'),
    ('Z6-over-Z6-submodules', 'prime', 'text'): (0, 'd3abd6dfc694083d9d21c0935dd34d78ff6ec30fd2dc638be25444b21601c617'),
    ('Z6-over-Z6-submodules', 'quasi', 'structured'): (0, 'd34f875d465f0fc6d09a9c2da7b2e8e43c7f5e9e468da0bd73f4f761d465fc06'),
    ('Z6-over-Z6-submodules', 'quasi', 'text'): (0, '3237e656898c15c66c908342ba1db0c8fe708867e5f3f0f5c45ce9b6f33c0106'),
    ('Z6-over-Z6-submodules', 'star', 'structured'): (0, 'e0aab0880eafb429d9269bf403cf308fb7852682d014570e55449dfb19dcc144'),
    ('Z6-over-Z6-submodules', 'star', 'text'): (0, 'f3207991a87509821474f26d385c677e72417f08dad4ed108d7a461dd6a50831'),
    ('Z8-ideal-lattice', 'prime', 'structured'): (0, 'eaf0a339178f3a3057fee11e4f97bb03acf820bb5f37018ed905e718894b6b76'),
    ('Z8-ideal-lattice', 'prime', 'text'): (0, 'e5db0f69a6da121ba0626f77bba37447c2368732d153e6811b0ddff2f5076a62'),
    ('Z8-ideal-lattice', 'quasi', 'structured'): (0, '648066e20afd015c60076f082c42fd1c7bb85175db07344765ab7b0eca859d89'),
    ('Z8-ideal-lattice', 'quasi', 'text'): (0, '8c75dc16af19fefa3d33b0f0a09c1c618349d63853ac31ade8385f14cadc5f69'),
    ('Z8-ideal-lattice', 'star', 'structured'): (0, '79886433b42c6a23f41ade3c356a84d7623283b8f1ab0c21afb8386a217b5442'),
    ('Z8-ideal-lattice', 'star', 'text'): (0, 'ecde9a4557909dd0d2f86643c25afca526c972f1bc2b0309da90af6fae7943db'),
    ('Z9-ideal-lattice', 'prime', 'structured'): (0, '5b5dee42253fbf0e1f964ba6054645b28478689506826699f266d03365161748'),
    ('Z9-ideal-lattice', 'prime', 'text'): (0, '1e3480004c17b48bcb45f1a6cfc0afeed07a1f85415e6ed60ef51f4143d6bdc2'),
    ('Z9-ideal-lattice', 'quasi', 'structured'): (0, 'b63d062419038b15a6cde8a06b65f6685cd5c4fdeec2079cfe0e19d36e31a031'),
    ('Z9-ideal-lattice', 'quasi', 'text'): (0, '7cbcf4e5cef6244810de48fb10efe1c268dfd6116cf6f42365dba9233bb654a2'),
    ('Z9-ideal-lattice', 'star', 'structured'): (0, 'c129147fd65183bcc2e95ad7f606af65dd0330fd2b4c3aeca33ace8f58b1e81a'),
    ('Z9-ideal-lattice', 'star', 'text'): (0, 'bd40b9647e9fa5ea6c1b3b48cead9451cd86119aabcc5aea6debba827b3127a6'),
    ('three-chain-over-Z2', 'prime', 'structured'): (0, 'ea24e2e0b004d890d0ef534dfc2e52b219ff4b5e055a39cf92006d3c13457c57'),
    ('three-chain-over-Z2', 'prime', 'text'): (0, '36d54db55bc0a02cd154bb211d3f79e63d14fb62c3e403de99f663f58a5e5e50'),
    ('three-chain-over-Z2', 'quasi', 'structured'): (0, 'dac4dc0292e49e138b441c0a11a9bfd03b933fa7edee8bb5cd4cf44e24fde5fc'),
    ('three-chain-over-Z2', 'quasi', 'text'): (0, '9316b65aa676a9db2795fa88d476e61eaea532d0d9760a5b55d38143a08a19ed'),
    ('three-chain-over-Z2', 'star', 'structured'): (0, '1bd4af63c7ba86ce0d324088d476ec35aaf338b94d6855ce448110acd2615691'),
    ('three-chain-over-Z2', 'star', 'text'): (0, '7460ee0ebad19f8056ef42b7a2147ba65d6b25725c9092a2ac6df62be94e7049'),
}


@pytest.mark.parametrize("name, which, fmt", sorted(CATALOG_TOPOLOGY_DIGESTS))
def test_catalog_topology_bytes_are_pinned(name, which, fmt, capsys):
    rc = main(["topology", name, "--which", which, "--format", fmt])
    captured = capsys.readouterr()
    digest = hashlib.sha256((captured.out + captured.err).encode()).hexdigest()
    assert (rc, digest) == CATALOG_TOPOLOGY_DIGESTS[name, which, fmt]


# sha256 of ``spec NAME --format structured`` on each catalog instance.  The
# digests were taken when the output was written by ``json.dumps``.
CATALOG_SPEC_DIGESTS = {
    'Z2-ideal-lattice': 'ae954008193f4cadf6b65ee89173bd4636084912f956b3759f6cdeb4bc1a37d6',
    'Z3-ideal-lattice': 'b6fcc60a46df3ca38d8bb2f4eb31d2e26b993e50cf5f5db540e825d06acdcfb0',
    'Z4-ideal-lattice': 'ee7f840e8ae5b68d9973ad3ffc2b706008c58d148c2cf0059c290ad374253445',
    'Z5-ideal-lattice': 'c413d6da15388b891394a16341bc723dfec34d9ce9d2edfb088703c97b160f01',
    'Z6-ideal-lattice': '41a9882f5733ec30e667ef514e016d0ac1dbe618886c7e1f89860aafa23d184f',
    'Z8-ideal-lattice': '1642dac1f5d622a12232fb07a437ca7bd1163168513df2da3e2285fd6310cd81',
    'Z9-ideal-lattice': '425f4d7b45b617c583ef82df51d5da066a85ac06425b84ce783eafc7f8f3f4ca',
    'Z12-ideal-lattice': '4b68e4b8ea53bf676a2f982843fe1ee74ee752c23b7ce73fb27b9ddc1177f8d3',
    'Z30-ideal-lattice': '31eff0a4d8017774ae2e7f75468fb5e944fd850bb2ee652b8c339a0c34d41b08',
    'Z2xZ3-ideal-lattice': '2daa08770a0fa4d8944cb2e6012572d4c35e25e355dfd0ad5784a563ae205681',
    'Z2xZ2-ideal-lattice': 'b35e78baac62931a44d53ed0d3177068f7190ed8bd6350f267899c0ff4386caa',
    'Z2xZ2-over-Z2-submodules': 'e1cfbbb68a47b348c5d9c7b67e4ff88b2a57ed1a43d2cc95bff948141b7566e0',
    'Z4-over-Z4-submodules': 'b66481c81c439e25233dde1754a87fac052130b6bfcedcb0bda851d160b9f47d',
    'Z6-over-Z6-submodules': 'b98bef8bc6f6f174b6eb35d433699a49f7328456e10836d78f94753ea7415b12',
    'Z2xZ4-over-Z4-submodules': '8a4a351de10f28eab08661926b1c081a81e24867b957b980805f8316eecd7d62',
    'three-chain-over-Z2': '705b0786c6ac37d6bd41ece046f88f032960694e7d079cc3cdcd8811fa0498aa',
}


@pytest.mark.parametrize("name", sorted(CATALOG_SPEC_DIGESTS))
def test_catalog_spec_bytes_are_pinned(name, capsys):
    assert main(["spec", name, "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == CATALOG_SPEC_DIGESTS[name]


# sha256 of ``COMMAND FILE --format structured`` on Z6^2 over Z12, whose
# annihilator {0, 6} is not 0: points map into Z12/(6), not Z12 itself.
ANNIHILATED_DIGESTS = {
    "spec": "6e6a948420f3903a834b90fdba5c02219910b5fd4c3a0d12e9384dd7e4ccfdc2",
    "verify": "1efa2e26f9cbd6e7aeffd57a97115f41c18655c2d4dfda591d9f38e8b3749dba",
    "topology": "de871dc25e499b6e99bced9f3058a9a6b7bb22248886fd59ba2c8a3427225c7d",
}


@pytest.mark.parametrize("command", sorted(ANNIHILATED_DIGESTS))
def test_module_with_a_nonzero_annihilator_output_bytes_are_pinned(command, tmp_path, capsys):
    path = tmp_path / "z6-2-over-z12.lem"
    path.write_text(format_descriptor(ANNIHILATED[0]))
    assert main([command, str(path), "--format", "structured"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == ANNIHILATED_DIGESTS[command]


def test_spec_and_lattice_dot_of_hundreds_of_points_are_pinned(tmp_path, capsys):
    # F2^5 over Z2: 374 elements and 373 points.  Both digests were taken
    # when the spec was written by ``json.dumps`` and the covers came from
    # a scan over every triple of elements.
    path = tmp_path / "F2^5.lem"
    path.write_text(workloads.power_module_descriptor(2, 5))
    expected = {
        "spec": "70b2d58a611b34d86aab6bd23b63a81e1bb6390504a7e146b8ab3dc0573e40cd",
        "export-dot": "5c5a6c5103f32a9a3e476fdbeb1e3ea2d1c8c7b62817acee924046928812d3fc",
    }
    flags = {"spec": ["--format", "structured"], "export-dot": ["--target", "lattice"]}
    for command, digest in expected.items():
        assert main([command, str(path), *flags[command]]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, command


def test_export_dot_lattice(capsys):
    assert main(["export-dot", "Z6-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "rankdir=BT" in out
    assert out.count("->") == 4  # Hasse edges of the ideal lattice


def test_export_dot_z4_chain(capsys):
    assert main(["export-dot", "Z4-ideal-lattice"]) == 0
    out = capsys.readouterr().out
    assert out.count("[label=") == 3
    assert out.count("->") == 2


def test_export_dot_specialization(capsys):
    assert (
        main(
            [
                "export-dot",
                "Z2xZ2-over-Z2-submodules",
                "--target",
                "specialization",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.count("->") == 12


def test_file_descriptor_round_trip(tmp_path, capsys):
    path = tmp_path / "demo.lem"
    path.write_text("name demo\nring zn 6\nmodule ideal-lattice\n")
    assert main(["validate", str(path)]) == 0
    assert "instance: demo" in capsys.readouterr().out


def test_axiom_violation_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.lem"
    path.write_text(M3_DESCRIPTOR)
    assert main(["validate", str(path)]) == 2
    assert "M3" in capsys.readouterr().err


def test_bad_poset_exit_code(tmp_path, capsys):
    path = tmp_path / "poset.lem"
    path.write_text(BAD_POSET_DESCRIPTOR)
    assert main(["validate", str(path)]) == 2
    assert "antisymmetry" in capsys.readouterr().err


def test_leq_entry_other_than_0_or_1_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "flags.lem"
    path.write_text(
        "name odd-flags\nring zn 2\nmodule explicit size 3 zero 0\n"
        "  leq 1 7 1 ; 0 1 1 ; 0 0 -3\n"
        "  add 0 1 2 ; 1 2 2 ; 2 2 2\n  action 0 0 0 ; 0 1 2\n"
    )
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: leq entry 7 at row 0 must be 0 or 1\n"
    # An entry just past the flags, in a later row.
    path.write_text(path.read_text().replace("leq 1 7 1 ; 0 1 1 ; 0 0 -3", "leq 1 1 1 ; 0 1 2 ; 0 0 1"))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: leq entry 2 at row 1 must be 0 or 1\n"


def _table(rows) -> str:
    return " ; ".join(" ".join(str(int(v)) for v in row) for row in rows)


def _f3_cubed_tables():
    """leq, add and action of the subspace lattice of F3^3, subspaces by (size, members)."""
    vectors = list(itertools.product(range(3), repeat=3))
    index = {v: i for i, v in enumerate(vectors)}

    def plus(x, y):
        return index[tuple((a + b) % 3 for a, b in zip(vectors[x], vectors[y]))]

    def span(gens):
        members = {0}
        for g in gens:
            multiples = {index[tuple(r * a % 3 for a in vectors[g])] for r in range(3)}
            members = {plus(b, m) for b in members for m in multiples}
        return frozenset(members)

    subs = sorted(
        {span(pair) for pair in itertools.combinations_with_replacement(range(27), 2)}
        | {span(range(27))},
        key=lambda s: (len(s), sorted(s)),
    )
    at = {s: i for i, s in enumerate(subs)}
    size = len(subs)
    leq = [[int(a <= b) for b in subs] for a in subs]
    add = [[at[span(a | b)] for b in subs] for a in subs]
    action = [[0] * size] + [list(range(size))] * 2
    return size, leq, add, action


def _validate_cases():
    """Explicit F3^3 and Z12, and one mutant per mutation kind the benchmark uses."""
    size, leq, add, action = _f3_cubed_tables()

    def module(name, leq=leq, add=add):
        return (
            f"name {name}\nring zn 3\nmodule explicit size {size} zero 0\n"
            f"  leq {_table(leq)}\n  add {_table(add)}\n  action {_table(action)}\n"
        )

    def changed(table, cells):
        rows = [list(row) for row in table]
        for (a, b), v in cells.items():
            rows[a][b] = v
        return rows

    zadd = [[(a + b) % 12 for b in range(12)] for a in range(12)]
    zmul = [[a * b % 12 for b in range(12)] for a in range(12)]

    def ring(name, add=zadd, mul=zmul):
        return (
            f"name {name}\nring explicit order 12\n  add {_table(add)}\n"
            f"  mul {_table(mul)}\nmodule ideal-lattice\n"
        )

    return {
        "F3^3": module("F3^3-explicit"),
        "reflexivity": module("F3^3-reflexivity", leq=changed(leq, {(5, 5): 0})),
        "antisymmetry": module(
            "F3^3-antisymmetry", leq=changed(leq, {(7, 2): 1, (2, 7): 1})
        ),
        "monoid-identity": module("F3^3-monoid-identity", add=changed(add, {(0, 3): 4})),
        "monoid-commutativity": module(
            "F3^3-monoid-commutativity", add=changed(add, {(2, 5): add[2][5] ^ 1})
        ),
        "Z12": ring("Z12-explicit-ring"),
        "add-comm": ring("Z12-add-comm", add=changed(zadd, {(3, 7): 0})),
        "mul-comm": ring("Z12-mul-comm", mul=changed(zmul, {(4, 9): 5})),
    }


VALIDATE_BYTES = {
    "F3^3": (
        0,
        "instance: F3^3-explicit\nring: Z3 (order 3)\nlattice size: 28\n"
        "submodule elements: 28\nspectrum points: 27\nvalid: all le-module axioms hold\n",
        "",
    ),
    "reflexivity": (2, "", "error: reflexivity fails at (5,)\n"),
    "antisymmetry": (2, "", "error: antisymmetry fails at (2, 7)\n"),
    "monoid-identity": (2, "", "error: axiom monoid violated at (0, 3): identity fails\n"),
    "monoid-commutativity": (
        2,
        "",
        "error: axiom monoid violated at (2, 5): commutativity fails\n",
    ),
    "Z12": (
        0,
        "instance: Z12-explicit-ring\nring: R (order 12)\nlattice size: 6\n"
        "submodule elements: 6\nspectrum points: 2\nvalid: all le-module axioms hold\n",
        "",
    ),
    "add-comm": (2, "", "error: axiom add-comm violated at (3, 7)\n"),
    "mul-comm": (2, "", "error: axiom mul-comm violated at (4, 9)\n"),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_BYTES))
def test_validate_output_bytes_are_pinned(case, tmp_path, capsys):
    # Accepted files print the same bytes and rejected ones name the same law
    # and witness as the cell-by-cell validator did.
    path = tmp_path / f"{case}.lem"
    path.write_text(_validate_cases()[case])
    rc = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == VALIDATE_BYTES[case]


def test_internal_error_exit_code(monkeypatch, capsys):
    # A star family without the empty set is a fault of lemspec, not of the input.
    def broken(mod):
        return ((1 << len(spectrum(mod))) - 1,)

    monkeypatch.setattr(spectra, "star_family", broken)
    assert main(["verify", "Z6-ideal-lattice"]) == 4
    assert "internal error: star: empty set missing" in capsys.readouterr().err


def test_unexpected_exception_exit_code(monkeypatch, capsys):
    # An exception that is no lemspec error is a fault of lemspec too, not
    # bad input: it exits 4 with its type named, not 1 with a traceback.
    def broken(mod):
        raise KeyError(7)

    monkeypatch.setattr(verify, "spectrum", broken)
    assert main(["verify", "Z6-ideal-lattice"]) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 7\n"


def test_non_onto_map_exit_code(monkeypatch, capsys):
    # The map is onto on every non-degenerate module; keeping one of Z6's two
    # colon fibers leaves a prime of Z6 that no point maps to.
    real = natural_map.colon_fibers
    monkeypatch.setattr(natural_map, "colon_fibers", lambda mod: dict(list(real(mod).items())[:1]))
    assert main(["verify", "Z6-ideal-lattice"]) == 4
    assert "internal error: psi is not onto" in capsys.readouterr().err


def test_unknown_input_exit_code(capsys):
    assert main(["validate", "no-such-instance"]) == 1
    assert "neither a catalog name nor a file" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "mangled.lem"
    path.write_text("name x\nring zn two\nmodule ideal-lattice\n")
    assert main(["validate", str(path)]) == 1
    assert "expected integer" in capsys.readouterr().err


@pytest.mark.parametrize("ring", ["zn 99999999999999999999", "product ( zn 2 , zn 99999999999999999999 )"])
@pytest.mark.parametrize("command", ["validate", "verify", "spec", "topology", "export-dot"])
def test_an_order_past_the_largest_index_is_an_input_error(command, ring, tmp_path, capsys):
    # Z_n's elements are indices, so an order past sys.maxsize is bad input
    # (exit 1), not an OverflowError reported as a fault of lemspec (exit 4).
    path = tmp_path / "huge.lem"
    path.write_text(f"name huge\nring {ring}\nmodule ideal-lattice\n")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: Z_n needs n <= {sys.maxsize}, the largest index; got 99999999999999999999\n"
    )


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "list.txt"
    assert main(["catalog", "list", "--out", str(target)]) == 0
    assert "Z30-ideal-lattice" in target.read_text()


USAGE_ERRORS = {
    "no command": [],
    "unknown command": ["bogus"],
    "invalid choice": ["verify", "--format", "bogus"],
    "invalid choice after =": ["topology", "Z6-ideal-lattice", "--which=bogus"],
    "unknown option": ["verify", "--bogus", "x"],
    "abbreviated option": ["verify", "--form", "structured"],
    "single-dash option": ["spec", "-f", "structured", "Z6-ideal-lattice"],
    "option without a value": ["catalog", "list", "--out"],
    "missing positional": ["validate"],
    "extra positional": ["validate", "Z6-ideal-lattice", "Z4-ideal-lattice"],
    "unknown catalog action": ["catalog", "lst"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_1(case, capsys):
    assert main(USAGE_ERRORS[case]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_names_every_command(flag, capsys):
    assert main([flag]) == 0
    out = capsys.readouterr().out
    for name, command in COMMANDS.items():
        assert f"  {name}" in out and command.help in out


@pytest.mark.parametrize("name, flag", itertools.product(sorted(COMMANDS), ["-h", "--help"]))
def test_command_help_names_every_option(name, flag, capsys):
    # Help wins wherever it stands, even after an argument.
    assert main([name, "x", flag]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: lemspec {name} ")
    assert COMMANDS[name].positional.upper() in out
    for key, choices in [*COMMANDS[name].options.items(), ("out", ())]:
        assert f"--{key} " in out
        assert all(choice in out for choice in choices)


def test_option_forms_and_positions_parse_alike(tmp_path):
    forms = [
        ["topology", "Z6-ideal-lattice", "--which", "prime", "--format", "structured"],
        ["topology", "--which=prime", "Z6-ideal-lattice", "--format=structured"],
        ["topology", "--format", "text", "--which", "prime", "--format", "structured", "--", "Z6-ideal-lattice"],
    ]
    outputs = []
    for k, argv in enumerate(forms):
        target = tmp_path / f"{k}.json"
        assert main([argv[0], f"--out={target}", *argv[1:]]) == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert json.loads(outputs[0])["which"] == "prime"


def test_parse_args_defaults():
    handler, kwargs = parse_args(["verify"])
    assert handler is COMMANDS["verify"].handler
    assert kwargs == {"inputs": [], "format": "text", "out": None}
    _, kwargs = parse_args(["export-dot", "--", "-odd.lem"])
    assert kwargs == {"input": "-odd.lem", "target": "lattice", "out": None}


def test_commands_import_no_argparse_gettext_or_locale():
    # Those modules cost milliseconds on every command.  Without site
    # (-S) nothing else in the interpreter's start-up loads them.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import io, sys, contextlib\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import lemspec, lemspec.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = lemspec.cli.main(['verify', 'Z6-ideal-lattice', '--format', 'structured'])\n"
        "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 []\n", "")


def _spec_payload(mod) -> dict:
    """The fields ``spec --format structured`` writes."""
    nm = natural_map.build_natural_map(mod)
    reduced = not nm.degenerate
    return {
        "instance": mod.name,
        "ring": {"name": mod.ring.name, "order": mod.ring.order},
        "lattice_size": mod.lattice.size,
        "submodule_elements": [mod.label(n) for n in submodule_elements(mod)],
        "annihilator": list(nm.annihilator_ideal.sorted_members()),
        "degenerate": nm.degenerate,
        "points": [
            {
                "index": p,
                "label": mod.label(p),
                "colon": list(colon(mod, p).sorted_members()),
                "image": list(nm.image_of(p).sorted_members()) if reduced else None,
            }
            for p in spectrum(mod)
        ],
        "quotient_order": nm.quotient.order if reduced else None,
        "ring_spectrum_size": len(spectra.ring_space(nm.quotient).points) if reduced else None,
        "injective": nm.is_injective() if reduced else None,
        "surjective": True if reduced else None,
    }


def _topology_payload(mod, which: str) -> dict:
    """The fields ``topology --format structured`` writes."""
    top = getattr(spectra.build_topologies(mod), which)
    props = spectra.point_set_properties(top)
    return {
        "instance": mod.name,
        "which": which,
        "points": [mod.label(p) for p in top.points],
        "closed_sets": [[mod.label(p) for p in spectra.decode(top.points, c)] for c in top.closed_sets],
        "properties": {
            "t0": props.is_t0,
            "t1": props.is_t1,
            "connected": props.is_connected,
            "quasi_compact": props.is_quasi_compact,
            "spectral": props.is_spectral,
        },
        "note": props.note,
    }


def test_structured_spec_and_topology_are_json_dumps_of_their_fields(tmp_path, capsys):
    """The templates write what ``json.dumps(..., sort_keys=True, indent=2)``
    writes, on the catalog, on F2^5, on a name that JSON must escape and on
    a degenerate instance, whose fields are null and whose lists are empty."""
    odd = tmp_path / "odd.lem"
    odd.write_text('name q"\\\u00e9-Z6\nring zn 6\nmodule ideal-lattice\n')
    degenerate = tmp_path / "degenerate.lem"
    degenerate.write_text("name d\nring zn 2\nmodule explicit size 1 zero 0 leq 1 add 0 action 0 ; 0\n")
    power = tmp_path / "F2^5.lem"
    power.write_text(workloads.power_module_descriptor(2, 5))
    inputs = [*map(str, (odd, degenerate, power)), *(d.name for d in catalog())]
    for text in inputs:
        desc = find_descriptor(text) or parse_descriptor(Path(text).read_text())
        mod = build_instance(desc)
        assert main(["spec", text, "--format", "structured"]) == 0
        expected = json.dumps(_spec_payload(mod), sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == expected, text
        for which in ("star", "prime"):
            assert main(["topology", text, "--which", which, "--format", "structured"]) == 0
            expected = json.dumps(_topology_payload(mod, which), sort_keys=True, indent=2) + "\n"
            assert capsys.readouterr().out == expected, (text, which)
