"""Golden outputs: the SHA-256 of every file the generating verbs write.

The digests were recorded before the solvers were rewritten over the nonzero
support, so any change to a solved coefficient, a `rel` or the emission order
shows here as a tier-1 failure.
"""

import hashlib

import pytest

from ottr.cli import main

WINDOW = ["--degree", "6", "--amax", "2"]

# the rank-1 Witten f0 and the open f0o with seed v*phi + phi^3/6
F0 = "ca4eef8b860812db518ad8f41e449491089ebdee1ac340a68a67b3963ef668f4"
F0O = "d1f77713dcdbeeeeea45eb9e27f5cc7ba4cace658c346d8a3d60edb97dadd6e9"

GOLDEN = {
    "witten-rank1": {
        "f0.ottr": F0,
    },
    "witten-n2": {
        "f0.ottr": "763ce591514ec09a977a7977072df2b917bc238177439c8cb8bb9c6db6e0f355",
    },
    "open-rank1": {
        "f0.ottr": F0,
        "f0o.ottr": F0O,
    },
    "genus1-rank1": {
        "f0.ottr": F0,
        "f0o.ottr": F0O,
        "f1o.ottr": "9fd424c8a7662541c6a75e20177076ae4a4a729b82639f1fa7090cb600d37296",
        "f1.ottr": "2dc331dd6cc8a90410824708ad42503ec06a3be734bc85607e85ef565e7858c1",
    },
}

# `gen-example genus1-rank1 --degree 8 --amax 3 --go G`: the log closed
# form plus a nonzero Go along the solutions, at the window of the benchmarks
GO_WINDOW = ["--degree", "8", "--amax", "3"]
GO_D8_A3 = {
    "f0.ottr": "5151c6fd533df1c4021b4fa6e4a84ba011fa1fb566456cfabd69c4cff20ed1c6",
    "f0o.ottr": "ca490b47387f8cc49833ee2fc341740f38b5b26c66158d8f4c0c3cb53d36559f",
    "f1.ottr": "ceb19b0b05afe46d3e8c9c1e800c6371abe360111bdc5c63096d5d540c927076",
}
GOLDEN_GO = {
    "phi3": {**GO_D8_A3,
             "f1o.ottr": "46b42d0b2fdbae647e0483af0ba0408539e296b7fa80a30595158cbd7df50401"},
    "vphi": {**GO_D8_A3,
             "f1o.ottr": "5ae943fbc3644c7c5a9dc9cfc3b29c5c1dd50f63081769bada3ac0cbb6ebd39c"},
}

F1O_SOLVE_PHI3 = "3e2e5225dcea1b1910321eec09c49424e6e9b67a2eaa754720f0e4ed34570550"

# `gen-pst --degree 4 --amax 1`, recorded before the Lax flows were
# integrated over the support of their right-hand sides
GEN_PST_D4_A1 = {
    "f0.ottr": "6d20fd411c1916774c032315cfce5d52999a8a7b3112e8476f261b91bcd7039f",
    "f0o.ottr": "f4db7c98c3cb1f4357aa0cc2f6a6c14f0d20506d20da649cb206e24d836f9c96",
    "f1o.ottr": "eb841e3ba31bf9cc6fa639ed493e4cab8a1b98ee75c24e039e4e372cacbfa913",
    "flows.report.ottr": "78e42620a8314da95c878ea1f47d32e8126cd95038a2623e68d26eac57e902cd",
}

# `gen-pst --degree 6 --amax 2`, recorded before the square root of L was
# built by its triangular recursion; it reaches the p = 2 flows and a
# depth-6 root, which D4/A1 does not
GEN_PST_D6_A2 = {
    "f0.ottr": F0,
    "f0o.ottr": F0O,
    "f1o.ottr": "378b44c35788eb504e715d270245dc2c04c575e08db1ca85f0579104e30c1427",
    "flows.report.ottr": "2077e7d6c22331d3d5e36dc6bcd9781adf0e64ba7a0ddc57824689a19ebfbd7c",
}


# `gen-pst --degree D --amax A` at more windows, recorded before the closed
# sector was solved at the flows' margin and the eps^1 slice split as an
# affine map: D/A0 has no t flow to pin with, A3 reaches the p = 3 flows
GEN_PST = {
    (3, 0): {
        "f0.ottr": "ef8cf68a500b6b59a9117e0b97d5e0fead74f84adc1e5b10a18df4fabce11609",
        "f0o.ottr": "383610e0bc3e89016dddd60309ba351695474bdf6989dd8e6251146de6e27127",
        "f1o.ottr": "21abff5d74d9c896c3279289ef0b0fe35ca3ed2f6f9c7bd0b7124be1c0d8b36f",
        "flows.report.ottr": "95262f939bcfc26cac7ad43083f261c2ae8faaa205b1e7ccbb3f8b5c12a46d89",
    },
    (5, 0): {
        "f0.ottr": "a0c0b98d0c90670806b36b2252be448ee1b5d3d8d0ec120871b945d09fea065f",
        "f0o.ottr": "0827ec60829dcf062386111b7e8648cef95f0cd5745fa71bdcffedda602b1537",
        "f1o.ottr": "dc1571f9afceb90b66fe04cf2a09d1d4a7cf2b524c906cca8a44f54b26d9d824",
        "flows.report.ottr": "820a479159150e165c89f7bbce92816cc08aba8cd794467e39b36cf7bbfe79c5",
    },
    (3, 2): {
        "f0.ottr": "f1487a18dc0110d09dbd97ad803ec4598efa293562af870391af8d634fcca77b",
        "f0o.ottr": "1d842e6288e860bc529a294a73f26dc57573d1f528cdb1880824eff94de6d196",
        "f1o.ottr": "67abfb11a4f2d8b2491f94ce519abdb28c589110797c3c01483603e9f10a94a2",
        "flows.report.ottr": "6a1c71b6e4631441adc54179fdc9f3339b974c43e2b48f8fe27836ae2e4cab71",
    },
    (7, 2): {
        "f0.ottr": "f25ce8aeb07e6bbe82e57bc306f6bd5c7f29968d1fc7f774a964656e5eebdf58",
        "f0o.ottr": "625a539f1c906a8abcbf920cc8f2763a828b85dcfd556316e463551aec47d983",
        "f1o.ottr": "11eb2f7bf5e9ca0b155d2e43ddd325b951714a9a96cb79d6de0f49194c938cd6",
        "flows.report.ottr": "56330007455af63eb20651e2dbac3e0bd2547735e2c73cc8881133509759dae6",
    },
    (4, 3): {
        "f0.ottr": "462f857719cb0e049d7aa3cb28d41652ad2d8abdce9747c7e19ec9a6393c60d7",
        "f0o.ottr": "968ff33a1bd541ced99bbab14adc5e461bfca7e8ad92ddb8473ef2f51ed68674",
        "f1o.ottr": "b0c242d532c769ea9c7f93d90e62ba232291b13a1f04acc4c12d8f9d3f81358e",
        "flows.report.ottr": "8ea7109dbabaff935e223a5aeb9dc53d207f35a94f18166b7e6c17be83338b1c",
    },
    (5, 3): {
        "f0.ottr": "5c7053bc41673d4ca08cdc47df8a6e79ac55bdbb0559034555ba55c815d8b684",
        "f0o.ottr": "3e7b4d1042dce95e415335a9cc5ffa596f3393f1a95e9a5cf19d73ead7a9360e",
        "f1o.ottr": "c653245a5f1fb8f0eb3b07326d73a440ab60a7d5f30f15fc1e70edcb931b0a11",
        "flows.report.ottr": "b66eaa1c67fc75541fbf91dd9c1111506834e86564ae8ab07d2b1952e598e5a7",
    },
    # recorded before the grade loop read each flow's right-hand side by
    # grade slice: windows where that loop is most of `gen-pst`
    (9, 3): {
        "f0.ottr": "958959c79a876e7eb5991bd4818d66b289ea8bc9844df322d3f91d0d5a09e9ec",
        "f0o.ottr": "970ab9c133255e61e6e81163eb46e2858480782b18725ac6c3ecb2e2bac90cff",
        "f1o.ottr": "53d9c53d7b10cb1804abb349f4afedb891ac60e873ba334fae0bbeb83191ad08",
        "flows.report.ottr": "8edc6ff25c10460564d2300fe72c1ddccb272a02926602094b9e9750c8b53376",
    },
    (10, 2): {
        "f0.ottr": "7daed3797b5b8690f8b8d442bf78c958fbdc4b8b74e88d4164f7bd342d997862",
        "f0o.ottr": "2d4e9e54d196593014df03ada3f62c6153cfed134ff6cc3620a4c3f26752e91e",
        "f1o.ottr": "dcea6012294606e14d2f97dcb848bd71c1e27c14fdfa993906a7a8734bbc4a98",
        "flows.report.ottr": "a13cd27aa8222e71361ea04bf489726f7e7444eae4fb9e54e85b0b3d6d2b3013",
    },
}


def _digests(outdir) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_gen_example_outputs_are_golden(name, tmp_path, capsys):
    assert main(["gen-example", name, *WINDOW, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("go", sorted(GOLDEN_GO))
def test_gen_example_with_go_is_golden(go, tmp_path, capsys):
    assert main(["gen-example", "genus1-rank1", *GO_WINDOW, "--go", go,
                 "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GOLDEN_GO[go]


def test_derive_genus1_solve_output_is_golden(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert main(["gen-example", "open-rank1", *WINDOW, "--outdir", str(gen)]) == 0
    out = tmp_path / "f1o.ottr"
    assert main(["derive-genus1", "--f0", str(gen / "f0.ottr"),
                 "--f0o", str(gen / "f0o.ottr"), "--method", "solve",
                 "--go", "phi3", "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == F1O_SOLVE_PHI3


def test_gen_pst_outputs_are_golden(tmp_path, capsys):
    assert main(["gen-pst", "--degree", "4", "--amax", "1", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GEN_PST_D4_A1


def test_gen_pst_d6_a2_outputs_are_golden(tmp_path, capsys):
    assert main(["gen-pst", *WINDOW, "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GEN_PST_D6_A2


@pytest.mark.parametrize("degree, amax", sorted(GEN_PST), ids=lambda x: str(x))
def test_gen_pst_windows_are_golden(degree, amax, tmp_path, capsys):
    assert main(["gen-pst", "--degree", str(degree), "--amax", str(amax),
                 "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _digests(tmp_path) == GEN_PST[degree, amax]


# `check-evolution --out` on `gen-pst`'s own output at D3-D8 x Amax 0-3: the
# sha256 of the report bytes followed by stdout, and the exit code, recorded
# before each Lax flow's right-hand side became one form per eps slice.  Six
# windows report NONZERO and exit 1 (D3/A1-A3, D4/A2, D4/A3, D5/A3): the
# known defect of ROADMAP item 2, also pinned by the strict xfail
# `test_cli.py::test_check_evolution_passes_gen_pst_output`.  Fixing that
# defect re-records these digests together with that xfail.
CHECK_EVOLUTION_GEN_PST = {
    (3, 0): ("affd1c3699389e9b78a20836e850bc0216c4ec39434b8b8008c1c432516b7139", 0),
    (3, 1): ("66996d0a9bbbfa5be5a2a99de7c02dec826548b41a2a58b04bb6a851d0ef854e", 1),
    (3, 2): ("e28cfcfef22dc559579b0b4d4a9741439a99d29575901ad0649e6cddbbd26064", 1),
    (3, 3): ("9c5e21462f04c7e16453adf1a9f249bc84acfdb32ba38a42163fbb71edfa7d84", 1),
    (4, 0): ("e903a88476b88c684a494df758d1937c57db5663fe994240cbe53dba2cafb76c", 0),
    (4, 1): ("018d6e5a8d80e77c774ca3eb3f45c2adbd29082c46023c3a8d20dacf9d6ec563", 0),
    (4, 2): ("52d464700e94200363689b41029f0e33c8a2a5675334438683b32362981a2535", 1),
    (4, 3): ("4144381893f00176bb5fa94768169ee5361022b81edf46b58f98fdacf8ab4648", 1),
    (5, 0): ("1a84dd5e6200e92b3017726c358d3c77bc9e82231ddf9ffb0ef1080d8ee2a981", 0),
    (5, 1): ("50343d16fc5e552f7a8114c4a3bba51ea691e89e293f1cb1523cc9e7507fe099", 0),
    (5, 2): ("c867a74d8cc005f5f615b2393c4d55c5a033f110b446605c1128e3c7396ab82d", 0),
    (5, 3): ("5e622e8e4bd24778dd3b36d896b1d1e280632c60a9788ea65f3e8ba23c71b55d", 1),
    (6, 0): ("46a2fdda9325da83faf70a3b0a4ad91406ae512de7965c73a3534fda7f5aa3c1", 0),
    (6, 1): ("842c4073ca30c8e03e7530b9c89f84a2a1e87b5ad9d7bdd1d8f5275f4f358297", 0),
    (6, 2): ("4627a2f68784f35e564e4ac9826fa99dd8afea4aaa3d37bd84bb960fb821904a", 0),
    (6, 3): ("a076de077d843a7d1de62a59ceda0b4c6bbda2a2c61df8a0c24af2073ba57258", 0),
    (7, 0): ("285abc960f4d4a43ee71185b8cb266aad81a21cdeb36b2bbfcb8ba8470049e98", 0),
    (7, 1): ("135f298e79efb664fab62ed6bd6ea679d13bb942bcdc3a7d685698c8384b1702", 0),
    (7, 2): ("bb0a90afb5063d62c9d44f800e306ae945e06cf0c6fe2a896adf03b4f693ae43", 0),
    (7, 3): ("1065c61ef0d13aff4e27b5b0e7d8a33c537fa3d1c1b3d8668b1eb629118efbcb", 0),
    (8, 0): ("db76eab3e551b0c4ab17d486a33cc5d72f923efd2bb5d42c6a4cd38f08550d7b", 0),
    (8, 1): ("9dccde0773e1775e7996b6b276eafc68e948f2b8071ad1b18513b060f644b070", 0),
    (8, 2): ("d94fbf38a28eff5e6b96a4758192fcb2e199a3eda6e7a54cd4c5918582ef03a0", 0),
    (8, 3): ("dee0751b34c55621dd681f856dba1b4b8f48b640d3ff7460f0e68c36077d3662", 0),
}


@pytest.mark.parametrize("degree, amax", sorted(CHECK_EVOLUTION_GEN_PST), ids=lambda x: str(x))
def test_check_evolution_windows_are_golden(degree, amax, tmp_path, capsys):
    assert main(["gen-pst", "--degree", str(degree), "--amax", str(amax),
                 "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    report = tmp_path / "evolution.report.ottr"
    code = main(["check-evolution", "--f0", str(tmp_path / "f0.ottr"),
                 "--f0o", str(tmp_path / "f0o.ottr"), "--f1o", str(tmp_path / "f1o.ottr"),
                 "--out", str(report)])
    digest = hashlib.sha256(report.read_bytes() + capsys.readouterr().out.encode()).hexdigest()
    assert (digest, code) == CHECK_EVOLUTION_GEN_PST[degree, amax]


# `build-operators --go G` and `check-evolution --out` on the files of
# `gen-example genus1-rank1 --degree 6 --amax 2 --go G`: the sha256 of every
# operator file, and of the report with the exit code, recorded before the
# operator coefficients and `LinearDiffOp.eval_slices` were rewritten.
EVOLUTION_REPORT = ("cd95b768abc2733696aecfeff684403e24888a60294c76ca3217710c970e255e", 0)
OPERATORS_D6_A2 = {
    "phi3": {
        "Lboun_0.ottr": "5dc17851dc44e0dacbcd7771930816101701761ff1c192440ad467306a247618",
        "Lboun_1.ottr": "e256124100c0f9e488e17a1308d8fdb0f090dbbb794c6660d44df177b7911a3c",
        "Lboun_2.ottr": "40878c8ef542bf4d8c6de8a6a2ed22831d4e648017e9dde694ba2516be616584",
        "Lint_1_0.ottr": "36c652722536eeeb1ec1f683f5c19257de1e4c7c23782f58705913e4cbd559cf",
        "Lint_1_1.ottr": "8990ef6b5eaf672284a6a78e4aa9fcc2edac8dc85ae4c6a7722a2d756590183d",
        "Lint_1_2.ottr": "48acf20e460bee109d5aedd25fcce7a718439d961a26d4ecdaa7d0732914dd22",
    },
    "vphi": {
        "Lboun_0.ottr": "6232d53575f8ff70216f509e95af83403f1a3b5c9e1c631b835fb4fd8d8bee8b",
        "Lboun_1.ottr": "7777d1ad46c3e5dfabcf5945af1958946d461e5b7156ec900f93c690ecc03c6b",
        "Lboun_2.ottr": "cbd488f5d25e89c3bceea75aacf62955d822fd2aa0721d2f12c5623f7f6af4c4",
        "Lint_1_0.ottr": "36c652722536eeeb1ec1f683f5c19257de1e4c7c23782f58705913e4cbd559cf",
        "Lint_1_1.ottr": "896c4d3daa4db0056a517ad23809086437f2b90d4f12878aac6cd4dae98dea0b",
        "Lint_1_2.ottr": "d938114b68c9033ce991a738cf1dbf62752190c1d0904340e39928e275015e54",
    },
    "zero": {
        "Lboun_0.ottr": "602e1b7a0824e552d60148fb94eaf036a3108eb53d63849bf8a34b26895ec90d",
        "Lboun_1.ottr": "9f438ab43659d2d220b02b72b7351f90780338c94e2aec092ec27435436e1ea2",
        "Lboun_2.ottr": "40878c8ef542bf4d8c6de8a6a2ed22831d4e648017e9dde694ba2516be616584",
        "Lint_1_0.ottr": "36c652722536eeeb1ec1f683f5c19257de1e4c7c23782f58705913e4cbd559cf",
        "Lint_1_1.ottr": "220d1b8882b662d1e6a8d294d452eca6e68ed6850fb73401fa726863bb86ba75",
        "Lint_1_2.ottr": "48acf20e460bee109d5aedd25fcce7a718439d961a26d4ecdaa7d0732914dd22",
    },
}


@pytest.mark.parametrize("go", sorted(OPERATORS_D6_A2))
def test_operators_and_evolution_are_golden(go, tmp_path, capsys):
    gen, ops = tmp_path / "gen", tmp_path / "ops"
    assert main(["gen-example", "genus1-rank1", *WINDOW, "--go", go,
                 "--outdir", str(gen)]) == 0
    files = {name: str(gen / f"{name}.ottr") for name in ("f0", "f0o", "f1o")}
    assert main(["build-operators", "--f0", files["f0"], "--f0o", files["f0o"],
                 "--go", go, "--outdir", str(ops)]) == 0
    report = tmp_path / "evolution.report.ottr"
    code = main(["check-evolution", "--f0", files["f0"], "--f0o", files["f0o"],
                 "--f1o", files["f1o"], "--out", str(report)])
    capsys.readouterr()
    assert _digests(ops) == OPERATORS_D6_A2[go]
    assert (hashlib.sha256(report.read_bytes()).hexdigest(), code) == EVOLUTION_REPORT
