"""sha256 digests of the text that exact values become, on every model.

The digests were taken from the outputs before integral exact values were
held as ints. They pin the bytes of ``validate``, ``exist`` and
``go --seed 0`` (JSON), of the file ``ModelSpec.save`` writes and of the
reprs of the degree-4 invariant basis, so that an int where a Fraction used
to be (``repr(Fraction(3))`` is not ``repr(3)``) cannot change any output.
The saved-file digests were retaken when the file stopped holding the
derived ``grading`` and ``kappa``; the file is otherwise unchanged.
``go --degree-cap 6`` is pinned too on the models that take the enumeration
route; those digests were taken before polynomial coefficients were held
as ints.

The CLI contract around those bytes is pinned as well: the exit code and
the standard-error line of ``validate``, ``exist``, ``go --seed 0`` and
``check`` on every model, and of the bad-input paths. Those values were
taken before every subcommand shared one exit path in ``cli.main``.
"""

import hashlib

import pytest

import srgo
import srgo.cli as cli

# model -> (validate, exist, go --seed 0, saved model file, invariants)
DIGESTS = {
    "biinvariant_compact": (
        "56a1d08bb8d94acf9c0f9f4c717740c5ceddbdf3f0da79d529f8b38b0c30bb9b",
        "5239f181c7032d8968cd73587a476a09b5f3fe2fe499834a44a80385197c4eee",
        "cb4aa25e97e16a3fcfe854e00742d7090149dbe8acc6f238dbb93bb31371a464",
        "27f52d417ffe2cc5a834f9c50bdc515252d4eb2b1d1e62a55cd853a7b37c2501",
        "bb4798db21c7d063c3a599069106c11eb313333da272ee1d35f17a5e57c06f69",
    ),
    "cartan": (
        "bb24d757d352011ae9bba8ea66d6a10add50e04f4626f30b801cb179cecfc798",
        "be14ccba2b42591172b1714b19d67883cf7b50042c89594060212c1d873253e2",
        "cd863567ce1e29d602eba178106951555ee5c5301ec8fe9057be429d8b75f025",
        "a54f58e20a427fe7aaf81f29e6e8bd43b47f7872e418e2ba5736ecce7a97ecba",
        "1bb694c37059e43a0f7983269cc8548d868a6a673b6c1868c4dbda111ba729b6",
    ),
    "free_step2_rank2": (
        "4a5710814d76b241d48d51cce9e9f61bc65ecf540068f7a6c6f0b373bed72cbf",
        "eb74fc70edcb593dab6a199619f82ee3e06746e70be4baf1f6612841df648f0f",
        "0ffd5106b011bf93a5f86512d5e7acc3dfd9047cc0a3c11c0ddfe6f88e7e18c1",
        "6cfdd65e162d90a7a2768cefa00f23f63394e1193de7ae897666fe729e2c3fd6",
        "d13bc32c1cec6c45ac84e89aaf7414d3532c5aca29952e1e957cfa7be8b8547e",
    ),
    "free_step2_rank3": (
        "ce6c6bdf68769933bea55c0d8072f47573eb7a4aa9e81b34100697e73f31774a",
        "09e406ce6d1964a31aedc170d83d132468d9c9634ebb517c25c1702d3927e0c5",
        "24244b120f54d3a4ff52ead51a4f00a1baae527b3dac0da9dbf6eb20f1ff61c2",
        "dc0770ce383471e47f49f151d6144ac09428cb16738ccb744e0259e70d67b29b",
        "e377765120597cd9f39a4b75edc1dac9724ef8ecb93500e816335e864b6d4804",
    ),
    "free_step2_rank4": (
        "814755bd266cc29c1c74dae1b593b20ca708b469d3479a1f6a3f2a6b9c9a111c",
        "c0d80ad92152b5d63490f4ad91bf2652a8c2d1f62e4193c877be2aaae9f8892a",
        "bb883e9a040f5ea91b1a9fa74a277e26cf1ab6a9d6f51c3d768dab4dd345fe50",
        "824ff1d6c8f8c1e5f4745dca308a1824bd994a1a1e31a248a0dc6068c95b2602",
        "b97efb48906c52689df92c94e58f8849870cb4f0f06406265ea8a0050fac7e41",
    ),
    "free_step2_rank5": (
        "ac1dd69811bd483b0d929d8c3ce3bbe9a4aaa5a053514f8408bb96c2e2a8bda9",
        "aa40147719f8b887dd2dab825060c10a433b2f9a336168ef9356f6746b4eba27",
        "2ca4ce201e3cfbc2aa0802fdea4f43a1cbee6438eaefe9a8eece5846c98d7e9d",
        "6177ff3cc2db69dbe3814d02348dfdc3e9d020ddcf172c7810c864d81deb3dfb",
        "649c8eca91e8f5dc8138827d9dabef9311abc1c121618bcd71fc96516ac8644d",
    ),
    "free_step2_rank6": (
        "04afae6fbf74cf56b043cea8c9eb9d00381bd8911ae2513a16487bd2f2ff6128",
        "feb55ae4b3b68abf2916f1cbcccecd20de276bb18f6719d2a583a8a15477c55f",
        "2456a7b7e5cd8f9d3fbcc643ad8aba3d8c08fb70212af57cc48f3cfa9b9fc156",
        "05dd758b89f695b2306f4b42638d641df2f3720ee36d4ea20f1b34d121522aec",
        "520b4e2c824f07d606b3e419af63e1424240749b0126dbcde2546df95dca7b92",
    ),
    "heisenberg": (
        "d7f44ba128e1e57c97e0a1699fb557801cef1903b5fc60e85abcbb322d1ae973",
        "4ae0c74a4686719885564f9c46423d5be0715217ba1d4afd541c418dd6cf688f",
        "c1267872bf6d78a4d6e24d817c066de64996d2c8eb34505d3d618426fc342439",
        "7c654b2aeaf5feaf75a93958e7f594d7d5a3e6d6a6fdac4c23d179a832c686bb",
        "d13bc32c1cec6c45ac84e89aaf7414d3532c5aca29952e1e957cfa7be8b8547e",
    ),
    "rolling_sphere": (
        "3665811bfa0d75c4d5ef2265e9285e5904058e580033dd78ceb7e322f1e28df5",
        "c949bfcfb976fc0f11f5454119fe2bb9b5f9476849a186d417afec0adc95b2a5",
        "10d9128cc5a1f3c49684442e4ade5cbd7242a059cde1a9a59eb4cc229f760f66",
        "c1ed89950e6a8c9c04a2fdc602cae647f70945936227a8f12ea0bb0aeb2c4618",
        "d34438ec08c4dba6e6376fdfff8f4928002e62951f5631f18dc19381a70ccfbf",
    ),
    "sl2_axisym": (
        "8147bb9227d0837dec2e3d605546239a4a308e08835c5aeaacfd5f9d842de3ed",
        "b30850cd4f9eb1b249728306e11d0cb2e210ddd2a2be09f422947ff51e6e0dd9",
        "57d558377e9636941308dd6c71aaa5946cdf5cb2473da55f4b5112672dca14e2",
        "a39051ecb5150b38902fec2884e056a5cf2a8b08eb4816fe04a637e566ee2e45",
        "d13bc32c1cec6c45ac84e89aaf7414d3532c5aca29952e1e957cfa7be8b8547e",
    ),
    "sl2_kp": (
        "a50697e2a05ab97a4904bea1491479731791900963551aa441da623188d5c945",
        "fdefcf294932da958a9b1ea2d6c10c1ccff8a0adef4e1855b2d584585ab3f0da",
        "31248c511eeb56c637630b9e19f0d93b796b6a110585f8c4349fcfedfeaf9c06",
        "aa586ee5602df3f8bc54b2d971583d1ae6e5cc2a73b9bf3da9c823c66e257f70",
        "d13bc32c1cec6c45ac84e89aaf7414d3532c5aca29952e1e957cfa7be8b8547e",
    ),
    "so3_axisym": (
        "b44f2ac18fa1227f75c9fa10fb1747fd2d1c55a65307648f81dbde5427ae02a1",
        "031deede14b4f94b1bb05bee72b1c110f971f242dab4244e08de3a2a53d0211b",
        "e792dc445e2f15a37950a6021e0267e69f6915f3fada4af7c416e3a4016c93b0",
        "2593f72f0812e0d11a204864bddf850ae0b02ca94943b6083af0330606585301",
        "d13bc32c1cec6c45ac84e89aaf7414d3532c5aca29952e1e957cfa7be8b8547e",
    ),
    "so3_generic": (
        "24809df45d00190c05560f046980a82205daf79b9e85e56c46b49a98691182cb",
        "cf9adf04cd41a9ef96dac32d0ed42d22ee2d730b2ec7938133aa22fb42666b9b",
        "dfef2ecdff0cf43926d7401bc791b13cf07a9d1447ac6d5d06a6e4d401860b34",
        "526df582766313593f75e3de9f449781cef1f8b982c33415190f0c1651faa44e",
        "bb4798db21c7d063c3a599069106c11eb313333da272ee1d35f17a5e57c06f69",
    ),
    "so3_kp": (
        "30c38fcc5b484df20ac27a297b1ba34b03a744a0a98f61bb767d378eea0943cb",
        "4e7e113466d27f66451d04873e4618474aded55541f293bcfdfd1df17a54c149",
        "aa3fec9f5fa2c22b9a570354d721e3f90ec8b22e7652fb63341dac9485e0873a",
        "83402f289c1c52c30be31fa0e34fab8b54670d8543f6f78ef5639dd9acb4a17b",
        "d13bc32c1cec6c45ac84e89aaf7414d3532c5aca29952e1e957cfa7be8b8547e",
    ),
}


# model -> go --degree-cap 6 --seed 0, on the four models with no tangency
# witness, where go enumerates invariants up to the cap and brackets each.
GO6_DIGESTS = {
    "biinvariant_compact":
        "82eb35a0a2ac4db4f89843c8722e67f470edfac6286c7adb3c2294fd1776fe5a",
    "cartan":
        "6fbf39775cff041ae324343e98f766fee6957b26a20ef003ea67c7dd1d8ae2de",
    "rolling_sphere":
        "37d8f30a97e33ee7e39e5b3ffac8f9587295cd11bbbb4ae8573c7d6c00c46360",
    "so3_generic":
        "3072cb96846aadcb2c007127ac967acec303af6d7b694544496ccb166a1d7d30",
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_every_model_is_pinned():
    assert sorted(DIGESTS) == sorted(CONTRACT) == srgo.list_models()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_outputs_match_their_pinned_digests(name, models, invariant_basis,
                                            tmp_path):
    got = []
    for argv in (["validate"], ["exist"], ["go", "--seed", "0"]):
        out = tmp_path / f"{argv[0]}.json"
        cli.main(argv + ["--model", name, "--out", str(out)])
        got.append(_sha256(out.read_bytes()))
    saved = tmp_path / "model.json"
    models[name].save(saved)
    got.append(_sha256(saved.read_bytes()))
    polys = invariant_basis(name, 4).polynomials
    got.append(_sha256(("\n".join(map(repr, polys)) + "\n").encode()))
    assert tuple(got) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GO6_DIGESTS))
def test_enumeration_route_matches_its_pinned_digest_at_cap_6(name,
                                                              witnesses,
                                                              tmp_path):
    assert witnesses[name] is None  # the enumeration route, not the witness
    out = tmp_path / "go6.json"
    cli.main(["go", "--degree-cap", "6", "--seed", "0", "--model", name,
              "--out", str(out)])
    assert _sha256(out.read_bytes()) == GO6_DIGESTS[name]


# model -> (exist's route, go --seed 0 verdict, check's verdict at the
# m*-coordinates (0.5, ..., 0.5)); validate prints "valid" on every model.
CONTRACT = {
    "biinvariant_compact": ("eigenvector", "GO_affirmed_up_to_degree",
                            "homogeneous"),
    "cartan": ("solvable", "GO_refuted_with_witness", "not_homogeneous"),
    "free_step2_rank2": ("solvable", "GO_affirmed_up_to_degree",
                         "homogeneous"),
    "free_step2_rank3": ("solvable", "GO_affirmed_up_to_degree",
                         "homogeneous"),
    "free_step2_rank4": ("solvable", "GO_affirmed_up_to_degree",
                         "homogeneous"),
    "free_step2_rank5": ("solvable", "GO_affirmed_up_to_degree",
                         "homogeneous"),
    "free_step2_rank6": ("solvable", "GO_affirmed_up_to_degree",
                         "homogeneous"),
    "heisenberg": ("solvable", "GO_affirmed_up_to_degree", "homogeneous"),
    "rolling_sphere": ("eigenvector", "evidence_only", "not_homogeneous"),
    "sl2_axisym": ("eigenvector", "GO_affirmed_up_to_degree", "homogeneous"),
    "sl2_kp": ("eigenvector", "GO_affirmed_up_to_degree", "homogeneous"),
    "so3_axisym": ("eigenvector", "GO_affirmed_up_to_degree", "homogeneous"),
    "so3_generic": ("eigenvector", "evidence_only", "not_homogeneous"),
    "so3_kp": ("eigenvector", "GO_affirmed_up_to_degree", "homogeneous"),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_exit_codes_and_summaries_match_their_pinned_values(name, models,
                                                            tmp_path, capsys):
    route, go, check = CONTRACT[name]
    out = str(tmp_path / "out.json")
    for argv, summary in ((["validate"], "valid"),
                          (["exist"], f"constructed ({route} route)"),
                          (["go", "--seed", "0"], go)):
        assert cli.main(argv + ["--model", name, "--out", out]) == 0
        assert capsys.readouterr().err == f"{name}: {summary}\n"
    # The residual's digits depend on LAPACK, so only the verdict is pinned.
    half = ",".join(["0.5"] * models[name].structure.m.dim)
    code = cli.main(["check", "--model", name, f"--p0={half}", "--out", out])
    assert code == {"homogeneous": 0, "not_homogeneous": 1}[check]
    assert capsys.readouterr().err.startswith(f"{name}: {check} (residual ")


@pytest.mark.parametrize("argv, line", [
    pytest.param(["validate", "--model", "no_such_model"],
                 "error: \"unknown model 'no_such_model' and no such file\"",
                 id="unknown_model"),
    pytest.param(["go", "--model", "heisenberg", "--samples", "0"],
                 "error: samples must be positive", id="go_no_samples"),
    pytest.param(["integrate", "--model", "heisenberg", "--p0=0.5,0.5,0.5",
                  "--T", "-1"],
                 "error: need T > 0 and 0 < step <= T", id="negative_T"),
    pytest.param(["check", "--model", "heisenberg", "--p0=nan,0.5,0.5"],
                 "error: momentum coordinates must be finite", id="nan_p0"),
])
def test_bad_input_paths_match_their_pinned_lines(argv, line, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
