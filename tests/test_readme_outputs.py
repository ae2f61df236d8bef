"""The README commands, and short runs shaped like the benchmark's `dump`
commands, pinned byte for byte.

Each case runs one command through `main` and compares its exit code and
the sha256 of its stdout, its stderr and every file it writes with the
values below.  A change meant to keep the output (a refactor, a speedup)
must pass this file unchanged; a change meant to alter an output updates
the pin and says why.  `certify` is pinned line by line except for the
`spectral-agreement` detail, which quotes a LAPACK eigensolver.
"""

import hashlib

import pytest

from mosqdyn.cli import main

REF1 = ["--alpha", "0.6", "--beta", "0.5", "--mu", "0.48"]

# name -> (argv with "{}" standing for the output file, that file's name or None)
CASES = {
    "simulate-csv": (["simulate", *REF1, "--x0", "2", "--y0", "0.1"], None),
    "simulate-json": (["simulate", *REF1, "--x0", "2", "--y0", "0.1",
                       "--format", "json", "--out", "{}"], "orbit.json"),
    "classify": (["classify", *REF1], None),
    "sweep": (["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.05", "1.0", "20",
               "--mu-range", "0.05", "1.0", "20", "--out", "{}"], "sweep.csv"),
    "compare": (["compare", "--alpha", "0.5", "--beta", "0.3", "--mu", "0.6", "--x0", "1", "--y0", "1",
                 "--steps", "200", "--t-end", "50"], None),
    "simulate-invalid": (["simulate", "--alpha", "1.5", "--beta", "0.5", "--mu", "0.48",
                          "--x0", "1", "--y0", "1"], None),
    "sweep-inverted": (["sweep", "--alpha-range", "0.6", "0.6", "1", "--beta-range", "0.7", "0.3", "3",
                        "--mu-range", "0.3", "0.7", "3", "--out", "{}"], "never.csv"),
    # the benchmark's two `compare` rate sets and a reference `simulate`
    # CSV written to a file: they pin the RK4 loop, the full-map loop and
    # the row templates on a horizon short enough for tier 1
    "compare-reduced-file": (["compare", "--alpha", "0.5", "--beta", "0.3", "--mu", "0.6", "--d0", "0", "--d1", "0",
                              "--x0", "1.3", "--y0", "0.7", "--steps", "2000", "--t-end", "20", "--dt", "0.01",
                              "--out", "{}"], "compare-reduced.csv"),
    "compare-general-file": (["compare", "--alpha", "0.5", "--beta", "0.9", "--mu", "0.3", "--d0", "0.05",
                              "--d1", "0.01", "--x0", "1.3", "--y0", "0.7", "--steps", "2000", "--t-end", "20",
                              "--dt", "0.01", "--out", "{}"], "compare-general.csv"),
    "simulate-ref2-file": (["simulate", "--alpha", "0.4", "--beta", "0.35", "--mu", "0.3", "--x0", "0.5", "--y0", "2",
                            "--out", "{}"], "ref2.csv"),
    # one rate set for each label, the two nonhyperbolic surfaces
    # (lambda1 = 1 at beta = mu, lambda2 = -1 at beta = (2 - alpha)(2 - mu)/alpha)
    "classify-attracting": (["classify", "--alpha", "0.5", "--beta", "0.3", "--mu", "0.6"], None),
    "classify-repelling": (["classify", "--alpha", "0.5", "--beta", "4.6", "--mu", "0.5"], None),
    "classify-nonhyperbolic-one": (["classify", "--alpha", "0.9", "--beta", "0.9", "--mu", "0.9"], None),
    "classify-nonhyperbolic-minus-one": (["classify", "--alpha", "0.5", "--beta", "4.5", "--mu", "0.5"], None),
    # r0 about 0.45 with d1 > 0: the summary's "positive_equilibrium=none"
    "compare-general-subcritical": (["compare", "--alpha", "0.5", "--beta", "0.3", "--mu", "0.6", "--d0", "0.05",
                                     "--d1", "0.01", "--x0", "1", "--y0", "1", "--steps", "20", "--t-end", "2"],
                                    None),
}

# name -> (exit code, sha256 of stdout, of stderr, of the written file or None)
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of b""
PINS = {
    "classify": (0, "5b44d68036431320288eecf2dfec12b7f3a07aebd5a3b5fc998b6db52b889d8d", EMPTY, None),
    "classify-attracting": (0, "42ebdb09b6c05d7653c838de8c8ac1d80bb870a01b86c03f3c01464e68444295", EMPTY, None),
    "classify-nonhyperbolic-minus-one": (0, "4c496d94f2a9ea752fa1cec563b57cc2f01fd14fc2f0c3edc796d17ea2010a59",
                                         EMPTY, None),
    "classify-nonhyperbolic-one": (0, "4ce0d4ecc060c8947f2576699f747a05811dfe0cccb5a5330ae133943b3690f1", EMPTY,
                                   None),
    "classify-repelling": (0, "0b29476519dd1287971258c0fad02eaa08ffa4e2232f39d4a6c4f1ef26f6c3da", EMPTY, None),
    "compare-general-file": (0, "3c3959f2b48fafe3db07fe538708319aa7810d7ef6125027d4dd38a8154324aa", EMPTY,
                             "d55f8f5bfae3a8641ea84d1c96f9914cc67e27b4e469d98d9618edae08d27733"),
    "compare-reduced-file": (0, "a100c2a1f958d73f77fcf8e46ab246a17da961b389c47348c0d993b3faea2e4b", EMPTY,
                             "e371863d3c6bc3b37da9e95e97ecbcdd97bf771231f4e21a5be08256d5e87fc2"),
    "compare-general-subcritical": (0, "b16639861c1c1de59479225f9bef21fd1376c393d0ad8fbf455832973a8573b4",
                                    "37b7dfc7d6894e862e256ae80636beecdc87924bc7a73d6b7754d473f6117862", None),
    "compare": (0, "9f5d5c9546be06521a9c7639b2a41ac6e7c79316b567156b33a5406378b9ed92",
                "88738e64d1bee65d9c1e6f4a33844fecf1afd393326804d99288fa83770a1777", None),
    "simulate-csv": (0, "b8c644e41c34b6e9806531bb97fc0b6731b7b6284349d7da279f3092a58f5703",
                     "9c76ec3d0c21088490dfdee90e238caaf7fa41ccf532452d8d48328f63e67a30", None),
    "simulate-invalid": (2, EMPTY, "bebb4f59361c736d17985118d00bd6ed6adf6899eeaa5de695e683b41dacdaa9", None),
    "simulate-ref2-file": (0, "93bf21e9678080337531dbf5761fee00ebd7aa6b6aae08faf4940d45f8063307", EMPTY,
                           "6e0ea8afe72cdf0197b8b0837bdb50e9e522d5a170c9a3698220aa81bafb6863"),
    "simulate-json": (0, "9c76ec3d0c21088490dfdee90e238caaf7fa41ccf532452d8d48328f63e67a30", EMPTY,
                      "e75de20fc662ddaf8e426569680ca2f8ea5c26d04fd7d3abc2578dccd630fcd1"),
    "sweep": (0, "ef952bc05e7a27f0b9a203ca5d7b270d966ce728f797e6894dc651fa165d51e5", EMPTY,
              "33947d23707d7a86403fe17a59a278fe4c2e841b0b2ef31be6b5e172231c31e5"),
    "sweep-inverted": (2, EMPTY, "1c3a0ea741731ebe70e31d317a4d6d7c4c9351a54410174bb7f8bf410d64e184", None),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, tmp_path, capsys):
    argv, out_name = CASES[name]
    path = tmp_path / out_name if out_name else None
    rc = main([str(path) if tok == "{}" else tok for tok in argv])
    out, err = capsys.readouterr()
    written = _sha(path.read_bytes()) if path is not None and path.exists() else None
    return rc, _sha(out.encode()), _sha(err.encode()), written


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_command_output_is_pinned(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == PINS[name]


CERTIFY_TRIALS = ["certify", *REF1, "--trials", "25", "--seed", "7"]
CERTIFY_TRIALS_SHA = "273e432f1589b51fab5a77c1647fe3267024bd16290bbb1a53cd55f6cc5f2816"


def certify_lines(capsys):
    rc = main(CERTIFY_TRIALS)
    out, err = capsys.readouterr()
    lines = out.splitlines()
    lines = [ln.partition(":")[0] if ln.startswith(("PASS spectral-agreement", "FAIL spectral-agreement"))
             else ln for ln in lines]
    return rc, err, lines


def test_readme_certify_trials_is_pinned(capsys):
    rc, err, lines = certify_lines(capsys)
    assert rc == 0 and err == ""
    assert lines[:2] == ["seed=7", "PASS spectral-agreement"]
    assert lines[-1] == "certificates=35 failed=0"
    assert _sha("\n".join(lines).encode()) == CERTIFY_TRIALS_SHA
