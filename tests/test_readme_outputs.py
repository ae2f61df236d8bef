"""The README commands, pinned byte for byte.

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
}

# name -> (exit code, sha256 of stdout, of stderr, of the written file or None)
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of b""
PINS = {
    "classify": (0, "5b44d68036431320288eecf2dfec12b7f3a07aebd5a3b5fc998b6db52b889d8d", EMPTY, None),
    "compare": (0, "9f5d5c9546be06521a9c7639b2a41ac6e7c79316b567156b33a5406378b9ed92",
                "88738e64d1bee65d9c1e6f4a33844fecf1afd393326804d99288fa83770a1777", None),
    "simulate-csv": (0, "074a0f6ab4273226adbfa54d5561becb8c10e3bcfba06013af8aa0dc00a1a126",
                     "05828a01f74c8ec6e039068682309d066d7fb7bcffa9e9144d042b4b3e58d464", None),
    "simulate-invalid": (2, EMPTY, "1603cf5269b7bd9aeb0c826cf63989d752a886a4cf18a623dd841d71d1972447", None),
    "simulate-json": (0, "05828a01f74c8ec6e039068682309d066d7fb7bcffa9e9144d042b4b3e58d464", EMPTY,
                      "ca6946a23293fd7a07564dd3f126f9d2ab20092e32729d16d4062d4dceb1d064"),
    "sweep": (0, "ef952bc05e7a27f0b9a203ca5d7b270d966ce728f797e6894dc651fa165d51e5", EMPTY,
              "e5fcfe319aff8dd9c232ee1e1f2d118b20f289e03c2068b1e5c301d39f3edd75"),
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
CERTIFY_TRIALS_SHA = "016ef4739738f99763279abe77bf54d79bbe5827895c46ff30167812b26aa9f3"


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
    assert lines[-1] == "certificates=34 failed=0"
    assert _sha("\n".join(lines).encode()) == CERTIFY_TRIALS_SHA
