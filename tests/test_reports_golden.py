"""Report bytes pinned by sha256: a refactor must not change any CLI report.

Each job runs ``cli.main`` in process on small fixed inputs and hashes the
JSON written to stdout.  The inputs are literal documents, so the hashes do
not depend on the serializer under test.  When a report is meant to change,
recompute the hash from the new output and say why in the change log.
"""

import hashlib
import json

import pytest

from genmeans.cli import main


def _q(num, den=1):
    return {"num": str(num), "den": str(den)}


INPUTS = {
    "a": {"values": [_q(1, 2), _q(-1), _q(2, 3), _q(0), _q(0), _q(0)], "tail": "zero"},
    "A": {"kind": "window", "tail": "zero",
          "rows": [[_q(1), _q(0), _q(-2), _q(1, 3), _q(0), _q(0)],
                   [_q(0), _q(1, 2), _q(0), _q(0), _q(3), _q(0)],
                   [_q(2), _q(-1), _q(1), _q(0), _q(0), _q(1, 4)]]},
    "atilde": {"kind": "window", "tail": "structural",
               "rows": [[_q(1, n + 1)] for n in range(8)]},
}

EULER6 = ["--preset", "euler", "--alpha", "1/2", "--n", "6"]
F64 = ["--scalar", "f64"]

JOBS = {
    "dual-alpha": (["dual", *EULER6, "--dual", "alpha", "--input", "{a}"],
                   "8356cf6ca97fe686fbb3e5ef31ae763916ae8904709be58f7f1a09ad22dc6eff"),
    "dual-beta": (["dual", *EULER6, "--dual", "beta", "--input", "{a}"],
                  "7da92056f2eef6adbe68ab36bb696dec3f24dddcddaa7eaa3a87c43a3b3f6f78"),
    "dual-gamma": (["dual", *EULER6, "--dual", "gamma", "--input", "{a}"],
                   "efb767c1d4115d18b5667e9393548393b7802519dfb78c2ab1cef63e04066ab3"),
    "dual-alpha-f64": (["dual", *EULER6, *F64, "--dual", "alpha", "--input", "{a}"],
                       "127e65d2fec4082f4d4de14495a805b1ac9a6eb2a0af6f05d15f12e844fa5bdf"),
    "dual-beta-f64": (["dual", *EULER6, *F64, "--dual", "beta", "--input", "{a}"],
                      "cc9eadec9b05ca9ac3cbcfe645e948b66d8674ff9259e171db7233830caf23ef"),
    "dual-gamma-f64": (["dual", *EULER6, *F64, "--dual", "gamma", "--input", "{a}"],
                       "d4efb594fb5830744dd6fb59a1012fe263223ea3da06a95d7073ba877efa279e"),
    "matclass-c-c": (["matclass", *EULER6, "--matrix", "{A}", "--source", "c",
                      "--target", "c"],
                     "174b7e836ac4d9d2609c4790b2f985de41294233ef38a920ef3f198c7e0c0f53"),
    "matclass-linf-c0": (["matclass", *EULER6, "--matrix", "{A}", "--source", "l_inf",
                          "--target", "c0"],
                         "b41ad53d9c6f088ab01ef53b2f2f02e2de7794d3473859b13ff371b2de7eb68e"),
    "chi-matrix-c": (["chi", *EULER6, "--matrix", "{A}", "--target", "c"],
                     "bb22719742d4ca07156180010ec9e2fa0f8a5bfd3797e2b859fa6f643970fb1f"),
    "chi-matrix-c0": (["chi", *EULER6, "--matrix", "{A}", "--target", "c0"],
                      "54c3b0b51887d6e3dfb828d753731578a24bbc0233bf43e269eb37ca0bb6d7ba"),
    "chi-matrix-c-f64": (["chi", *EULER6, *F64, "--matrix", "{A}", "--target", "c"],
                         "98bb29d3611c247eb724d3660dac40865c7f02773cb7008aee06f203a7fade64"),
    "chi-matrix-c0-f64": (["chi", *EULER6, *F64, "--matrix", "{A}", "--target", "c0"],
                          "de80612e47418cdfe12c462b80b6c1c88d1618d1949c5e2ce92650846fbb5f11"),
    "chi-atilde": (["chi", *EULER6, "--atilde", "{atilde}", "--target", "c0"],
                   "6fff49e00d1a85f1bfe73bfc63d7314a787615efdc690406f18a65eb5c64bdf1"),
    "basis-minus-one": (["basis", *EULER6, "--j", "-1"],
                        "af4518ab82d09193b02150066669955c77634c20dfcfc9d52d6a9433ac284645"),
    "selftest": (["selftest"],
                 "d684a90687fcb89f1f6e1740018511d5343b32a09757652e27e26f86c787db53"),
}


@pytest.fixture(scope="module")
def input_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, doc in INPUTS.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("name", list(JOBS))
def test_report_bytes_unchanged(name, input_paths, capsys):
    argv, digest = JOBS[name]
    assert main([arg.format(**input_paths) for arg in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
