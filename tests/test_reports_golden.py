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
                   "51c02a269494b5d98784784e570eb36e5d041e09370693c0ff371271b768bad0"),
    "dual-beta": (["dual", *EULER6, "--dual", "beta", "--input", "{a}"],
                  "97f9abda4b37b8e36762e2993891a170aa0723cfdc9144b810b1b90da9ef51ca"),
    "dual-gamma": (["dual", *EULER6, "--dual", "gamma", "--input", "{a}"],
                   "c84d86b21d815b7eacd46543fd4b003fd5080c933adf0966c62c69c89580dfa7"),
    "dual-alpha-f64": (["dual", *EULER6, *F64, "--dual", "alpha", "--input", "{a}"],
                       "3195f1436c2ae6ee625cf7c56b87d061f8ca245b35298ec87712b3b9acca566b"),
    "dual-beta-f64": (["dual", *EULER6, *F64, "--dual", "beta", "--input", "{a}"],
                      "a14ee873e5536995fd43628b3371ddaa503d2280e20971f49d4580d3d9f7aac0"),
    "dual-gamma-f64": (["dual", *EULER6, *F64, "--dual", "gamma", "--input", "{a}"],
                       "fea4afaf0c3e7ffaee2e4d88ca7d74ec798455dfd57ee0e4e423251930c84a08"),
    "matclass-c-c": (["matclass", *EULER6, "--matrix", "{A}", "--source", "c",
                      "--target", "c"],
                     "174b7e836ac4d9d2609c4790b2f985de41294233ef38a920ef3f198c7e0c0f53"),
    "matclass-linf-c0": (["matclass", *EULER6, "--matrix", "{A}", "--source", "l_inf",
                          "--target", "c0"],
                         "b41ad53d9c6f088ab01ef53b2f2f02e2de7794d3473859b13ff371b2de7eb68e"),
    "chi-matrix-c": (["chi", *EULER6, "--matrix", "{A}", "--target", "c"],
                     "4919d7e801e78ca897acc5eb8013859ed361915a18c12152f13500e6d28e8a60"),
    "chi-matrix-c0": (["chi", *EULER6, "--matrix", "{A}", "--target", "c0"],
                      "781e829c8dd961baad3795deaa1dafb046bd90bfd2d3ecb8f9ae453b66b57613"),
    "chi-matrix-c-f64": (["chi", *EULER6, *F64, "--matrix", "{A}", "--target", "c"],
                         "8155e479e307dc9db98ff5a50dfff891a03002aad03c8a66735ef23819d0b7cb"),
    "chi-matrix-c0-f64": (["chi", *EULER6, *F64, "--matrix", "{A}", "--target", "c0"],
                          "8a970aae60e79e1b250d7b7ab9c37384b2008af6be63e16b23c18c96d5b14855"),
    "chi-atilde": (["chi", *EULER6, "--atilde", "{atilde}", "--target", "c0"],
                   "fcb143a00806446b7e135051b03811507e1fd23e617d43564e0d932dc3ba5fca"),
    "basis-minus-one": (["basis", *EULER6, "--j", "-1"],
                        "af4518ab82d09193b02150066669955c77634c20dfcfc9d52d6a9433ac284645"),
    "selftest": (["selftest"],
                 "657d94d8d263131af779a9c57e8d6a01027410f28d061eba741b080cb6dfdce2"),
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
