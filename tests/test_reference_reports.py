"""The reference report hashes listed in ROADMAP.md, regenerated on every run.

Each command writes its report through the CLI; the report's sha256 must
equal the recorded value.  A change that moves a byte of any of these
reports must say so and record the new hash.
"""

import hashlib

import pytest

from graphent.cli import main

REFERENCE_REPORTS = {
    "verify-all5": (
        ["verify", "--corpus", "all:5", "--beta=-1,-0.5,1", "--seed", "0"],
        "5c6c96c0046351e08be1e41ba1dfa090744f547e2a6e88c963fac229497574b2"),
    "verify-gnp40": (
        ["verify", "--corpus", "gnp:40,0.3,200", "--seed", "7"],
        "e1fbc497fd83f3f18c22c0a850046cb9e0cfb8b003a8d4c7b232ab1fdeae5785"),
    "scan-trees7": (
        ["scan", "--family", "trees", "--order", "7", "--measure", "quadratic:incidence"],
        "2e977b064cb5527fba505c34130023258664e4672b1d83e4e33561fc20f79c2f"),
    "audit-all5": (
        ["audit", "--corpus", "all:5", "--log-base", "2.718281828459045", "--seed", "0"],
        "9002d32ce8428d1d688e307dbb33d36a8a33704eb14b53424733163da24971ae"),
    # the README's direct-distribution example
    "audit-readme-p": (
        ["audit", "--p", "0.9,0.1", "--alpha", "0.5", "--log-base", "2.718281828459045"],
        "70b0fdfb099d83cb46df3a03f736d75a1cf8013bb52760bb33f54f139a4fc767"),
    # CSV: compact JSON witnesses in the last column
    "audit-all4-csv": (
        ["audit", "--corpus", "all:4", "--format", "csv", "--log-base", "2.718281828459045",
         "--seed", "0"],
        "7e13e0843219068fe0066f79c02bfb81348c7a6a97ed104d4aba53bc60a64c1a"),
    "verify-all4-csv": (
        ["verify", "--corpus", "all:4", "--format", "csv", "--beta=-1,-0.5,1", "--seed", "0"],
        "f5209c6ecca048a89b741d06cc31942d195b04b90e8d734de771923478d6dc7a"),
    # the incidence energy of every graph on five vertices, ranked
    "scan-all5-energy-incidence": (
        ["scan", "--family", "all-graphs", "--order", "5", "--measure", "energy:incidence",
         "--ranking"],
        "a2cb8cb97858d82cc32f19fa9118351d31cdb1be7c81b7c36e7eb2b7af447618"),
    # randic-incidence on five vertices: members with m >= n read the square
    # roots of norm-q's eigenvalues, the rest their own m x m Gram products
    "scan-all5-quadratic-randic-incidence": (
        ["scan", "--family", "all-graphs", "--order", "5", "--measure",
         "quadratic:randic-incidence", "--ranking"],
        "787796b5a17726d8c92df3b7ac2c6e2bb6f673c6f3d091140245d5137c49788b"),
}

# compute --alpha 0.5,2,3 --log-base e on one input each, named as
# (file name, contents).  The report carries the input path, so each runs
# from the input's directory under its bare file name.
COMPUTE_REPORTS = {
    # incidence, distance and the skew kinds on a cubic graph
    "compute-petersen": (("petersen.g6", "IheA@GUAo\n"),
        "1cbcadd3248d337f3acae1faf90f9488b42944f6943bf56ca590616d98a2a641"),
    # an isolated vertex: the distance kind is skipped, and the normalized
    # kinds have no closed values
    "compute-isolated-vertex": (("isolated.edges", "n 5\n0 1\n1 2\n0 2\n2 3\n"),
        "9fa64fb85f32adf99dfc032077066f174268379f731f65e9be3c8a1d432be026"),
    # the skew kinds under the input's own arcs
    "compute-oriented-p4": (("p4.arcs", "1 0\n1 2\n3 2\n"),
        "f7cd1fdddc1b5f2358c36874ec49c770ba33539d39ea14022e6986623e7f75db"),
}


@pytest.mark.parametrize("name", REFERENCE_REPORTS)
def test_reference_report_hash(name, tmp_path):
    argv, sha256 = REFERENCE_REPORTS[name]
    out = tmp_path / "report"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("name", COMPUTE_REPORTS)
def test_compute_report_hash(name, tmp_path, monkeypatch):
    (file_name, contents), sha256 = COMPUTE_REPORTS[name]
    (tmp_path / file_name).write_text(contents)
    monkeypatch.chdir(tmp_path)
    assert main(["compute", "--input", file_name, "--alpha", "0.5,2,3",
                 "--log-base", "2.718281828459045", "--out", "report"]) == 0
    assert hashlib.sha256((tmp_path / "report").read_bytes()).hexdigest() == sha256
