"""Pinned CLI bytes: every verb under every subset of the flags it honours.

Each case runs `cli.main` in process, in a directory holding the input
files, and hashes (exit code, stdout, stderr).  The digests were recorded
before the CLI's output path was rebuilt around one emitter, so a change
to the bytes of any honoured invocation fails here.
"""

import hashlib
import itertools

import pytest

from ratform.cli import main

FILES = {
    "q-derog.mat": "field rational\n3\n2 1/2 0\n0 1 0\n0 -1 2\n",
    "q-derog-conj.mat": "field rational\n3\n2 -9/10 9/10\n0 27/10 -7/10\n0 17/10 3/10\n",
    "q-diag.mat": "field rational\n3\n1 0 0\n0 1 0\n0 0 2\n",
    "gf7-derog.mat": "field gf 7\n4\n3 1 0 5\n0 3 0 0\n2 0 3 0\n0 0 0 3\n",
    "gf7-nil.mat": "field gf 7\n4\n5 4 2 5\n0 4 2 4\n1 4 2 0\n3 1 4 3\n",
    "zero.mat": "field rational\n3\n0 0 0\n0 0 0\n0 0 0\n",
    "bad.mat": "field rational\n2\n1 2\n3 oops\n",
    "wide.mat": "field rational\n2 3\n1 2 3\n4 5 6\n",
    "zero-den.mat": "field rational\n1\n1/0\n",
}

SINGLE = ["q-derog.mat", "gf7-derog.mat", "gf7-nil.mat", "zero.mat", "bad.mat", "wide.mat"]

PAIRS = [
    ("q-derog.mat", "q-derog-conj.mat"),  # similar
    ("q-derog.mat", "q-diag.mat"),  # same characteristic polynomial, not similar
    ("q-derog.mat", "gf7-derog.mat"),  # mixed fields
    ("gf7-nil.mat", "missing.mat"),  # unreadable second file
]

# Flags each verb honours; --field takes a value, so it is pinned with one.
HONOURED = {
    "rnf": ("--json", "--check", "--show-transform", "--field=gf:5"),
    "factors": ("--json", "--check", "--field=gf:5"),
    "minpoly": ("--json", "--field=gf:5"),
    "charpoly": ("--json", "--field=gf:5"),
    "similar": ("--json", "--show-transform", "--field=gf:5"),
    "jnf-nilpotent": ("--json", "--check", "--show-transform", "--field=gf:5"),
}


def cases(verb):
    flags = HONOURED[verb]
    inputs = PAIRS if verb == "similar" else [(name,) for name in SINGLE]
    for r in range(len(flags) + 1):
        for chosen in itertools.combinations(flags, r):
            for files in inputs:
                yield [verb, *chosen, *files]


def digest(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return hashlib.sha256(repr((code, out, err)).encode()).hexdigest()[:16]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("verb", sorted(HONOURED))
def test_honoured_invocations_keep_their_bytes(verb, workdir, capsys):
    changed = []
    for argv in cases(verb):
        key = " ".join(argv)
        got = digest(argv, capsys)
        if PINNED[key] != got:
            changed.append(f"{key}: {PINNED[key]} -> {got}")
    assert changed == []


def test_a_zero_denominator_names_its_token(workdir, capsys):
    assert main(["rnf", "zero-den.mat"]) == 2
    assert capsys.readouterr() == ("", "error: zero-den.mat: line 3: zero denominator in '1/0'\n")


@pytest.mark.parametrize(
    "text, flags, err",
    [  # Arabic-Indic digits, which int() and the regex \d read as numbers
        ("field gf \u0667\n2\n1 0\n0 1\n", [], "in.mat: line 1: not an unsigned ASCII integer: '\u0667'"),
        ("field gf 7\n\u0662\n1 0\n0 1\n", [], "in.mat: line 2: bad size line '\u0662'"),
        ("field rational\n1\n\u0663\n", [], "in.mat: line 3: not a rational scalar: '\u0663'"),
        ("field gf 7\n1\n\u0663\n", [], "in.mat: line 3: not a GF(7) scalar: '\u0663'"),
        ("field gf 7\n2\n1 0\n0 1\n", ["--field=gf:\u0667"], "not an unsigned ASCII integer: '\u0667'"),
        # underscores, which int() also reads, are no more a number than in a scalar
        ("field gf 1_01\n1\n1\n", [], "in.mat: line 1: not an unsigned ASCII integer: '1_01'"),
        ("field gf 7\n1_0\n1\n", [], "in.mat: line 2: bad size line '1_0'"),
        ("field gf 7\n1\n1\n", ["--field=gf:1_01"], "not an unsigned ASCII integer: '1_01'"),
    ],
    ids=["header", "size", "Q entry", "GF entry", "--field", "header 1_01", "size 1_0", "--field 1_01"],
)
def test_digits_outside_ascii_exit_2(tmp_path, monkeypatch, capsys, text, flags, err):
    (tmp_path / "in.mat").write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["factors", *flags, "in.mat"]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_every_honoured_invocation_is_pinned():
    keys = {" ".join(argv) for verb in HONOURED for argv in cases(verb)}
    assert keys == set(PINNED)


PINNED = {
    "rnf q-derog.mat": "6b58924a396b286c",
    "rnf gf7-derog.mat": "fc7df9ae23aca3ce",
    "rnf gf7-nil.mat": "22e96f9565cc5cb1",
    "rnf zero.mat": "85d4f0f6c038a67d",
    "rnf bad.mat": "58b41eb514663bc4",
    "rnf wide.mat": "52c458189ec6234e",
    "rnf --json q-derog.mat": "73e98dcd6249e577",
    "rnf --json gf7-derog.mat": "300df60ae6154efd",
    "rnf --json gf7-nil.mat": "e1f66c0936f0140f",
    "rnf --json zero.mat": "52b1fd9d4c2f04a3",
    "rnf --json bad.mat": "58b41eb514663bc4",
    "rnf --json wide.mat": "52c458189ec6234e",
    "rnf --check q-derog.mat": "6b58924a396b286c",
    "rnf --check gf7-derog.mat": "fc7df9ae23aca3ce",
    "rnf --check gf7-nil.mat": "22e96f9565cc5cb1",
    "rnf --check zero.mat": "85d4f0f6c038a67d",
    "rnf --check bad.mat": "58b41eb514663bc4",
    "rnf --check wide.mat": "52c458189ec6234e",
    "rnf --show-transform q-derog.mat": "1560422c2b219af8",
    "rnf --show-transform gf7-derog.mat": "6f066a89e56b8e69",
    "rnf --show-transform gf7-nil.mat": "fa32be9dd7cd7bde",
    "rnf --show-transform zero.mat": "cb0b2a1b6d14b255",
    "rnf --show-transform bad.mat": "58b41eb514663bc4",
    "rnf --show-transform wide.mat": "52c458189ec6234e",
    "rnf --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "rnf --field=gf:5 gf7-derog.mat": "7f10e4cb3df9ed1b",
    "rnf --field=gf:5 gf7-nil.mat": "ee869fd6ce94995c",
    "rnf --field=gf:5 zero.mat": "e2d74abd77a199bd",
    "rnf --field=gf:5 bad.mat": "57f33778b13137de",
    "rnf --field=gf:5 wide.mat": "52c458189ec6234e",
    "rnf --json --check q-derog.mat": "73e98dcd6249e577",
    "rnf --json --check gf7-derog.mat": "300df60ae6154efd",
    "rnf --json --check gf7-nil.mat": "e1f66c0936f0140f",
    "rnf --json --check zero.mat": "52b1fd9d4c2f04a3",
    "rnf --json --check bad.mat": "58b41eb514663bc4",
    "rnf --json --check wide.mat": "52c458189ec6234e",
    "rnf --json --show-transform q-derog.mat": "6c2f432913e45c6e",
    "rnf --json --show-transform gf7-derog.mat": "46cb31ddaa65ef69",
    "rnf --json --show-transform gf7-nil.mat": "000aa0c755ef2231",
    "rnf --json --show-transform zero.mat": "ec56b5a3205a4ce6",
    "rnf --json --show-transform bad.mat": "58b41eb514663bc4",
    "rnf --json --show-transform wide.mat": "52c458189ec6234e",
    "rnf --json --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "rnf --json --field=gf:5 gf7-derog.mat": "c885fe8990bf6855",
    "rnf --json --field=gf:5 gf7-nil.mat": "ba1267ab467f52ca",
    "rnf --json --field=gf:5 zero.mat": "18a7af979998d8f3",
    "rnf --json --field=gf:5 bad.mat": "57f33778b13137de",
    "rnf --json --field=gf:5 wide.mat": "52c458189ec6234e",
    "rnf --check --show-transform q-derog.mat": "1560422c2b219af8",
    "rnf --check --show-transform gf7-derog.mat": "6f066a89e56b8e69",
    "rnf --check --show-transform gf7-nil.mat": "fa32be9dd7cd7bde",
    "rnf --check --show-transform zero.mat": "cb0b2a1b6d14b255",
    "rnf --check --show-transform bad.mat": "58b41eb514663bc4",
    "rnf --check --show-transform wide.mat": "52c458189ec6234e",
    "rnf --check --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "rnf --check --field=gf:5 gf7-derog.mat": "7f10e4cb3df9ed1b",
    "rnf --check --field=gf:5 gf7-nil.mat": "ee869fd6ce94995c",
    "rnf --check --field=gf:5 zero.mat": "e2d74abd77a199bd",
    "rnf --check --field=gf:5 bad.mat": "57f33778b13137de",
    "rnf --check --field=gf:5 wide.mat": "52c458189ec6234e",
    "rnf --show-transform --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "rnf --show-transform --field=gf:5 gf7-derog.mat": "7cbadf5b1e6930f9",
    "rnf --show-transform --field=gf:5 gf7-nil.mat": "d5b58e59213e7d84",
    "rnf --show-transform --field=gf:5 zero.mat": "083380e72b073da4",
    "rnf --show-transform --field=gf:5 bad.mat": "57f33778b13137de",
    "rnf --show-transform --field=gf:5 wide.mat": "52c458189ec6234e",
    "rnf --json --check --show-transform q-derog.mat": "6c2f432913e45c6e",
    "rnf --json --check --show-transform gf7-derog.mat": "46cb31ddaa65ef69",
    "rnf --json --check --show-transform gf7-nil.mat": "000aa0c755ef2231",
    "rnf --json --check --show-transform zero.mat": "ec56b5a3205a4ce6",
    "rnf --json --check --show-transform bad.mat": "58b41eb514663bc4",
    "rnf --json --check --show-transform wide.mat": "52c458189ec6234e",
    "rnf --json --check --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "rnf --json --check --field=gf:5 gf7-derog.mat": "c885fe8990bf6855",
    "rnf --json --check --field=gf:5 gf7-nil.mat": "ba1267ab467f52ca",
    "rnf --json --check --field=gf:5 zero.mat": "18a7af979998d8f3",
    "rnf --json --check --field=gf:5 bad.mat": "57f33778b13137de",
    "rnf --json --check --field=gf:5 wide.mat": "52c458189ec6234e",
    "rnf --json --show-transform --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "rnf --json --show-transform --field=gf:5 gf7-derog.mat": "293c34cd4ebb5b7b",
    "rnf --json --show-transform --field=gf:5 gf7-nil.mat": "8a32cfcf15e7502b",
    "rnf --json --show-transform --field=gf:5 zero.mat": "ae8c6a3f20f19341",
    "rnf --json --show-transform --field=gf:5 bad.mat": "57f33778b13137de",
    "rnf --json --show-transform --field=gf:5 wide.mat": "52c458189ec6234e",
    "rnf --check --show-transform --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "rnf --check --show-transform --field=gf:5 gf7-derog.mat": "7cbadf5b1e6930f9",
    "rnf --check --show-transform --field=gf:5 gf7-nil.mat": "d5b58e59213e7d84",
    "rnf --check --show-transform --field=gf:5 zero.mat": "083380e72b073da4",
    "rnf --check --show-transform --field=gf:5 bad.mat": "57f33778b13137de",
    "rnf --check --show-transform --field=gf:5 wide.mat": "52c458189ec6234e",
    "rnf --json --check --show-transform --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "rnf --json --check --show-transform --field=gf:5 gf7-derog.mat": "293c34cd4ebb5b7b",
    "rnf --json --check --show-transform --field=gf:5 gf7-nil.mat": "8a32cfcf15e7502b",
    "rnf --json --check --show-transform --field=gf:5 zero.mat": "ae8c6a3f20f19341",
    "rnf --json --check --show-transform --field=gf:5 bad.mat": "57f33778b13137de",
    "rnf --json --check --show-transform --field=gf:5 wide.mat": "52c458189ec6234e",
    "factors q-derog.mat": "9412465bd2026dbc",
    "factors gf7-derog.mat": "d1622b79e8ba798f",
    "factors gf7-nil.mat": "60cb08ec8fccb2de",
    "factors zero.mat": "f61128717ebf8705",
    "factors bad.mat": "58b41eb514663bc4",
    "factors wide.mat": "52c458189ec6234e",
    "factors --json q-derog.mat": "a15db996f07c0164",
    "factors --json gf7-derog.mat": "225d0daa913f2073",
    "factors --json gf7-nil.mat": "46feb4ad3572b8b3",
    "factors --json zero.mat": "e730fde19f1c839a",
    "factors --json bad.mat": "58b41eb514663bc4",
    "factors --json wide.mat": "52c458189ec6234e",
    "factors --check q-derog.mat": "9412465bd2026dbc",
    "factors --check gf7-derog.mat": "d1622b79e8ba798f",
    "factors --check gf7-nil.mat": "60cb08ec8fccb2de",
    "factors --check zero.mat": "f61128717ebf8705",
    "factors --check bad.mat": "58b41eb514663bc4",
    "factors --check wide.mat": "52c458189ec6234e",
    "factors --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "factors --field=gf:5 gf7-derog.mat": "194e29a9ad676483",
    "factors --field=gf:5 gf7-nil.mat": "38123606d7bef337",
    "factors --field=gf:5 zero.mat": "f61128717ebf8705",
    "factors --field=gf:5 bad.mat": "57f33778b13137de",
    "factors --field=gf:5 wide.mat": "52c458189ec6234e",
    "factors --json --check q-derog.mat": "a15db996f07c0164",
    "factors --json --check gf7-derog.mat": "225d0daa913f2073",
    "factors --json --check gf7-nil.mat": "46feb4ad3572b8b3",
    "factors --json --check zero.mat": "e730fde19f1c839a",
    "factors --json --check bad.mat": "58b41eb514663bc4",
    "factors --json --check wide.mat": "52c458189ec6234e",
    "factors --json --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "factors --json --field=gf:5 gf7-derog.mat": "f2efdaade34aebf8",
    "factors --json --field=gf:5 gf7-nil.mat": "482f341d41c13a7f",
    "factors --json --field=gf:5 zero.mat": "64a8d50cad20a627",
    "factors --json --field=gf:5 bad.mat": "57f33778b13137de",
    "factors --json --field=gf:5 wide.mat": "52c458189ec6234e",
    "factors --check --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "factors --check --field=gf:5 gf7-derog.mat": "194e29a9ad676483",
    "factors --check --field=gf:5 gf7-nil.mat": "38123606d7bef337",
    "factors --check --field=gf:5 zero.mat": "f61128717ebf8705",
    "factors --check --field=gf:5 bad.mat": "57f33778b13137de",
    "factors --check --field=gf:5 wide.mat": "52c458189ec6234e",
    "factors --json --check --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "factors --json --check --field=gf:5 gf7-derog.mat": "f2efdaade34aebf8",
    "factors --json --check --field=gf:5 gf7-nil.mat": "482f341d41c13a7f",
    "factors --json --check --field=gf:5 zero.mat": "64a8d50cad20a627",
    "factors --json --check --field=gf:5 bad.mat": "57f33778b13137de",
    "factors --json --check --field=gf:5 wide.mat": "52c458189ec6234e",
    "minpoly q-derog.mat": "ecd590691129a240",
    "minpoly gf7-derog.mat": "7fa8bdea616b37f3",
    "minpoly gf7-nil.mat": "5b3feffb84f1e2ab",
    "minpoly zero.mat": "1b847261e0c56531",
    "minpoly bad.mat": "58b41eb514663bc4",
    "minpoly wide.mat": "52c458189ec6234e",
    "minpoly --json q-derog.mat": "37fb51103b79e9f7",
    "minpoly --json gf7-derog.mat": "fc1fc595b70afe90",
    "minpoly --json gf7-nil.mat": "2d0a38c9f049e980",
    "minpoly --json zero.mat": "2d10d84d23f217bd",
    "minpoly --json bad.mat": "58b41eb514663bc4",
    "minpoly --json wide.mat": "52c458189ec6234e",
    "minpoly --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "minpoly --field=gf:5 gf7-derog.mat": "1e009d1950aa4c70",
    "minpoly --field=gf:5 gf7-nil.mat": "08c4f6b055c4939c",
    "minpoly --field=gf:5 zero.mat": "1b847261e0c56531",
    "minpoly --field=gf:5 bad.mat": "57f33778b13137de",
    "minpoly --field=gf:5 wide.mat": "52c458189ec6234e",
    "minpoly --json --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "minpoly --json --field=gf:5 gf7-derog.mat": "137507e118557367",
    "minpoly --json --field=gf:5 gf7-nil.mat": "8bbaa2103a5b2da5",
    "minpoly --json --field=gf:5 zero.mat": "f291cbd7d0a80b6f",
    "minpoly --json --field=gf:5 bad.mat": "57f33778b13137de",
    "minpoly --json --field=gf:5 wide.mat": "52c458189ec6234e",
    "charpoly q-derog.mat": "c7d26fa2d9b1a34e",
    "charpoly gf7-derog.mat": "1ebe2588fa1677a0",
    "charpoly gf7-nil.mat": "32065f1cc1e1baf1",
    "charpoly zero.mat": "e57e5540407101f3",
    "charpoly bad.mat": "58b41eb514663bc4",
    "charpoly wide.mat": "52c458189ec6234e",
    "charpoly --json q-derog.mat": "c9d3c2d4f554a0ae",
    "charpoly --json gf7-derog.mat": "5f34ac73cde9f622",
    "charpoly --json gf7-nil.mat": "54bcf4c55ff12e9b",
    "charpoly --json zero.mat": "410326fc635eaf8b",
    "charpoly --json bad.mat": "58b41eb514663bc4",
    "charpoly --json wide.mat": "52c458189ec6234e",
    "charpoly --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "charpoly --field=gf:5 gf7-derog.mat": "3fb23cb6c11a37c5",
    "charpoly --field=gf:5 gf7-nil.mat": "2266a3c6df2b4aee",
    "charpoly --field=gf:5 zero.mat": "e57e5540407101f3",
    "charpoly --field=gf:5 bad.mat": "57f33778b13137de",
    "charpoly --field=gf:5 wide.mat": "52c458189ec6234e",
    "charpoly --json --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "charpoly --json --field=gf:5 gf7-derog.mat": "5ac390b23a55d54b",
    "charpoly --json --field=gf:5 gf7-nil.mat": "37d03e0ad7cc9982",
    "charpoly --json --field=gf:5 zero.mat": "f013086e72122bf7",
    "charpoly --json --field=gf:5 bad.mat": "57f33778b13137de",
    "charpoly --json --field=gf:5 wide.mat": "52c458189ec6234e",
    "similar q-derog.mat q-derog-conj.mat": "7f87e29847277c15",
    "similar q-derog.mat q-diag.mat": "bbd4e17b1ed2fe72",
    "similar q-derog.mat gf7-derog.mat": "1fdb133fc9d021df",
    "similar gf7-nil.mat missing.mat": "a33f7f51e708531e",
    "similar --json q-derog.mat q-derog-conj.mat": "cc596e77b88f9928",
    "similar --json q-derog.mat q-diag.mat": "66ea34dc198a1fd9",
    "similar --json q-derog.mat gf7-derog.mat": "1fdb133fc9d021df",
    "similar --json gf7-nil.mat missing.mat": "a33f7f51e708531e",
    "similar --show-transform q-derog.mat q-derog-conj.mat": "d89b3f5a90124c74",
    "similar --show-transform q-derog.mat q-diag.mat": "bbd4e17b1ed2fe72",
    "similar --show-transform q-derog.mat gf7-derog.mat": "1fdb133fc9d021df",
    "similar --show-transform gf7-nil.mat missing.mat": "a33f7f51e708531e",
    "similar --field=gf:5 q-derog.mat q-derog-conj.mat": "0dc652d2f292aed1",
    "similar --field=gf:5 q-derog.mat q-diag.mat": "0dc652d2f292aed1",
    "similar --field=gf:5 q-derog.mat gf7-derog.mat": "0dc652d2f292aed1",
    "similar --field=gf:5 gf7-nil.mat missing.mat": "a33f7f51e708531e",
    "similar --json --show-transform q-derog.mat q-derog-conj.mat": "68d777d4c3662f5e",
    "similar --json --show-transform q-derog.mat q-diag.mat": "66ea34dc198a1fd9",
    "similar --json --show-transform q-derog.mat gf7-derog.mat": "1fdb133fc9d021df",
    "similar --json --show-transform gf7-nil.mat missing.mat": "a33f7f51e708531e",
    "similar --json --field=gf:5 q-derog.mat q-derog-conj.mat": "0dc652d2f292aed1",
    "similar --json --field=gf:5 q-derog.mat q-diag.mat": "0dc652d2f292aed1",
    "similar --json --field=gf:5 q-derog.mat gf7-derog.mat": "0dc652d2f292aed1",
    "similar --json --field=gf:5 gf7-nil.mat missing.mat": "a33f7f51e708531e",
    "similar --show-transform --field=gf:5 q-derog.mat q-derog-conj.mat": "0dc652d2f292aed1",
    "similar --show-transform --field=gf:5 q-derog.mat q-diag.mat": "0dc652d2f292aed1",
    "similar --show-transform --field=gf:5 q-derog.mat gf7-derog.mat": "0dc652d2f292aed1",
    "similar --show-transform --field=gf:5 gf7-nil.mat missing.mat": "a33f7f51e708531e",
    "similar --json --show-transform --field=gf:5 q-derog.mat q-derog-conj.mat": "0dc652d2f292aed1",
    "similar --json --show-transform --field=gf:5 q-derog.mat q-diag.mat": "0dc652d2f292aed1",
    "similar --json --show-transform --field=gf:5 q-derog.mat gf7-derog.mat": "0dc652d2f292aed1",
    "similar --json --show-transform --field=gf:5 gf7-nil.mat missing.mat": "a33f7f51e708531e",
    "jnf-nilpotent q-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent gf7-nil.mat": "da41996accee1ce8",
    "jnf-nilpotent zero.mat": "e8dfafe1031d05cb",
    "jnf-nilpotent bad.mat": "58b41eb514663bc4",
    "jnf-nilpotent wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --json q-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json gf7-nil.mat": "78793e2c8f9ae3d8",
    "jnf-nilpotent --json zero.mat": "667c46a0b123036d",
    "jnf-nilpotent --json bad.mat": "58b41eb514663bc4",
    "jnf-nilpotent --json wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --check q-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --check gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --check gf7-nil.mat": "da41996accee1ce8",
    "jnf-nilpotent --check zero.mat": "e8dfafe1031d05cb",
    "jnf-nilpotent --check bad.mat": "58b41eb514663bc4",
    "jnf-nilpotent --check wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --show-transform q-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --show-transform gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --show-transform gf7-nil.mat": "8e25f3535d4e5532",
    "jnf-nilpotent --show-transform zero.mat": "cf7d883ba83d00e4",
    "jnf-nilpotent --show-transform bad.mat": "58b41eb514663bc4",
    "jnf-nilpotent --show-transform wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "jnf-nilpotent --field=gf:5 gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --field=gf:5 gf7-nil.mat": "c66ca2693e976933",
    "jnf-nilpotent --field=gf:5 zero.mat": "450a8cfb20e62228",
    "jnf-nilpotent --field=gf:5 bad.mat": "57f33778b13137de",
    "jnf-nilpotent --field=gf:5 wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --json --check q-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --check gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --check gf7-nil.mat": "78793e2c8f9ae3d8",
    "jnf-nilpotent --json --check zero.mat": "667c46a0b123036d",
    "jnf-nilpotent --json --check bad.mat": "58b41eb514663bc4",
    "jnf-nilpotent --json --check wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --json --show-transform q-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --show-transform gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --show-transform gf7-nil.mat": "d705016ebf2d4fdc",
    "jnf-nilpotent --json --show-transform zero.mat": "e97342ab3b08a0f5",
    "jnf-nilpotent --json --show-transform bad.mat": "58b41eb514663bc4",
    "jnf-nilpotent --json --show-transform wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --json --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "jnf-nilpotent --json --field=gf:5 gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --field=gf:5 gf7-nil.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --field=gf:5 zero.mat": "ca9b0dd094e1782e",
    "jnf-nilpotent --json --field=gf:5 bad.mat": "57f33778b13137de",
    "jnf-nilpotent --json --field=gf:5 wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --check --show-transform q-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --check --show-transform gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --check --show-transform gf7-nil.mat": "8e25f3535d4e5532",
    "jnf-nilpotent --check --show-transform zero.mat": "cf7d883ba83d00e4",
    "jnf-nilpotent --check --show-transform bad.mat": "58b41eb514663bc4",
    "jnf-nilpotent --check --show-transform wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --check --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "jnf-nilpotent --check --field=gf:5 gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --check --field=gf:5 gf7-nil.mat": "c66ca2693e976933",
    "jnf-nilpotent --check --field=gf:5 zero.mat": "450a8cfb20e62228",
    "jnf-nilpotent --check --field=gf:5 bad.mat": "57f33778b13137de",
    "jnf-nilpotent --check --field=gf:5 wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --show-transform --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "jnf-nilpotent --show-transform --field=gf:5 gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --show-transform --field=gf:5 gf7-nil.mat": "c66ca2693e976933",
    "jnf-nilpotent --show-transform --field=gf:5 zero.mat": "810a243006357325",
    "jnf-nilpotent --show-transform --field=gf:5 bad.mat": "57f33778b13137de",
    "jnf-nilpotent --show-transform --field=gf:5 wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --json --check --show-transform q-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --check --show-transform gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --check --show-transform gf7-nil.mat": "d705016ebf2d4fdc",
    "jnf-nilpotent --json --check --show-transform zero.mat": "e97342ab3b08a0f5",
    "jnf-nilpotent --json --check --show-transform bad.mat": "58b41eb514663bc4",
    "jnf-nilpotent --json --check --show-transform wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --json --check --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "jnf-nilpotent --json --check --field=gf:5 gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --check --field=gf:5 gf7-nil.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --check --field=gf:5 zero.mat": "ca9b0dd094e1782e",
    "jnf-nilpotent --json --check --field=gf:5 bad.mat": "57f33778b13137de",
    "jnf-nilpotent --json --check --field=gf:5 wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --json --show-transform --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "jnf-nilpotent --json --show-transform --field=gf:5 gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --show-transform --field=gf:5 gf7-nil.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --show-transform --field=gf:5 zero.mat": "afcd6293fbd69d5c",
    "jnf-nilpotent --json --show-transform --field=gf:5 bad.mat": "57f33778b13137de",
    "jnf-nilpotent --json --show-transform --field=gf:5 wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --check --show-transform --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "jnf-nilpotent --check --show-transform --field=gf:5 gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --check --show-transform --field=gf:5 gf7-nil.mat": "c66ca2693e976933",
    "jnf-nilpotent --check --show-transform --field=gf:5 zero.mat": "810a243006357325",
    "jnf-nilpotent --check --show-transform --field=gf:5 bad.mat": "57f33778b13137de",
    "jnf-nilpotent --check --show-transform --field=gf:5 wide.mat": "52c458189ec6234e",
    "jnf-nilpotent --json --check --show-transform --field=gf:5 q-derog.mat": "0dc652d2f292aed1",
    "jnf-nilpotent --json --check --show-transform --field=gf:5 gf7-derog.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --check --show-transform --field=gf:5 gf7-nil.mat": "c66ca2693e976933",
    "jnf-nilpotent --json --check --show-transform --field=gf:5 zero.mat": "afcd6293fbd69d5c",
    "jnf-nilpotent --json --check --show-transform --field=gf:5 bad.mat": "57f33778b13137de",
    "jnf-nilpotent --json --check --show-transform --field=gf:5 wide.mat": "52c458189ec6234e",
}
