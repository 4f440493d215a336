"""The exact output bytes of the reading commands on both bundled corpora.

Each corpus is fed on stdin, so record ids are `<stdin>:<line>` and do
not depend on where the package is installed. A change to any byte of
any record, to the record order or to the exit status fails here.
"""

from __future__ import annotations

import hashlib
import io
import sys
from importlib.resources import files

import pytest

from girthlab import corpus
from girthlab.cli import main

# (argv, corpus, exit status, sha256 of stdout)
GOLDEN = [
    ("analyze --format json-array", corpus.CUBIC_LE14, 0,
     "72705b92f2a7cefbb56fd0e80c2905765cb6fc3e28eb91b99617c091894f8243"),
    ("analyze --format json-array", corpus.GIRTHREG_EXT, 0,
     "4b46e0e8c4f5b4442f089407a8740c0be46bcfea46b104a08a7fdb1412e63d62"),
    ("verify --format json", corpus.CUBIC_LE14, 0,
     "05aefb3d3999d1a6bf0674793e396978ac68212ab56240a690bfecc3a6f251f1"),
    ("verify --format json", corpus.GIRTHREG_EXT, 0,
     "ad3fdbf2ab7605469e2af9bb33c6010ca8bebf8e5716d5bb31b4434c5b11011f"),
    ("verify", corpus.CUBIC_LE14, 0,
     "e60815a73924b00908c38c07d6e9f656a0a928e0eddf69e5f692ab3605e890f4"),
    ("verify", corpus.GIRTHREG_EXT, 0,
     "1dd15cce945aefbd05a70102dbde7a1b101b574d2c8f1bcc05c9b6d3bbb6861f"),
    ("census --format json", corpus.CUBIC_LE14, 0,
     "41ca6071a074acabe6669c3691e7e3f2684939acb330b9d2f3ac5898d30bce3f"),
    ("census --format json", corpus.GIRTHREG_EXT, 0,
     "23715f36c6c1d1374107958603ab44dfc2ddd805fd91898e8eb4355619219de7"),
    ("census", corpus.CUBIC_LE14, 0,
     "be56f753aa4b920c56f893c12990304ad8fa700edb4e96f5d66183abcb1429f0"),
    ("census", corpus.GIRTHREG_EXT, 0,
     "ce9ed56e4f04a2428cbcae4bcedd568bfc6751674210ab42782d840e5a8c8bfb"),
    # most corpus graphs are not in the requested case: error records, exit 1
    ("decompose --mode 011 --format json", corpus.CUBIC_LE14, 1,
     "5b09e76ab2c637d604692964df7ca347f4372d33fad622fba25a48ed90934d74"),
    ("decompose --mode 011 --format json", corpus.GIRTHREG_EXT, 1,
     "3e18b01fdf5391491bf0d34840d618a2bdc05a1f1624e564fbf83b6d03cce477"),
    ("decompose --mode 112", corpus.CUBIC_LE14, 1,
     "e201a58650ec5fc7387a66eaecff49552fdbcad58c11f8a590bbb82371efe1ea"),
    ("decompose --mode 112", corpus.GIRTHREG_EXT, 1,
     "02f8cbdb6fb99353d2518dd878033e6038a4420842c03294f3e703e3ce2894d9"),
    ("decompose --mode 222 --format json-array", corpus.CUBIC_LE14, 1,
     "ebee61441ead927d0baa911dece60078c5f5e552bb73f31b691bd10cfaa6c25c"),
    ("decompose --mode 222 --format json-array", corpus.GIRTHREG_EXT, 1,
     "279cd747317817e740c4e5c4656abcc018a67046d94e1d3b12000e872bb87eff"),
]


@pytest.mark.parametrize("argv, name, status, digest", GOLDEN)
def test_output_bytes(monkeypatch, capsys, argv, name, status, digest):
    text = files("girthlab.data").joinpath(name).read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the formats and commands the list above leaves out: the text records of
# analyze and of the 011 and 222 decompositions, the faces of every (1,1,2)
# map as JSON, and the graph6 truncation of each corpus graph
READING = [
    ("analyze", corpus.CUBIC_LE14, 0,
     "30dee605d2b037f8e52c9b0469cd432c9ec9b0b9bdf56cfdecf1b7698c5805e3"),
    ("analyze", corpus.GIRTHREG_EXT, 0,
     "ba9b9a51951a8278f64adec37d1178d93c880370f701c11eda9679ed51c00b5d"),
    ("decompose --mode 011", corpus.CUBIC_LE14, 1,
     "0a84db3f6b61e1f4cd8274672d19405922c3a6daa4edac2c1f694738d6b77858"),
    ("decompose --mode 011", corpus.GIRTHREG_EXT, 1,
     "35b8457ddb5b9b8c5b32744b34962922a1f25d4c412ce9b95a4ffe1796595506"),
    ("decompose --mode 112 --format json", corpus.CUBIC_LE14, 1,
     "535ebb1bf97ec18e9eefa9401ef4b1e47e14eb06dcdc5f5aa43dabdbcc6281af"),
    ("decompose --mode 112 --format json", corpus.GIRTHREG_EXT, 1,
     "04032dcb8c05fccc27803a1ae68943004436a94f34cbecfd929f7ce3d5dbe38a"),
    ("decompose --mode 222", corpus.CUBIC_LE14, 1,
     "3307c1b4afbb7c1df35d40c9d29985cf83276376583fd2ce023256bb90209561"),
    ("decompose --mode 222", corpus.GIRTHREG_EXT, 1,
     "5cf9e683741454a7fc04fab7fea2307c9f6e5c322075a1bccf01c63c2a9065b0"),
    ("truncate", corpus.CUBIC_LE14, 0,
     "86e375c41756b748d8c98494f5608363b0454ab7cc5ecda3539bb98307367d63"),
    ("truncate", corpus.GIRTHREG_EXT, 0,
     "2ccf33eaf0a2d2ebb0c35abeab75cd8e9c102957270543c7f630c10c030fb684"),
]


@pytest.mark.parametrize("argv, name, status, digest", READING)
def test_reading_command_bytes(monkeypatch, capsys, argv, name, status, digest):
    test_output_bytes(monkeypatch, capsys, argv, name, status, digest)
