"""Golden bytes: the sha256 of whole CLI artifacts, pinned.

Each document runs through ``cli.main`` and its output file is hashed.  The
hashes were taken at 08fd011, before filtration levels and atomic measures
moved to integer tables, so any drift in a value, an ordering or a
rational's formatting fails here.
"""

import hashlib
import json

import pytest

from fanokit.cli import _fixture_path, main

P1 = _fixture_path("p1_example.json")

# explicit, non-identity adapted bases with mixed denominators
DISTANCE = {
    "filtration_a": {"levels": {
        "2": {"dim": 3, "values": ["1/2", "-3", "7/3"],
              "basis": [["1", "2", "0"], ["0", "1/3", "1"], ["-1", "0", "5/2"]]},
        "3": {"dim": 4, "values": ["0", "9/4", "-1", "9/4"],
              "basis": [["2", "0", "0", "1"], ["1", "1", "0", "0"],
                        ["0", "-1/2", "1", "0"], ["0", "0", "3", "1/7"]]},
    }},
    "filtration_b": {"levels": {
        "2": {"dim": 3, "values": ["5/6", "-1", "2"],
              "basis": [["0", "1", "1"], ["1", "0", "-2/5"], ["1", "1", "0"]]},
        "3": {"dim": 4, "values": ["1/3", "1", "-2", "1"],
              "basis": [["1", "0", "1", "0"], ["0", "3/2", "0", "1"],
                        ["1", "0", "0", "-1"], ["0", "1", "1", "1"]]},
    }},
    "p": 3,
}

DEGENERATE = {
    "model": {"num_vars": 2}, "w": ["3", "1"], "degree": 3,
    "filtration": {"levels": {"3": {
        "dim": 4, "values": ["1/2", "-2", "1/2", "4/3"],
        "basis": [["1", "1/2", "0", "0"], ["0", "1", "-1", "0"],
                  ["2/3", "0", "1", "1"], ["0", "0", "0", "5"]]}}},
}

# fractional values and rank-2 weights: atoms whose positions and weights need reducing
DH = {
    "ambient_dim": 2,
    "filtration": {"levels": {
        "2": {"dim": 3, "values": ["3/2", "-1/4", "3/2"],
              "weights": [["1", "-1/3"], ["0", "2"], ["-1", "1/2"]]},
        "4": {"dim": 3, "values": ["6", "-2/3", "2"],
              "weights": [["2", "0"], ["-4/5", "1"], ["0", "-2"]]},
    }},
}


def _artifact_sha256(tmp_path, command, doc_or_path):
    if isinstance(doc_or_path, dict):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_or_path))
        doc_or_path = str(path)
    out = tmp_path / "out.json"
    assert main([command, "--input", doc_or_path, "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, doc, digest", [
    ("dh", P1,
     "7620732b549d07366b111a790387248e9ba2b8eaded591c017a3fa967be2e2b7"),
    ("check", P1,
     "1cb72cddb0ef8ddd6082af28c3792f0bcc9268ad16fd5bbc56e7a7c27545b595"),
    ("distance", DISTANCE,
     "c2ce865bd772887d9498beec788813654afdc4bd67ccc0b25708f264328aadb8"),
    ("degenerate", DEGENERATE,
     "d6905a3353e2b891bd5630d92e21c9f188ea2c7dc7b6decceffe1e487133b54a"),
    ("dh", DH,
     "908b081cb2aed068e0e9c09cdae7be780caf9228237c864efd76a43aaad3fce0"),
], ids=["dh-p1", "check-p1", "distance", "degenerate", "dh-weighted"])
def test_artifact_bytes_pinned(tmp_path, command, doc, digest):
    assert _artifact_sha256(tmp_path, command, doc) == digest
