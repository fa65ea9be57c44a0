"""The committed golden outputs, rebuilt in-process at one and two workers.

See ``golden_outputs.py`` for what the manifest holds and how to regenerate it.
"""

import copy
import json

import pytest

import golden_outputs
from golden_outputs import MANIFEST, build_outputs, differences


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_match_the_manifest(manifest, monkeypatch, threads):
    monkeypatch.setenv("HAARMOMENTS_THREADS", threads)
    assert differences(manifest, build_outputs()) == []


def test_comparison_catches_a_planted_change(manifest):
    rows = manifest["figures"]["c1-of-t"]["rows"]
    for scale, caught in ((1 + 1e-9, True), (1 + 1e-13, False)):
        planted = copy.deepcopy(manifest)
        for row in planted["figures"]["c1-of-t"]["rows"]:
            row[2] *= scale
        assert bool(differences(manifest, planted)) == caught, scale
    # numbers inside a detail string compare as numbers, the rest exactly
    planted = copy.deepcopy(manifest)
    detail = planted["validate_quick"][0]["detail"]
    number = detail.split()[-1]
    planted["validate_quick"][0]["detail"] = detail.replace(number, repr(float(number) * (1 + 1e-9)))
    assert differences(manifest, planted)
    planted["validate_quick"][0]["detail"] = detail.replace("max", "min")
    assert differences(manifest, planted)
    assert len(rows) == 301


def test_check_mode_lists_differences_and_leaves_the_manifest(manifest, monkeypatch, capsys):
    planted = copy.deepcopy(manifest)
    planted["figures"]["c1-of-t"]["rows"][3][1] *= 1 + 1e-9
    before = MANIFEST.read_bytes()
    for outputs, code in ((manifest, 0), (planted, 1)):
        monkeypatch.setattr(golden_outputs, "build_outputs", lambda outputs=outputs: outputs)
        assert golden_outputs.main(["--check"]) == code
    out = capsys.readouterr().out
    assert "c1-of-t row 3" in out
    assert "numbers that differ in any bit: 0 of" in out  # the manifest against itself
    assert "numbers that differ in any bit: 1 of" in out
    # a move within tolerance passes, and is named with its size and place
    within = copy.deepcopy(manifest)
    within["figures"]["c1-of-t"]["rows"][3][1] *= 1 + 1e-13
    monkeypatch.setattr(golden_outputs, "build_outputs", lambda: within)
    assert golden_outputs.main(["--check"]) == 0
    header = manifest["figures"]["c1-of-t"]["header"]
    out = capsys.readouterr().out
    assert f"1e-13 relative, at c1-of-t row 3 {header[1]}" in out
    assert "numbers that differ in any bit: 1 of" in out
    assert MANIFEST.read_bytes() == before
    assert golden_outputs.main(["--bogus"]) == 2
