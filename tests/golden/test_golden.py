"""The golden behaviour corpus: recomputed slices and the regeneration tooling.

``corpus.json`` pins what stored cells rest on (see ``regenerate.py``).  The
fast slice is recomputed here in a fresh interpreter, so the manifest
coverage check sees only the modules the corpus itself imported; the LP
``online-offline`` sweeps are the ``tier2`` slice.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import List

import pytest

import regenerate


def _check(slice_name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(regenerate.__file__), "--check", "--slice", slice_name],
        capture_output=True,
        text=True,
    )


def _problems(completed: subprocess.CompletedProcess, *starts: str) -> List[str]:
    return [line for line in completed.stdout.splitlines() if line.startswith(starts)]


@pytest.fixture(scope="module")
def fast_check():
    """One fresh-interpreter ``--check`` of the fast slice, shared below."""
    return _check("fast")


def test_fast_check_passes(fast_check):
    assert fast_check.returncode == 0, fast_check.stdout + fast_check.stderr


@pytest.mark.parametrize("prefix", sorted(regenerate.SLICES["fast"]))
def test_fast_slice_matches_the_corpus(fast_check, prefix):
    # One test per producer, so a failure names the area that moved.
    producer = regenerate.SLICES["fast"][prefix].__name__
    assert _problems(fast_check, prefix, f"{producer} raised") == []


def test_fast_slice_imports_every_manifest_module_and_pins_every_policy(fast_check):
    assert _problems(fast_check, "manifest module", "registered policy") == []


@pytest.mark.tier2
def test_slow_slice_matches_the_corpus():
    completed = _check("slow")
    assert completed.returncode == 0, completed.stdout + completed.stderr


def test_check_names_each_differing_key_with_old_and_new_value():
    old = {"simulate/srpt/hotspot/0": "aa", "optimum/divisible/hotspot/0": "1.5", "gone": "x"}
    new = {"simulate/srpt/hotspot/0": "bb", "optimum/divisible/hotspot/0": "1.5", "added": "y"}
    assert regenerate.differences(old, new) == [
        "added: <absent> -> y",
        "gone: x -> <absent>",
        "simulate/srpt/hotspot/0: aa -> bb",
    ]


FAST_KEY = "simulate/fifo/hotspot/0"
SLOW_KEY = "simulate/online-offline/hotspot/0"


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """``regenerate`` over a temporary corpus and one cheap producer per slice.

    The returned dict holds the values the producers emit; ``"fail"`` makes
    the fast producer raise.
    """
    values = {FAST_KEY: "aa", SLOW_KEY: "bb", "fail": False}

    def fast():
        if values["fail"]:
            raise RuntimeError("boom")
        return {FAST_KEY: values[FAST_KEY]}

    def slow():
        return {SLOW_KEY: values[SLOW_KEY]}

    slices = {"fast": {"simulate/": fast}, "slow": {"simulate/": slow}}
    monkeypatch.setattr(regenerate, "SLICES", slices)
    monkeypatch.setattr(regenerate, "CORPUS", tmp_path / "corpus.json")
    monkeypatch.setattr(regenerate, "coverage_problems", lambda *args: [])
    assert regenerate.main([]) == 0
    return values


def test_plain_run_writes_a_stamped_corpus_the_check_accepts(toy, capsys):
    assert regenerate.load() == {
        "code_epoch": regenerate.CODE_EPOCH,
        "entries": {FAST_KEY: "aa", SLOW_KEY: "bb"},
    }
    assert regenerate.main(["--check"]) == 0
    assert "golden corpus matches (fast, slow slice)" in capsys.readouterr().out


def test_check_prints_each_differing_key_and_fails(toy, capsys):
    toy[FAST_KEY] = "cc"
    assert regenerate.main(["--check", "--slice", "slow"]) == 0
    assert regenerate.main(["--check", "--slice", "fast"]) == 1
    out = capsys.readouterr().out
    assert f"{FAST_KEY}: aa -> cc" in out
    assert "1 problem(s): bump CODE_EPOCH and regenerate" in out


def test_check_reports_a_raising_producer_and_still_compares_the_rest(toy, capsys):
    toy["fail"], toy[SLOW_KEY] = True, "dd"
    assert regenerate.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "fast raised RuntimeError: boom" in out
    assert f"{SLOW_KEY}: bb -> dd" in out
    assert FAST_KEY not in out  # its producer failed: no spurious "<absent>"
    assert regenerate.main([]) == 1  # and nothing is written
    assert regenerate.load()["entries"][SLOW_KEY] == "bb"


def test_plain_run_refuses_changed_entries_until_the_epoch_is_bumped(toy, capsys, monkeypatch):
    toy[FAST_KEY] = "cc"
    assert regenerate.main([]) == 1
    assert "bump it first" in capsys.readouterr().out
    assert regenerate.load()["entries"][FAST_KEY] == "aa"
    monkeypatch.setattr(regenerate, "CODE_EPOCH", "bumped")
    assert regenerate.main(["--check"]) == 1
    assert f"corpus stamped {regenerate.load()['code_epoch']!r}" in capsys.readouterr().out
    assert regenerate.main([]) == 0
    assert regenerate.load() == {
        "code_epoch": "bumped",
        "entries": {FAST_KEY: "cc", SLOW_KEY: "bb"},
    }


def test_plain_run_adds_new_entries_under_the_same_epoch(toy):
    corpus = regenerate.load()
    del corpus["entries"][SLOW_KEY]
    regenerate.CORPUS.write_text(json.dumps(corpus))
    assert regenerate.main([]) == 0
    assert regenerate.load()["entries"][SLOW_KEY] == "bb"


def test_check_fails_without_a_corpus(toy, capsys):
    regenerate.CORPUS.unlink()
    assert regenerate.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "corpus stamped None" in out
    assert f"{FAST_KEY}: <absent> -> aa" in out


def test_plain_run_drops_entries_no_producer_emits(toy, monkeypatch):
    monkeypatch.setitem(regenerate.SLICES["slow"], "simulate/", lambda: {})
    assert regenerate.main([]) == 0
    assert regenerate.load()["entries"] == {FAST_KEY: "aa"}
    assert regenerate.main(["--check"]) == 0


def test_plain_run_with_coverage_problems_writes_nothing(toy, capsys, monkeypatch):
    problem = "registered policy 'spt' has no simulate entry"
    monkeypatch.setattr(regenerate, "coverage_problems", lambda *args: [problem])
    monkeypatch.setattr(regenerate, "CODE_EPOCH", "bumped")
    toy[FAST_KEY] = "cc"
    assert regenerate.main([]) == 1
    out = capsys.readouterr().out
    assert problem in out and "not written" in out
    assert regenerate.load()["code_epoch"] != "bumped"
    assert regenerate.load()["entries"][FAST_KEY] == "aa"


def test_slice_applies_only_to_check(toy):
    with pytest.raises(SystemExit):
        regenerate.main(["--slice", "fast"])


def test_coverage_names_unimported_modules_and_unpinned_policies():
    modules = regenerate.semantic_modules(regenerate.ROOT)
    entries = {"simulate/fifo/hotspot/0": "aa", "simulate/srpt:x=1/hotspot/0": "bb"}
    problems = regenerate.coverage_problems(
        entries, set(modules) - {"repro.lp.scipy_backend"}, ["fifo", "srpt", "spt"]
    )
    assert problems == [
        "manifest module repro.lp.scipy_backend was never imported while computing the corpus",
        "registered policy 'spt' has no simulate entry",
    ]


def test_slices_partition_the_corpus_by_cost():
    assert regenerate.slice_of("simulate/online-offline:period=0.5/hotspot/0") == "slow"
    assert regenerate.slice_of("simulate/deadline-driven:lp_targets=true/hotspot/0") == "fast"
    assert regenerate.slice_of("replanning/unrelated-0") == "fast"
