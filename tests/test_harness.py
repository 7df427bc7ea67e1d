"""Corpus verification end to end.

Claims checked:
  * verify_corpus checks every strongly connected digraph on up to
    three vertices and the standard families, with no failure, and a
    pool of two worker processes gives the same counts as one process
  * the verify command exits 0 on the same corpus
"""

from dgexcess.cli import main
from dgexcess.harness import standard_families, verify_corpus


def test_verify_corpus_serial_and_pooled_agree():
    expected = [1, 18, len(standard_families())]
    for jobs in (1, 2):
        results = verify_corpus(max_n=3, jobs=jobs)
        assert [suite.checked for suite in results] == expected, jobs
        assert [suite.failures for suite in results] == [[], [], []], jobs


def test_verify_command_passes(capsys):
    assert main(["verify", "--max-n", "3"]) == 0
    assert "0 failure(s)" in capsys.readouterr().out
