"""Every CSV of the byte-identity matrix keeps the digest committed in tools/csv_matrix.sha256."""

import pytest

from conftest import ROOT, load_tool


def test_every_output_keeps_its_committed_digest(tmp_path, capsys):
    matrix = load_tool("csv_matrix")
    listing = ROOT / "tools" / "csv_matrix.sha256"
    header = [line for line in listing.read_text().splitlines() if line.startswith("#")]
    if header != matrix.environment():
        pytest.skip(f"the digests were recorded under {header}; this environment is {matrix.environment()}")
    code = matrix.main([str(tmp_path / "out"), "--check", str(listing)])
    assert code == 0, capsys.readouterr().out
