"""CI's guard manifest (``.github/guards.txt``) keeps pytest's unknown-id
failure: it never names one test file both whole and by node id, since
``pytest f.py f.py::no_such_test`` exits 0."""

from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[1] / ".github" / "guards.txt"


def test_no_file_is_named_whole_and_by_node_id():
    lines = [line.strip() for line in MANIFEST.read_text().splitlines()]
    named = [line for line in lines if line and not line.startswith("#")]
    whole = {line for line in named if "::" not in line}
    both = sorted({line.split("::")[0] for line in named if "::" in line} & whole)
    assert both == [], f"named whole and by node id, so an unknown id there passes: {both}"
