"""API.md is the generated reference of the current public surface."""

from pathlib import Path

from tools.generate_api_md import api_text


def test_api_md_is_generated_from_the_current_surface():
    committed = (Path(__file__).resolve().parents[1] / "API.md").read_text()
    assert committed == api_text(), "API.md is stale: run `python tools/generate_api_md.py`"
