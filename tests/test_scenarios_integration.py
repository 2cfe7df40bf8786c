"""End-to-end run on user data with no ground truth.

The three demo scenarios' own numbers (E1, E7, E8) are exact rows of
``tests/test_paper_claims.py``.
"""

import repro as pz


class TestCustomDataUpload:
    """Attendees 'can apply PalimpChat to their own datasets' — no oracle."""

    def test_pipeline_on_unregistered_text(self, tmp_path):
        (tmp_path / "note1.txt").write_text(
            "Meeting notes about colorectal cancer grant. "
            "Budget portal at https://grants.example.org/apply."
        )
        (tmp_path / "note2.txt").write_text(
            "Shopping list: apples, pasta, coffee."
        )
        Info = pz.make_schema("Info", "Links", {"url": "The URL mentioned"})
        pipeline = (
            pz.Dataset(source=str(tmp_path))
            .filter("about colorectal cancer")
            .convert(Info)
        )
        records, stats = pz.Execute(pipeline, policy=pz.MaxQuality())
        assert len(records) == 1
        assert records[0].url == "https://grants.example.org/apply"
