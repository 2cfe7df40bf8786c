"""Chat-driven versions of the legal and real-estate scenarios."""

import pytest

from repro.chat.session import PalimpChatSession
from repro.core.sources import DirectorySource, register_datasource


@pytest.fixture()
def legal_registered(legal_dir):
    source = DirectorySource(legal_dir, dataset_id="legal-demo")
    register_datasource(source, overwrite=True)
    return source


@pytest.fixture()
def realestate_registered(realestate_dir):
    source = DirectorySource(realestate_dir, dataset_id="realestate-demo")
    register_datasource(source, overwrite=True)
    return source


class TestLegalChat:
    def test_responsive_review_conversation(self, legal_registered):
        session = PalimpChatSession()
        load = session.chat("Load the legal-demo dataset")
        assert load.tool_sequence == ["load_dataset"]
        assert "20 records" in load.text

        build = session.chat(
            "Keep only documents about the Project Harbor merger and "
            "extract the buyer, seller, deal value and effective date"
        )
        assert build.tool_sequence == [
            "filter_dataset", "create_schema", "convert_dataset"
        ]
        schema_call = build.result.trace.tool_calls()[1]
        assert schema_call.arguments["field_names"] == [
            "buyer", "seller", "deal_value", "effective_date"
        ]

        run = session.chat("run the pipeline")
        assert "execute_pipeline" in run.tool_sequence
        assert 4 <= len(session.last_run.records) <= 8
        buyers = {r.get("buyer") for r in session.last_run.records}
        assert "Harbor Holdings LLC" in buyers

    def test_policy_switch_mid_conversation(self, legal_registered):
        session = PalimpChatSession()
        session.chat("Load the legal-demo dataset")
        session.chat(
            "Keep only documents about the Project Harbor merger"
        )
        session.chat("Minimize the cost and run the pipeline")
        first_cost = session.last_run.stats["total_cost_usd"]
        session.chat("Maximize quality and run the pipeline")
        second_cost = session.last_run.stats["total_cost_usd"]
        assert second_cost > first_cost * 10


class TestRealEstateChat:
    def test_waterfront_search_conversation(self, realestate_registered):
        session = PalimpChatSession()
        session.chat("Load the realestate-demo dataset")
        build = session.chat(
            "Keep only the listings about waterfront properties and "
            "extract the address, city and price"
        )
        assert build.tool_sequence == [
            "filter_dataset", "create_schema", "convert_dataset"
        ]
        session.chat("run the pipeline and show the results")
        assert session.last_run is not None
        assert 7 <= len(session.last_run.records) <= 11

    def test_code_export_for_realestate(self, realestate_registered):
        session = PalimpChatSession()
        session.chat("Load the realestate-demo dataset")
        session.chat("Keep only the listings about waterfront properties")
        session.chat("run the pipeline")
        code = session.generated_code()
        assert "pz.Dataset(source='realestate-demo')" in code
        from repro.chat.codegen import exec_program

        namespace = exec_program(code)
        assert len(namespace["records"]) == len(session.last_run.records)
