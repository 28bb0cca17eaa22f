import pytest

from taxsim import FrequencyTable, Taxonomy, build_model

from helpers import (
    COIN_COUNTS,
    COIN_EDGES,
    COIN_SENSES,
    DRUG_COUNTS,
    DRUG_EDGES,
    DRUG_SENSES,
    TOY_COUNTS,
    TOY_EDGES,
    TOY_SENSES,
    write_toy_files,
)


@pytest.fixture(scope="session")
def toy_taxonomy():
    return Taxonomy.build(TOY_EDGES, TOY_SENSES)


@pytest.fixture(scope="session")
def toy_model(toy_taxonomy):
    return build_model(toy_taxonomy, FrequencyTable.from_counts(TOY_COUNTS))


@pytest.fixture(scope="session")
def coin_taxonomy():
    return Taxonomy.build(COIN_EDGES, COIN_SENSES)


@pytest.fixture(scope="session")
def coin_model(coin_taxonomy):
    return build_model(coin_taxonomy, FrequencyTable.from_counts(COIN_COUNTS))


@pytest.fixture(scope="session")
def drug_taxonomy():
    return Taxonomy.build(DRUG_EDGES, DRUG_SENSES)


@pytest.fixture(scope="session")
def drug_model(drug_taxonomy):
    return build_model(drug_taxonomy, FrequencyTable.from_counts(DRUG_COUNTS))


@pytest.fixture
def toy_files(tmp_path):
    """Toy taxonomy/lexicon/counts/benchmark written as input files."""
    return write_toy_files(tmp_path)
