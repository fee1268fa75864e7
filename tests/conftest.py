import pytest

from shotgfmc import shots


@pytest.fixture
def row_chunks(monkeypatch):
    """The (lo, hi) row span of every chunk the CSV writers build."""
    chunks = []
    build = shots._row_matrix

    def counted(cells, lo, hi):
        chunks.append((lo, hi))
        return build(cells, lo, hi)

    monkeypatch.setattr(shots, "_row_matrix", counted)
    return chunks
