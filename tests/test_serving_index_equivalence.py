"""Property-based proof: the FTS5 backend ranks exactly like memory.

ISSUE 9 tentpole acceptance.  For random document sets drawn from the
corpus generator's own synthesized products (plus hand-built edge cases:
diacritics, decimal sizes, untokenisable titles), an identical stream of
operations — interleaved upserts and removes — is applied to both a
memory :class:`~repro.serving.index.CatalogIndex` and an SQLite-backed
:class:`~repro.serving.fts.FtsCatalogIndex`, and after every step an
identical query stream (plain searches, category filters, attribute
filters, varying ``top_k``) must return byte-identical ranked results:
same product ids, same scores, same order.  Facets, point lookups and
statistics must agree too, and shrinking ``top_k`` must be a pure
prefix of the longer ranking on both backends (the pagination
contract).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.attributes import Specification
from repro.model.products import Product
from repro.runtime import SynthesisEngine
from repro.serving import CatalogIndex, FtsCatalogIndex, fts5_available
from repro.text.tokenize import tokenize_title

pytestmark = pytest.mark.skipif(
    not fts5_available(), reason="this SQLite build lacks FTS5"
)


def make_product(pid, category, title, pairs=()):
    return Product(
        product_id=pid,
        category_id=category,
        title=title,
        specification=Specification(list(pairs)),
    )


#: Hand-built adversarial documents: tokenisation edge cases where a
#: naive FTS mapping (raw text + unicode61) would diverge from the
#: shared tokeniser.
EDGE_PRODUCTS = [
    make_product(
        "edge-cafe", "edge.kitchen", "Café crème brûlée maker", [("Brand", "Café")]
    ),
    make_product(
        "edge-decimal", "edge.hdd", 'Drive 3.5" bay 3 5 adapter', [("Size", '3.5"')]
    ),
    make_product("edge-empty", "edge.misc", "", []),
    make_product("edge-punct", "edge.misc", "??? --- !!!", [("Brand", "---")]),
    make_product(
        "edge-dup", "edge.hdd", "drive drive drive 500 gb drive", [("Capacity", "500 GB")]
    ),
]


@pytest.fixture(scope="module")
def product_pool(tiny_harness):
    """Synthesized products from the corpus generator, plus edge cases."""
    engine = SynthesisEngine(
        catalog=tiny_harness.corpus.catalog,
        correspondences=tiny_harness.offline_result.correspondences,
        extractor=tiny_harness.extractor,
        category_classifier=tiny_harness.category_classifier,
        num_shards=4,
    )
    try:
        engine.ingest(tiny_harness.unmatched_offers)
        products = list(engine.products())
    finally:
        engine.close()
    return products + EDGE_PRODUCTS


def result_fingerprint(results):
    return tuple((result.product.product_id, result.score) for result in results)


def pool_queries(pool, seeds, include_unknown):
    """The query stream: title spans of the seed products + a miss."""
    queries = []
    for index in seeds:
        product = pool[index]
        tokens = tokenize_title(product.title)
        if tokens:
            queries.append(" ".join(tokens[:2]))
            queries.append(tokens[len(tokens) // 2])
        queries.append(product.title)
    if include_unknown:
        queries.append("zzzunknownterm")
    return queries or ["drive"]


def pool_filters(pool, seeds):
    """Category and attribute filters drawn from the seed products."""
    categories = {pool[index].category_id for index in seeds}
    categories.add("no.such.category")
    attribute_filters = [{"Brand": "NoSuchBrand"}]
    for index in seeds:
        for pair in list(pool[index].specification)[:1]:
            attribute_filters.append({pair.name: pair.value})
    return sorted(categories), attribute_filters


def assert_backends_agree(memory, fts, queries, categories, attribute_filters):
    """The full equivalence battery for one shared state."""
    assert fts.num_products == memory.num_products
    assert fts.vocabulary_size == memory.vocabulary_size
    assert fts.count_by_category() == memory.count_by_category()
    assert fts.stats() == memory.stats()
    for query in queries:
        full_memory = result_fingerprint(memory.search(query, top_k=10))
        full_fts = result_fingerprint(fts.search(query, top_k=10))
        assert full_fts == full_memory
        for top_k in (1, 3):
            page_memory = result_fingerprint(memory.search(query, top_k=top_k))
            page_fts = result_fingerprint(fts.search(query, top_k=top_k))
            assert page_fts == page_memory
            # Pagination contract: a shorter page is a pure prefix of
            # the longer ranking (deterministic tie-breaks) — on both.
            assert page_memory == full_memory[:top_k]
            assert page_fts == full_fts[:top_k]
        for category in categories:
            assert result_fingerprint(
                fts.search(query, top_k=10, category=category)
            ) == result_fingerprint(memory.search(query, top_k=10, category=category))
        for attributes in attribute_filters:
            assert result_fingerprint(
                fts.search(query, top_k=10, attributes=attributes)
            ) == result_fingerprint(
                memory.search(query, top_k=10, attributes=attributes)
            )


@st.composite
def scenario(draw, pool_size):
    """An initial document set, an op stream, and query seeds."""
    initial = draw(
        st.lists(st.integers(0, pool_size - 1), max_size=12, unique=True)
    )
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["upsert", "remove"]),
                st.integers(0, pool_size - 1),
            ),
            max_size=8,
        )
    )
    seeds = draw(
        st.lists(st.integers(0, pool_size - 1), min_size=1, max_size=3, unique=True)
    )
    include_unknown = draw(st.booleans())
    return initial, operations, seeds, include_unknown


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_fts_backend_is_byte_identical_to_memory(product_pool, data):
    pool = product_pool
    initial, operations, seeds, include_unknown = data.draw(scenario(len(pool)))
    queries = pool_queries(pool, seeds, include_unknown)
    categories, attribute_filters = pool_filters(pool, seeds)

    memory = CatalogIndex(pool[index] for index in initial)
    fts = FtsCatalogIndex(products=(pool[index] for index in initial))
    try:
        assert_backends_agree(memory, fts, queries, categories, attribute_filters)
        for action, index in operations:
            product = pool[index]
            if action == "upsert":
                memory.upsert(product)
                fts.upsert(product)
            else:
                # Both backends must agree on whether the id was present.
                assert fts.remove(product.product_id) == memory.remove(
                    product.product_id
                )
            assert_backends_agree(
                memory, fts, queries, categories, attribute_filters
            )
        # Point lookups agree for present and absent ids alike.
        for index in seeds:
            pid = pool[index].product_id
            memory_hit = memory.get_product(pid)
            fts_hit = fts.get_product(pid)
            assert (memory_hit is None) == (fts_hit is None)
            if memory_hit is not None:
                assert fts_hit.product_id == memory_hit.product_id
                assert fts_hit.title == memory_hit.title
        assert fts.get_product("no-such-id") is None
    finally:
        fts.close()


def test_rebuild_matches_incremental_builds_across_backends(product_pool):
    """A rebuilt FTS index equals an incrementally grown one — and memory."""
    pool = product_pool[: min(20, len(product_pool))]
    grown = FtsCatalogIndex()
    rebuilt = FtsCatalogIndex()
    memory = CatalogIndex(pool)
    try:
        for product in pool:
            grown.upsert(product)
        rebuilt.rebuild(pool)
        queries = pool_queries(pool, range(min(4, len(pool))), True)
        for query in queries:
            expected = result_fingerprint(memory.search(query, top_k=10))
            assert result_fingerprint(grown.search(query, top_k=10)) == expected
            assert result_fingerprint(rebuilt.search(query, top_k=10)) == expected
        assert grown.stats() == rebuilt.stats() == memory.stats()
    finally:
        grown.close()
        rebuilt.close()


@pytest.mark.parametrize("backend", [CatalogIndex, FtsCatalogIndex])
def test_top_k_cuts_through_a_run_of_equal_scores(backend):
    """More hits tie on score than ``top_k`` keeps: the cut takes the
    smallest product ids, and every ``top_k`` is a prefix of the full
    ranking, on both backends."""
    twins = [make_product(f"tie-{n:02d}", "c", "quantum drive") for n in (7, 3, 11, 0, 9, 5)]
    weaker = [
        make_product("a-weak", "c", "quantum drive with a long extra title"),
        make_product("b-weak", "c", "quantum"),
    ]
    index = backend(products=twins + weaker)
    memory = CatalogIndex(twins + weaker)
    try:
        ranking = index.search("quantum drive", top_k=50)
        assert len(ranking) == 8
        assert ranking == sorted(ranking, key=lambda r: (-r.score, r.product.product_id))
        tied = [r.product.product_id for r in ranking if r.score == ranking[0].score]
        assert tied == sorted(twin.product_id for twin in twins)
        for top_k in range(1, 9):
            results = index.search("quantum drive", top_k=top_k)
            assert results == ranking[:top_k]
            assert result_fingerprint(results) == result_fingerprint(
                memory.search("quantum drive", top_k=top_k)
            )
        # k = 3 lands inside the tie run: the smallest tied ids win.
        cut = index.search("quantum drive", top_k=3)
        assert [r.product.product_id for r in cut] == ["tie-00", "tie-03", "tie-05"]
    finally:
        if backend is FtsCatalogIndex:
            index.close()
