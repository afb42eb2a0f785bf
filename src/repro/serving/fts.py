"""SQLite FTS5 backend for the serving-side catalog index.

:class:`FtsCatalogIndex` keeps the product corpus — documents, posting
lists, attribute pairs and the FTS5 ``product_search`` virtual table —
in an SQLite database instead of Python dicts, so a million-product
index lives on disk (or in SQLite's own memory space) rather than in
interpreter RAM.  It exposes exactly the :class:`~repro.serving.index.CatalogIndex`
surface (``search`` / ``get_product`` / ``count_by_category`` /
``upsert`` / ``remove`` / ``apply_commit`` / ``rebuild`` / ``stats``)
and is selectable end to end via ``runtime-serve --index-backend fts``.

Ranking parity
--------------
The contract is *bit-identical* rankings against the in-memory index:
same scores, same top-k ids, same product-id tie-breaks.  Three design
points make that provable rather than approximate:

* **Shared statistics.**  The corpus DF table is the same
  :class:`repro.text.tfidf.IncrementalTfIdf` object the in-memory index
  uses (vocabulary-sized, so it stays cheap); query vectors come from
  the very same ``transform`` call.  Only the per-product state —
  documents, postings, facet rows — moves to SQLite.
* **Token-stream FTS body.**  The FTS row is the *tokeniser's output*
  (``" ".join(tokens)``), not the raw text.  FTS5's ``unicode61``
  tokeniser disagrees with :func:`repro.text.tokenize.tokenize` on
  inputs like ``café`` (``cafe`` vs ``caf``); indexing the token stream
  makes FTS candidate retrieval a provable superset of the exact
  matching set, whatever the raw text looked like.
* **Exact rescoring.**  FTS5's bm25 is not TF-IDF cosine, so MATCH only
  *retrieves* candidates; scores are recomputed from the stored term
  frequencies with the same expressions, in the same accumulation order
  (query-token order for scores, first-occurrence order for document
  norms), as the in-memory index.  False-positive candidates (an FTS
  phrase like ``"3 5"`` for the decimal token ``3.5``) contribute no
  exact posting row and drop out with no score.

The hypothesis suite in ``tests/test_serving_index_equivalence.py``
drives both backends with identical query streams and asserts identical
ranked ``(id, score)`` fingerprints.

The index is a rebuildable cache, never the durable catalog (that is
the store file): the schema is dropped and recreated at construction,
``synchronous=OFF`` and a memory journal are safe, and a crash simply
means the service rebuilds on restart.
"""

from __future__ import annotations

import json
import math
import sqlite3
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.model.persistence import product_from_dict, product_to_dict
from repro.model.products import Product
from repro.runtime.engine import CommitEvent
from repro.serving.index import CatalogIndex, SearchResult, _product_text, top_ranked
from repro.synthesis.pipeline import stable_product_id
from repro.text.normalize import normalize_attribute_name, normalize_value
from repro.text.tfidf import IncrementalTfIdf
from repro.text.tokenize import tokenize_title, tokenize_value

__all__ = ["FtsCatalogIndex", "create_catalog_index", "fts5_available"]

#: SQLite's default host-parameter limit is 999; stay safely below it
#: when expanding ``IN (...)`` lists.
_IN_CHUNK = 500

_INDEX_SCHEMA = """
DROP TABLE IF EXISTS product_search;
DROP TABLE IF EXISTS doc_tokens;
DROP TABLE IF EXISTS attribute_pairs;
DROP TABLE IF EXISTS listing;
CREATE TABLE listing (
    id INTEGER PRIMARY KEY,
    product_id TEXT NOT NULL UNIQUE,
    category_id TEXT NOT NULL,
    product TEXT NOT NULL,
    text TEXT NOT NULL,
    num_tokens INTEGER NOT NULL
);
CREATE TABLE doc_tokens (
    product_id TEXT NOT NULL,
    ordinal INTEGER NOT NULL,
    token TEXT NOT NULL,
    tf REAL NOT NULL,
    PRIMARY KEY (product_id, ordinal)
) WITHOUT ROWID;
CREATE INDEX doc_tokens_by_token ON doc_tokens (token);
CREATE TABLE attribute_pairs (
    product_id TEXT NOT NULL,
    name TEXT NOT NULL,
    value TEXT NOT NULL,
    PRIMARY KEY (product_id, name, value)
) WITHOUT ROWID;
CREATE VIRTUAL TABLE product_search USING fts5(body, product_id UNINDEXED);
"""


def fts5_available() -> bool:
    """Whether this interpreter's SQLite build ships the FTS5 module."""
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE VIRTUAL TABLE _probe USING fts5(body)")
        return True
    except sqlite3.OperationalError:
        return False
    finally:
        connection.close()


def create_catalog_index(backend: str = "memory", path: Optional[str] = None):
    """Build a catalog index of the requested backend.

    ``"memory"`` is the in-Python :class:`CatalogIndex`; ``"fts"`` the
    SQLite-backed :class:`FtsCatalogIndex` (``path=None`` keeps it in
    SQLite's ``:memory:`` database).  The single construction point the
    service, fleet and CLI all route through.
    """
    if backend == "memory":
        return CatalogIndex()
    if backend == "fts":
        return FtsCatalogIndex(path=path)
    raise ValueError(
        f"unknown index backend {backend!r}; expected one of ['memory', 'fts']"
    )


def _chunked(values: Sequence[str]) -> Iterator[Sequence[str]]:
    for start in range(0, len(values), _IN_CHUNK):
        yield values[start : start + _IN_CHUNK]


class FtsCatalogIndex:
    """Disk-backed catalog index over SQLite FTS5, ranking-parity exact.

    Drop-in for :class:`CatalogIndex`: the serving layer treats the two
    interchangeably (``backend_name`` tells them apart in stats).  Not
    thread-safe by itself — like the in-memory index, the owning
    :class:`~repro.serving.service.CatalogSearchService` serialises
    queries against updates under its lock.
    """

    backend_name = "fts"

    def __init__(
        self, path: Optional[str] = None, products: Iterable[Product] = ()
    ) -> None:
        self._path = path or ":memory:"
        # check_same_thread=False: the service lock serialises access but
        # calls arrive from HTTP worker threads.  isolation_level=None
        # gives explicit BEGIN/COMMIT control for batched maintenance.
        self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
            self._path, check_same_thread=False, isolation_level=None
        )
        # A rebuildable cache: durability is the store file's job.
        self._connection.execute("PRAGMA synchronous=OFF")
        self._connection.execute("PRAGMA journal_mode=MEMORY")
        self._connection.executescript(_INDEX_SCHEMA)
        self._stats = IncrementalTfIdf()
        self._num_products = 0
        self._in_txn = False
        #: product_id -> cached document vector norm; IDF values drift
        #: with every corpus change, so any mutation clears the cache.
        self._norm_cache: Dict[str, float] = {}
        if products:
            self.rebuild(products)

    # -- lifecycle -------------------------------------------------------------

    def _require_open(self) -> sqlite3.Connection:
        if self._connection is None:
            raise RuntimeError("FTS catalog index is closed")
        return self._connection

    def close(self) -> None:
        """Release the SQLite connection (idempotent)."""
        if self._connection is None:
            return
        self._connection.close()
        self._connection = None

    def __enter__(self) -> "FtsCatalogIndex":
        return self

    def __exit__(self, exc_type: object, exc: object, traceback: object) -> None:
        self.close()

    # -- maintenance -----------------------------------------------------------

    def _begin(self) -> bool:
        """Open a transaction unless one is already running; True if opened."""
        if self._in_txn:
            return False
        self._require_open().execute("BEGIN")
        self._in_txn = True
        return True

    def _end(self, opened: bool, ok: bool) -> None:
        if not opened:
            return
        self._require_open().execute("COMMIT" if ok else "ROLLBACK")
        self._in_txn = False

    def upsert(self, product: Product) -> None:
        """Index a product, replacing any previous document with its id.

        Mirrors :meth:`CatalogIndex.upsert` operation for operation —
        including the remove-before-add that keeps the shared DF
        statistics exact under replacement.
        """
        connection = self._require_open()
        opened = self._begin()
        ok = False
        try:
            self._remove_locked(product.product_id)
            text = _product_text(product)
            tokens = tokenize_title(product.title)
            for pair in product.specification:
                tokens.extend(tokenize_value(pair.value))
            cursor = connection.execute(
                "INSERT INTO listing (product_id, category_id, product, text, num_tokens)"
                " VALUES (?, ?, ?, ?, ?)",
                (
                    product.product_id,
                    product.category_id,
                    json.dumps(product_to_dict(product)),
                    text,
                    len(tokens),
                ),
            )
            if tokens:
                self._stats.add(text)
                counts: Dict[str, int] = {}
                for token in tokens:
                    counts[token] = counts.get(token, 0) + 1
                connection.executemany(
                    "INSERT INTO doc_tokens (product_id, ordinal, token, tf)"
                    " VALUES (?, ?, ?, ?)",
                    [
                        (product.product_id, ordinal, token, count / len(tokens))
                        for ordinal, (token, count) in enumerate(counts.items())
                    ],
                )
                connection.execute(
                    "INSERT INTO product_search (rowid, body, product_id)"
                    " VALUES (?, ?, ?)",
                    (cursor.lastrowid, " ".join(tokens), product.product_id),
                )
            pairs = {
                (pair.normalized_name(), pair.normalized_value())
                for pair in product.specification
            }
            if pairs:
                connection.executemany(
                    "INSERT OR IGNORE INTO attribute_pairs (product_id, name, value)"
                    " VALUES (?, ?, ?)",
                    [(product.product_id, name, value) for name, value in sorted(pairs)],
                )
            self._num_products += 1
            self._norm_cache = {}
            ok = True
        finally:
            self._end(opened, ok)

    def _remove_locked(self, product_id: str) -> bool:
        """Remove a document inside the caller's transaction."""
        connection = self._require_open()
        row = connection.execute(
            "SELECT id, text, num_tokens FROM listing WHERE product_id = ?",
            (product_id,),
        ).fetchone()
        if row is None:
            return False
        rowid, text, num_tokens = row
        if num_tokens:
            self._stats.discard(text)
            connection.execute(
                "DELETE FROM doc_tokens WHERE product_id = ?", (product_id,)
            )
            connection.execute("DELETE FROM product_search WHERE rowid = ?", (rowid,))
        connection.execute(
            "DELETE FROM attribute_pairs WHERE product_id = ?", (product_id,)
        )
        connection.execute("DELETE FROM listing WHERE id = ?", (rowid,))
        self._num_products -= 1
        self._norm_cache = {}
        return True

    def remove(self, product_id: str) -> bool:
        """Drop a product from the index; ``False`` when it was absent."""
        opened = self._begin()
        ok = False
        try:
            removed = self._remove_locked(product_id)
            ok = True
            return removed
        finally:
            self._end(opened, ok)

    def apply_commit(self, event: CommitEvent) -> int:
        """Fold one committed batch's changed products into the index.

        One SQLite transaction per batch — readers of a shared index
        file could otherwise observe half a commit, and batching is also
        what keeps ingest-speed maintenance cheap.
        """
        opened = self._begin()
        ok = False
        upserted = 0
        try:
            for cluster_id, product in event.changed:
                if product is None:
                    self._remove_locked(stable_product_id(*cluster_id))
                else:
                    self.upsert(product)
                    upserted += 1
            ok = True
        finally:
            self._end(opened, ok)
        return upserted

    def rebuild(self, products: Iterable[Product]) -> None:
        """Replace the whole index with a fresh product snapshot."""
        connection = self._require_open()
        opened = self._begin()
        ok = False
        try:
            connection.execute("DELETE FROM listing")
            connection.execute("DELETE FROM doc_tokens")
            connection.execute("DELETE FROM attribute_pairs")
            connection.execute("DELETE FROM product_search")
            self._stats = IncrementalTfIdf()
            self._num_products = 0
            self._norm_cache = {}
            for product in products:
                self.upsert(product)
            ok = True
        finally:
            self._end(opened, ok)

    # -- queries ---------------------------------------------------------------

    def _fts_candidates(self, tokens: Iterable[str]) -> Optional[List[str]]:
        """Product ids whose token stream FTS-matches any query token.

        The candidate-generation half of the search path.  Because the
        FTS body is the token stream, every product sharing an exact
        token with the query is guaranteed to be returned (possibly with
        phrase-induced false positives, which exact rescoring drops).
        Returns ``None`` when no token survives FTS quoting.
        """
        connection = self._require_open()
        quoted = ['"{}"'.format(token.replace('"', '""')) for token in tokens]
        if not quoted:
            return None
        return [
            product_id
            for (product_id,) in connection.execute(
                "SELECT product_id FROM product_search WHERE product_search MATCH ?",
                (" OR ".join(quoted),),
            )
        ]

    def _document_norm(self, product_id: str) -> float:
        norm = self._norm_cache.get(product_id)
        if norm is None:
            rows = self._require_open().execute(
                "SELECT token, tf FROM doc_tokens WHERE product_id = ?"
                " ORDER BY ordinal",
                (product_id,),
            ).fetchall()
            # Same expression and same (first-occurrence) accumulation
            # order as CatalogIndex._document_norm — bit-identical.
            norm = math.sqrt(
                sum((frequency * self._stats.idf(token)) ** 2 for token, frequency in rows)
            )
            self._norm_cache[product_id] = norm
        return norm

    def search(
        self,
        query: str,
        top_k: int = 10,
        category: Optional[str] = None,
        attributes: Optional[Dict[str, str]] = None,
    ) -> List[SearchResult]:
        """Top-k products by TF-IDF cosine against ``query``.

        Same contract (and same rankings, scores and tie-breaks) as
        :meth:`CatalogIndex.search`; only the retrieval machinery
        differs: FTS5 MATCH proposes candidates, the stored term
        frequencies rescore them exactly.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        connection = self._require_open()
        query_weights = self._stats.transform(query)
        if not query_weights:
            return []
        candidates = self._fts_candidates(query_weights)
        if not candidates:
            return []
        candidate_set = set(candidates)
        # Exact rescoring: accumulate per-product contributions in query
        # token order — the same per-product addition sequence as the
        # in-memory index's token-major loop, so floats agree exactly.
        scores: Dict[str, float] = {}
        for token, query_weight in query_weights.items():
            token_idf = self._stats.idf(token)
            for product_id, frequency in connection.execute(
                "SELECT product_id, tf FROM doc_tokens WHERE token = ?", (token,)
            ):
                if product_id not in candidate_set:
                    continue
                scores[product_id] = (
                    scores.get(product_id, 0.0) + query_weight * frequency * token_idf
                )
        if not scores:
            return []
        # Category filter straight off the listing table (no JSON parse).
        scored_ids = list(scores)
        category_by_id: Dict[str, str] = {}
        for chunk in _chunked(scored_ids):
            placeholders = ",".join("?" for _ in chunk)
            for product_id, category_id in connection.execute(
                f"SELECT product_id, category_id FROM listing"
                f" WHERE product_id IN ({placeholders})",
                tuple(chunk),
            ):
                category_by_id[product_id] = category_id
        allowed = {
            product_id
            for product_id, category_id in category_by_id.items()
            if category is None or category_id == category
        }
        if attributes:
            wanted = {
                (normalize_attribute_name(name), normalize_value(value))
                for name, value in attributes.items()
            }
            remaining = [pid for pid in scored_ids if pid in allowed]
            matched: Dict[str, int] = {}
            for chunk in _chunked(remaining):
                placeholders = ",".join("?" for _ in chunk)
                for product_id, name, value in connection.execute(
                    f"SELECT product_id, name, value FROM attribute_pairs"
                    f" WHERE product_id IN ({placeholders})",
                    tuple(chunk),
                ):
                    if (name, value) in wanted:
                        matched[product_id] = matched.get(product_id, 0) + 1
            allowed = {
                product_id
                for product_id in remaining
                if matched.get(product_id, 0) == len(wanted)
            }
        ranked: List[Tuple[float, str]] = []
        for product_id, raw_score in scores.items():
            if product_id not in allowed:
                continue
            norm = self._document_norm(product_id)
            if norm == 0.0:
                continue
            ranked.append((raw_score / norm, product_id))
        top = top_ranked(ranked, top_k)
        # Product JSON is parsed for the k winners only.
        products: Dict[str, Product] = {}
        top_ids = [product_id for _, product_id in top]
        for chunk in _chunked(top_ids):
            placeholders = ",".join("?" for _ in chunk)
            for product_id, product_json in connection.execute(
                f"SELECT product_id, product FROM listing"
                f" WHERE product_id IN ({placeholders})",
                tuple(chunk),
            ):
                products[product_id] = product_from_dict(json.loads(product_json))
        return [
            SearchResult(product=products[product_id], score=score)
            for score, product_id in top
        ]

    def get_product(self, product_id: str) -> Optional[Product]:
        """The indexed product with this id, or ``None``."""
        row = self._require_open().execute(
            "SELECT product FROM listing WHERE product_id = ?", (product_id,)
        ).fetchone()
        return None if row is None else product_from_dict(json.loads(row[0]))

    def count_by_category(self) -> Dict[str, int]:
        """category_id -> number of indexed products, sorted by id."""
        return {
            category_id: count
            for category_id, count in self._require_open().execute(
                "SELECT category_id, COUNT(*) FROM listing"
                " GROUP BY category_id ORDER BY category_id"
            )
        }

    # -- statistics ------------------------------------------------------------

    @property
    def num_products(self) -> int:
        """Number of products currently indexed."""
        return self._num_products

    @property
    def vocabulary_size(self) -> int:
        """Distinct tokens across all indexed documents."""
        return self._stats.vocabulary_size

    def stats(self) -> Dict[str, int]:
        """JSON-compatible index statistics (same shape as the memory index)."""
        connection = self._require_open()
        num_postings = connection.execute(
            "SELECT COUNT(DISTINCT token) FROM doc_tokens"
        ).fetchone()[0]
        num_categories = connection.execute(
            "SELECT COUNT(DISTINCT category_id) FROM listing"
        ).fetchone()[0]
        return {
            "num_products": self.num_products,
            "num_categories": int(num_categories),
            "vocabulary_size": self.vocabulary_size,
            "num_postings": int(num_postings),
        }
