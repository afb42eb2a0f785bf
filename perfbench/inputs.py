"""Seeded inputs and the timed set-up shared by every workload.

Everything here is a pure function of the seed: the synthetic corpus,
the merchant-feed-ordered raw offer stream, the micro-batches with their
re-sent offers, and the query pool.  Corpus generation is the load
generator and is never timed; :func:`offline_setup` is the part of
set-up every workload pays (history extraction, offline learning,
classifier training).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple
from urllib.parse import quote_plus

from repro.corpus.config import CorpusPreset
from repro.corpus.generator import CorpusGenerator, SyntheticCorpus
from repro.extraction.extractor import WebPageAttributeExtractor
from repro.matching.correspondence import CorrespondenceSet
from repro.matching.learner import OfflineLearner
from repro.model.offers import Offer
from repro.model.products import Product, product_fingerprint
from repro.synthesis.category_classifier import TitleCategoryClassifier
from repro.synthesis.pipeline import ProductSynthesisPipeline
from repro.text.memo import clear_text_caches
from repro.text.tokenize import tokenize_title

# One corpus for every run: CorpusPreset.SMALL at the repository's default
# seed, scaled x4.4 (~5.5k unmatched offers).  The run's seed draws the
# stream, the history sample, the re-sends and the queries from it, so
# runs differ in which offers and queries they see but not in the catalog
# itself (product sizes, title vocabulary), which would otherwise add its
# own spread to every timing.
CORPUS_SEED = 2011
CORPUS_SCALE = 4.4
STREAM_OFFERS = 4500
# Offline learning runs on a seeded sample of the matched history, so a
# run can afford to repeat set-up: learning on all ~4.9k matched offers
# takes tens of seconds on a 2-core box, on this sample ~2.5 s.
HISTORY_OFFERS = 200
# Merchant feeds re-send inventory: each batch re-sends this share of
# already-ingested offers, chosen by the seed, so dedup is exercised.
RESEND_SHARE = 0.1
QUERY_POOL_SIZE = 2000
CATEGORY_FILTER_SHARE = 0.1


@dataclass
class Inputs:
    """The generated corpus and the raw offer stream derived from it."""

    seed: int
    corpus: SyntheticCorpus
    #: Raw unmatched offers (no specification) in merchant-feed order.
    stream: List[Offer]
    #: Seeded sample of matched offers used for offline learning.
    history: List[Offer]


@dataclass
class Learned:
    """What offline set-up produces: everything an engine is built from."""

    extractor: WebPageAttributeExtractor
    correspondences: CorrespondenceSet
    classifier: TitleCategoryClassifier
    #: Seconds per set-up step (history extraction, learning, training).
    steps: Dict[str, float] = field(default_factory=dict)


def make_inputs(seed: int) -> Inputs:
    """Generate the corpus and draw the stream for ``seed`` (untimed)."""
    config = CorpusPreset.SMALL.config(seed=CORPUS_SEED).scaled(CORPUS_SCALE)
    corpus = CorpusGenerator(config).generate()
    unmatched = corpus.unmatched_offers()
    rng = random.Random(seed)
    # A uniform sample keeps the category mix (and so the work per offer)
    # the same from seed to seed; the generator emits offers category by
    # category, so a prefix would not.
    chosen = sorted(rng.sample(range(len(unmatched)), STREAM_OFFERS))
    # Real streams are merchant feeds: a product's offers arrive spread
    # over batches, so clusters grow across batches.  A stable sort by
    # merchant reproduces that, as the repository's runtime bench does.
    stream = sorted((unmatched[index] for index in chosen), key=lambda offer: offer.merchant_id)
    matched = corpus.matched_offers()
    history = rng.sample(matched, min(HISTORY_OFFERS, len(matched)))
    return Inputs(seed=seed, corpus=corpus, stream=stream, history=history)


def offline_setup(inputs: Inputs) -> Learned:
    """History extraction, offline learning and classifier training (timed)."""
    clear_text_caches()
    steps: Dict[str, float] = {}
    started = time.perf_counter()
    extractor = WebPageAttributeExtractor(inputs.corpus.web)
    history, _ = extractor.extract_offers(inputs.history)
    steps["extraction.history_s"] = time.perf_counter() - started
    started = time.perf_counter()
    result = OfflineLearner(inputs.corpus.catalog).learn(history, inputs.corpus.matches)
    steps["offline.learn_s"] = time.perf_counter() - started
    started = time.perf_counter()
    classifier = TitleCategoryClassifier().train_from_history(
        inputs.corpus.catalog, history, inputs.corpus.matches
    )
    steps["classify.train_s"] = time.perf_counter() - started
    clear_text_caches()
    return Learned(
        extractor=extractor,
        correspondences=result.correspondences,
        classifier=classifier,
        steps=steps,
    )


def engine_parts(inputs: Inputs, learned: Learned) -> Dict[str, object]:
    """Keyword arguments every engine and the reference pipeline share."""
    return {
        "catalog": inputs.corpus.catalog,
        "correspondences": learned.correspondences,
        "extractor": learned.extractor,
        "category_classifier": learned.classifier,
    }


def reference_fingerprint(
    inputs: Inputs, learned: Learned, offers: Sequence[Offer]
) -> List[Tuple[object, ...]]:
    """Sorted fingerprint of the one-shot pipeline over raw ``offers``."""
    clear_text_caches()
    products = ProductSynthesisPipeline(**engine_parts(inputs, learned)).synthesize(offers).products
    clear_text_caches()
    return fingerprint(products)


def fingerprint(products: List[Product]) -> List[Tuple[object, ...]]:
    """Sorted, byte-comparable fingerprint of a product list."""
    return sorted(product_fingerprint(products))


def batches_with_resends(
    offers: Sequence[Offer], batch_size: int, seed: int, start: int = 0
) -> List[List[Offer]]:
    """Cut ``offers[start:]`` into batches, each with re-sent earlier offers.

    Re-sends are drawn (by the seed) from every offer before the batch,
    including ``offers[:start]``, which an earlier phase ingested.
    """
    rng = random.Random(seed * 7919 + batch_size)
    batches: List[List[Offer]] = []
    for first in range(start, len(offers), batch_size):
        batch = list(offers[first : first + batch_size])
        resends = min(first, round(len(batch) * RESEND_SHARE))
        batch.extend(offers[index] for index in rng.sample(range(first), resends))
        batches.append(batch)
    return batches


@dataclass
class Query:
    """One request of the query mix: a search or a point lookup."""

    #: Request path with query string, e.g. ``/search?q=hp+cheetah&k=10``.
    path: str
    #: ``("search", text, category)`` or ``("product", product_id, None)``.
    spec: Tuple[str, str, object]


def query_pool(products: Sequence[Product], seed: int) -> List[Tuple[str, str]]:
    """~2k distinct (1-3-token title span, category) pairs, seeded."""
    rng = random.Random(seed * 31 + 1)
    ordered = sorted(products, key=lambda product: product.product_id)
    pool: Dict[str, str] = {}
    attempts = 0
    while len(pool) < QUERY_POOL_SIZE and attempts < QUERY_POOL_SIZE * 20:
        attempts += 1
        product = rng.choice(ordered)
        tokens = list(tokenize_title(product.title))
        if not tokens:
            continue
        width = rng.randint(1, min(3, len(tokens)))
        start = rng.randrange(len(tokens) - width + 1)
        pool.setdefault(" ".join(tokens[start : start + width]), product.category_id)
    return sorted(pool.items())


def query_mix(
    products: Sequence[Product], seed: int, count: int, zipf: bool
) -> List[Query]:
    """``count`` requests: 80% searches, 20% point lookups.

    Searches draw from the pool by Zipf rank (s = 1) when ``zipf`` holds,
    uniformly otherwise; a tenth of them carry ``category=``.
    """
    pool = query_pool(products, seed)
    rng = random.Random(seed * 97 + (1 if zipf else 2))
    rng.shuffle(pool)
    ids = sorted(product.product_id for product in products)
    weights = [1.0 / rank for rank in range(1, len(pool) + 1)] if zipf else None
    id_weights = [1.0 / rank for rank in range(1, len(ids) + 1)] if zipf else None
    searches = rng.choices(pool, weights=weights, k=count)
    lookups = rng.choices(ids, weights=id_weights, k=count)
    mix: List[Query] = []
    for index in range(count):
        if rng.random() < 0.2:
            product_id = lookups[index]
            mix.append(Query(f"/product/{quote_plus(product_id)}", ("product", product_id, None)))
            continue
        text, category = searches[index]
        path = f"/search?q={quote_plus(text)}&k=10"
        if rng.random() < CATEGORY_FILTER_SHARE:
            path += f"&category={quote_plus(category)}"
        else:
            category = None
        mix.append(Query(path, ("search", text, category)))
    return mix
