"""Merchant offers.

An offer is ``o = (M, price, image, C, URL, title, {<A1, v1>, ...})``
(paper Section 2).  Offer feeds usually carry only title, price, URL and a
feed category; the offer *specification* is filled in later by the
Web-page Attribute Extraction component from the merchant landing page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.model.attributes import Specification

__all__ = ["Offer"]


@dataclass
class Offer:
    """An offer provided by a merchant through its feed.

    Attributes
    ----------
    offer_id:
        Stable unique identifier.
    merchant_id:
        The merchant selling the product.
    title:
        Short free-text sentence describing the product
        (e.g. ``"HP 400GB 10K 3.5 DP NSAS HDD"``).
    price:
        Offer price in the feed currency.
    url:
        Landing page on the merchant site where the product can be bought.
    image_url:
        Product image, when the feed provides one.
    feed_category:
        Category string under the *merchant's* taxonomy
        (e.g. ``"Computing|Storage|Hard Drives"``); may be empty.
    category_id:
        Category under the *catalog* taxonomy, assigned by the category
        classifier (or provided by the corpus generator).
    specification:
        Attribute-value pairs describing the product, in the merchant's own
        vocabulary.  Usually populated by the web-page attribute extractor.
    """

    offer_id: str
    merchant_id: str
    title: str
    price: float = 0.0
    url: str = ""
    image_url: Optional[str] = None
    feed_category: str = ""
    category_id: Optional[str] = None
    specification: Specification = field(default_factory=Specification)

    def attribute_names(self) -> List[str]:
        """Distinct attribute names in the offer specification."""
        return self.specification.attribute_names()

    def get(self, attribute_name: str, default: Optional[str] = None) -> Optional[str]:
        """The (first) value of ``attribute_name``, or ``default``."""
        return self.specification.get(attribute_name, default)

    def num_attributes(self) -> int:
        """Number of attribute-value pairs in the offer specification."""
        return len(self.specification)

    # The two copies below pass every field through by hand: they run once
    # or twice per ingested offer, and ``dataclasses.replace``, which
    # re-reads the class's fields on every call, costs about four times
    # as much as this direct construction.

    def with_specification(self, specification: Specification) -> "Offer":
        """A copy of this offer carrying a different specification."""
        return Offer(
            self.offer_id,
            self.merchant_id,
            self.title,
            self.price,
            self.url,
            self.image_url,
            self.feed_category,
            self.category_id,
            specification,
        )

    def with_category(self, category_id: str) -> "Offer":
        """A copy of this offer assigned to a catalog category."""
        return Offer(
            self.offer_id,
            self.merchant_id,
            self.title,
            self.price,
            self.url,
            self.image_url,
            self.feed_category,
            category_id,
            self.specification,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Offer(id={self.offer_id!r}, merchant={self.merchant_id!r}, "
            f"title={self.title[:40]!r}, attrs={self.num_attributes()})"
        )
