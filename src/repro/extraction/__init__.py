"""Web-page attribute extraction.

Paper Section 4: "We have implemented a simple extractor that parses the
DOM tree of the Web page and returns all tables on the page.  It also
selects the attribute-value pairs from the tables, i.e., rows with two
columns, where we consider the first column to be the attribute name and
the second column to be the attribute value."

The package contains a lightweight DOM (:mod:`repro.extraction.dom`),
table discovery and attribute-value harvesting
(:mod:`repro.extraction.tables`) and the user-facing
:class:`~repro.extraction.extractor.WebPageAttributeExtractor`.  A page
is parsed in one pass: a single compiled regular expression tokenises
it (comments, declarations and processing instructions skipped; end
tags; start and self-closing tags with quoted, bare or valueless
attributes; raw ``script``/``style`` text; unescaped text runs), and the
tree is built with ``html.parser``-compatible rules (lowercased names,
implicit closers for ``td``/``th``/``tr``/``li``/``p``/``option``, void
elements, ignored stray end tags, dropped blank text).  Each table's
rows are recorded while parsing, so harvesting pairs needs no further
tree walks.
"""

from repro.extraction.dom import DomNode, parse_html
from repro.extraction.extractor import ExtractionResult, WebPageAttributeExtractor
from repro.extraction.tables import extract_pairs_from_tables, find_tables, table_to_rows

__all__ = [
    "DomNode",
    "parse_html",
    "ExtractionResult",
    "WebPageAttributeExtractor",
    "extract_pairs_from_tables",
    "find_tables",
    "table_to_rows",
]
