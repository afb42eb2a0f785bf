"""Web-page attribute extraction.

Paper Section 4: "We have implemented a simple extractor that parses the
DOM tree of the Web page and returns all tables on the page.  It also
selects the attribute-value pairs from the tables, i.e., rows with two
columns, where we consider the first column to be the attribute name and
the second column to be the attribute value."

The package contains the table-row harvester
(:mod:`repro.extraction.tables`) and the user-facing
:class:`~repro.extraction.extractor.WebPageAttributeExtractor`.  Only the
rows of the page's tables are needed, so no DOM tree is built: one
compiled regular expression tokenises the page (comments, declarations
and processing instructions skipped; end tags; start and self-closing
tags with quoted, bare or valueless attributes; raw ``script``/``style``
text; unescaped text runs), and one pass over the tokens keeps only the
open-element tag stack, each table's rows and each open cell's text,
nesting elements by ``html.parser``-compatible rules (lowercased names,
implicit closers for ``td``/``th``/``tr``/``li``/``p``/``option``, void
elements, ignored stray end tags, dropped blank text).  The rows and
pairs are those of the DOM tree the paper describes.
"""

from repro.extraction.extractor import ExtractionResult, WebPageAttributeExtractor
from repro.extraction.tables import extract_pairs, table_rows

__all__ = [
    "ExtractionResult",
    "WebPageAttributeExtractor",
    "extract_pairs",
    "table_rows",
]
