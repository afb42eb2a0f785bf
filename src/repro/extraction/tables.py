"""Table-row harvesting straight from a page's token stream.

The extractor needs only the cells of each table row, so a page is never
built into a tree: :func:`table_rows` makes one pass over the page with
one ``re`` alternation (:data:`_TOKEN`) and keeps only the open-element
tag stack, each table's rows (a row's direct cells and the range of
``td``/``th`` cells created inside it) and, per cell, the range of text
runs emitted while it was open.  A text run lies inside every open cell,
so a cell's text includes that of tables nested in it.  The grammar
follows the standard library's ``html.parser``, so a page yields the rows
a tree built by ``html.parser`` would:

* ``<!-- ... -->`` comments (closed by the first ``--\\s*>``), ``<!...>``
  declarations (doctype, bogus comments), ``<![CDATA[ ... ]]>``-style
  marked sections and ``<?...>`` processing instructions are skipped;
* end tags ``</name ...>`` close an element; ``</>`` and other nameless
  end tags are skipped;
* start tags ``<name attr=value ...>`` and self-closing ``<name ... />``
  open an element.  Attribute values may be single-quoted,
  double-quoted (either may contain ``>``) or bare; a tag whose
  attributes do not end in ``>`` or ``/>`` is page text.  Attributes are
  read only to make that decision, never stored;
* ``script`` and ``style`` hold raw text up to their matching end tag:
  it is neither tokenised nor unescaped (``html.parser``'s CDATA mode),
  and an unclosed one swallows the rest of the page;
* the text between tokens is unescaped with :func:`html.unescape`; a
  ``<`` that opens no complete token is kept as a one-character text
  run, as ``html.parser`` does.

Elements nest as a forgiving tree builder would nest them: tag names are
lowercased, a few start tags implicitly close still-open siblings
(``td``/``th``/``tr``/``li``/``p``/``option``), void elements (``br``,
``img``, ...) and self-closing tags never open, stray end tags are
ignored and whitespace-only text is dropped, so the messy markup found
on real merchant pages does not crash extraction.
"""

from __future__ import annotations

import re
from html import unescape
from typing import List, Optional, Tuple

from repro.model.attributes import AttributeValue

__all__ = ["table_rows", "extract_pairs"]

#: Attribute names longer than this are almost certainly page noise
#: (review sentences picked up as a cell) and are dropped at extraction
#: time; genuine attribute names are short.
_MAX_NAME_LENGTH = 60
#: Values longer than this are dropped for the same reason.
_MAX_VALUE_LENGTH = 200

#: Elements that never have closing tags.
_VOID_ELEMENTS = frozenset(
    {
        "area",
        "base",
        "br",
        "col",
        "embed",
        "hr",
        "img",
        "input",
        "link",
        "meta",
        "param",
        "source",
        "track",
        "wbr",
    }
)

#: Start tags that implicitly close still-open elements (a small subset of the
#: HTML5 implied-end-tag rules, enough for messy merchant tables and lists).
_IMPLICIT_CLOSERS = {
    "td": ("td", "th"),
    "th": ("td", "th"),
    "tr": ("td", "th", "tr"),
    "li": ("li",),
    "option": ("option",),
    "p": ("p",),
}

#: A tag name, as ``html.parser`` reads it.
_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"

#: The text before one token, then the token.  Groups: 1 the text, 2 the
#: token, 3 start-tag name, 4 its attribute text, 5/6 end-tag name
#: (strict/tolerant form).  A token of just ``<`` is a ``<`` that opens
#: no token; any other token without a name is skipped.  The attribute
#: part is matched inside a lookahead and then consumed by backreference:
#: a lookahead never backtracks, so it is matched once, greedily, as
#: ``html.parser`` matches it, and a tag that does not end in ``>`` fails
#: in linear time instead of retrying every split of its whitespace.
_TOKEN = re.compile(
    rf"""
    ([^<]*)
    (<(?:
        ({_NAME})
        (?=(
          (?:[\s/]*
            (?:(?<=['"\s/])[^\s/>][^\s/=>]*
              (?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?
              (?:\s|/(?!>))*
            )*
          )?
          \s*
        ))\4
        /?>
      | /(?:\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>|({_NAME})[^>]*>|[^>]*>)
      | !--.*?--\s*>
      | !\[(?i:cdata|temp|ignore|include|rcdata)(?![-_.a-zA-Z0-9]).*?\]\s*\]\s*>
      | !\[(?i:if|else|endif)(?![-_.a-zA-Z0-9]).*?\]\s*>
      | !(?!--)[^>]*>
      | \?[^>]*>
    )?)?
    """,
    re.VERBOSE | re.DOTALL,
)

#: A start tag's name and attributes as ``html.parser``'s attribute loop
#: reads them, for tags that carry attributes: what follows must be
#: ``>`` or ``/>``.  Nothing follows the repetition, so it never
#: backtracks.
_START_TAG_ATTRIBUTES = re.compile(
    rf"""<{_NAME}(?:\s|/(?!>))*
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*
      (?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*))?
      (?:\s|/(?!>))*
    )*""",
    re.VERBOSE,
)

#: Elements whose content is raw text, and the end tag that closes each.
_RAW_TEXT_END = {
    "script": re.compile(r"</\s*script\s*>", re.IGNORECASE),
    "style": re.compile(r"</\s*style\s*>", re.IGNORECASE),
}


def _scan(html_text: str) -> Tuple[List[list], List[list], List[str]]:
    """``(tables, cells, texts)`` of one pass over the page.

    ``texts`` holds the stripped text runs emitted inside open cells, in
    document order.  ``cells`` holds every ``td``/``th`` in document
    order as ``[tag, first_text, end_text]``: its text is
    ``texts[first_text:end_text]``.  ``tables`` lists every ``<table>``
    in document order as its rows, each ``[direct_cells, first_cell,
    end_cell]``: the cells whose parent is the row, and the range of
    ``cells`` created inside it.  An end still open when the page ends
    is ``None``.
    """
    text = html_text or ""
    tables: List[list] = []
    cells: List[list] = []
    texts: List[str] = []
    # The open elements, bottom first, beside the table/row/cell record of
    # each (``None`` for any other element).  Index 0 is the document.
    tags: List[Optional[str]] = [None]
    records: List[Optional[list]] = [None]
    open_cells = 0
    position: Optional[int] = 0
    while position is not None:
        # findall yields "" for a group that did not take part.
        tokens = _TOKEN.findall(text, position)
        start, position = position, None
        for data, token, name, attribute_text, end_name, tolerant_end_name in tokens:
            if data and open_cells:
                run = (unescape(data) if "&" in data else data).strip()
                if run:
                    texts.append(run)
            if name:
                tag = name.lower()
                if attribute_text:
                    closer = token[_START_TAG_ATTRIBUTES.match(token).end() :].strip()
                    if closer != ">":
                        if closer != "/>":
                            # Not a tag after all: page text.
                            if open_cells:
                                texts.append(token.strip())
                        elif tag == "td" or tag == "th":
                            # A self-closing cell is empty and never open.
                            record = [tag, 0, 0]
                            cells.append(record)
                            if tags[-1] == "tr":
                                records[-1][0].append(record)
                        elif tag == "table":
                            tables.append([])
                        continue
                closes = _IMPLICIT_CLOSERS.get(tag)
                if closes:
                    while tags[-1] in closes:
                        popped = tags.pop()
                        record = records.pop()
                        if popped == "tr":
                            record[2] = len(cells)
                        elif popped == "td" or popped == "th":
                            record[2] = len(texts)
                            open_cells -= 1
                if tag == "td" or tag == "th":
                    record = [tag, len(texts), None]
                    cells.append(record)
                    if tags[-1] == "tr":
                        records[-1][0].append(record)
                    open_cells += 1
                elif tag == "tr":
                    record = [[], len(cells), None]
                    # The row belongs to the nearest open table, if any.
                    index = len(tags) - 1
                    while index and tags[index] != "table":
                        index -= 1
                    if index:
                        records[index].append(record)
                elif tag == "table":
                    record = []
                    tables.append(record)
                elif tag in _VOID_ELEMENTS:
                    continue
                else:
                    raw_end = _RAW_TEXT_END.get(tag)
                    if raw_end is not None:
                        # Raw text: resume tokenising after the closing tag.
                        # This is the first raw-text tag of ``tokens``, so
                        # index() finds this very token.
                        index = tokens.index((data, token, name, attribute_text, "", ""))
                        opened = start + sum(len(t[0]) + len(t[1]) for t in tokens[: index + 1])
                        closing = raw_end.search(text, opened)
                        if closing is not None:
                            run = text[opened : closing.start()].strip()
                            if run and open_cells:
                                texts.append(run)
                            position = closing.end()
                        break
                    record = None
                tags.append(tag)
                records.append(record)
            elif end_name or tolerant_end_name:
                # Close up to the matching open tag; a stray end tag is ignored.
                tag = (end_name or tolerant_end_name).lower()
                index = len(tags) - 1
                while index and tags[index] != tag:
                    index -= 1
                while index and len(tags) > index:
                    popped = tags.pop()
                    record = records.pop()
                    if popped == "tr":
                        record[2] = len(cells)
                    elif popped == "td" or popped == "th":
                        record[2] = len(texts)
                        open_cells -= 1
            elif token == "<" and open_cells:
                texts.append("<")
    return tables, cells, texts


def _row_cells(row: list, cells: List[list]) -> List[list]:
    """The row's direct cells, else all the ``td`` then all the ``th`` in it."""
    direct, first, end = row
    if direct:
        return direct
    inside = cells[first:end]
    return [cell for cell in inside if cell[0] == "td"] + [
        cell for cell in inside if cell[0] == "th"
    ]


def _cell_text(cell: list, texts: List[str]) -> str:
    """The cell's text runs, whitespace-normalised."""
    return " ".join(" ".join(texts[cell[1] : cell[2]]).split())


def table_rows(html_text: str) -> List[List[List[str]]]:
    """The text of each row's cells, per table, tables in document order.

    A table's rows exclude those of tables nested in it, which are listed
    as tables of their own; a cell's text includes theirs.  A row's cells
    are its direct ``td``/``th`` children; some markup nests cells below
    intermediate elements, so a row without any falls back to all the
    ``td`` and then all the ``th`` inside it.  Rows without cells are
    dropped.

    Examples
    --------
    >>> table_rows("<table><tr><td>Brand<td>Hitachi</table>")
    [[['Brand', 'Hitachi']]]
    """
    tables, cells, texts = _scan(html_text)
    result = []
    for table in tables:
        rows = [_row_cells(row, cells) for row in table]
        result.append([[_cell_text(cell, texts) for cell in row] for row in rows if row])
    return result


def extract_pairs(html_text: str) -> List[AttributeValue]:
    """Attribute-value pairs from every two-column table row on the page.

    This is exactly the paper's extractor: each two-column row becomes one
    pair with the first cell as the attribute name and the second as the
    value.  Rows with any other number of columns are ignored, as are rows
    whose name or value is empty or implausibly long.
    """
    tables, cells, texts = _scan(html_text)
    pairs: List[AttributeValue] = []
    for table in tables:
        for row in table:
            row_cells = _row_cells(row, cells)
            if len(row_cells) != 2:
                continue
            name = _cell_text(row_cells[0], texts)
            value = _cell_text(row_cells[1], texts)
            if not name or not value:
                continue
            if len(name) > _MAX_NAME_LENGTH or len(value) > _MAX_VALUE_LENGTH:
                continue
            pairs.append(AttributeValue(name=name, value=value))
    return pairs
