"""Tests for table-row harvesting and the web-page attribute extractor."""

import time
from html.parser import HTMLParser

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus.config import CorpusPreset
from repro.corpus.generator import CorpusGenerator
from repro.corpus.webstore import PageNotFoundError, WebStore
from repro.extraction.extractor import WebPageAttributeExtractor
from repro.extraction.tables import extract_pairs, table_rows
from repro.model.attributes import AttributeValue


SPEC_PAGE = """
<html><head><title>Hitachi Deskstar</title></head>
<body>
  <table class="nav"><tr><td><a href="#">Home</a></td><td><a href="#">Cart</a></td></tr></table>
  <h1>Hitachi Deskstar T7K500</h1>
  <table class="specs">
    <tr><td>Brand</td><td>Hitachi</td></tr>
    <tr><td>Capacity</td><td>500 GB</td></tr>
    <tr><td>Interface</td><td>Serial ATA-300</td></tr>
  </table>
  <ul><li>Free shipping</li></ul>
</body></html>
"""

LIST_PAGE = """
<html><body>
  <h2>Product Specifications</h2>
  <ul class="specs">
    <li>Brand: Hitachi</li>
    <li>Capacity: 500 GB</li>
  </ul>
</body></html>
"""

MESSY_PAGE = """
<html><body>
  <table><tr><td>Brand<td>Hitachi</tr>
  <tr><td>Only one cell</td></tr>
  <tr><td>Three</td><td>cells</td><td>here</td></tr>
  <table><tr><td>Nested Attr</td><td>Nested Value</td></tr></table>
  </table>
  <br><img src="x.png">
</body></html>
"""


class TestDomParser:
    """The page-parsing rules, seen through the rows they yield."""

    def test_find_all_and_text_content(self):
        cells = [cell for rows in table_rows(SPEC_PAGE) for row in rows for cell in row]
        assert "Hitachi" in cells and "500 GB" in cells

    def test_find_first(self):
        # Tables come in document order; text outside them is not harvested.
        tables = table_rows(SPEC_PAGE)
        assert tables[0] == [["Home", "Cart"]]
        assert "Hitachi Deskstar T7K500" not in str(tables)

    def test_attributes_are_parsed(self):
        # A quoted ``>`` inside an attribute value does not end the tag.
        html = "<table class='a > b' id=x><tr><td title=\"<td>\">Brand<td>Hitachi</table>"
        assert table_rows(html) == [[["Brand", "Hitachi"]]]

    def test_void_elements_do_not_break_nesting(self):
        # Were ``br``/``img`` opened, the next ``td`` would nest below them.
        html = "<table><tr><td>a<br>b<td>c<img src='x.png'><td>d</table>"
        assert table_rows(html) == [[["a b", "c", "d"]]]

    def test_unclosed_tags_tolerated(self):
        assert table_rows("<table><tr><td>A<td>B") == [[["A", "B"]]]

    def test_empty_document(self):
        assert table_rows("") == []
        assert extract_pairs("") == []

    def test_text_content_normalises_whitespace(self):
        html = "<table><tr><td>  lots \n of   space </td></tr></table>"
        assert table_rows(html) == [[["lots of space"]]]

    def test_stray_end_tag_ignored(self):
        assert table_rows("</div></td><table><tr><td>ok</table>") == [[["ok"]]]


class TestTableExtraction:
    def test_find_tables(self):
        assert len(table_rows(SPEC_PAGE)) == 2

    def test_table_to_rows(self):
        rows = table_rows(SPEC_PAGE)[1]
        assert ["Brand", "Hitachi"] in rows
        assert ["Capacity", "500 GB"] in rows

    def test_extract_pairs_only_two_column_rows(self):
        pairs = extract_pairs(MESSY_PAGE)
        names = [pair.name for pair in pairs]
        assert "Brand" in names
        assert "Nested Attr" in names
        assert "Only one cell" not in names
        assert "Three" not in names

    def test_extract_pairs_from_spec_page(self):
        pairs = {pair.name: pair.value for pair in extract_pairs(SPEC_PAGE)}
        assert pairs["Brand"] == "Hitachi"
        assert pairs["Interface"] == "Serial ATA-300"

    def test_overlong_cells_dropped(self):
        html = f"<table><tr><td>{'x' * 300}</td><td>value</td></tr></table>"
        assert extract_pairs(html) == []


class TestWebPageAttributeExtractor:
    def test_extract_from_html(self):
        extractor = WebPageAttributeExtractor(WebStore())
        spec = extractor.extract_from_html(SPEC_PAGE)
        assert spec.get("Capacity") == "500 GB"

    def test_bullet_list_page_yields_nothing(self):
        extractor = WebPageAttributeExtractor(WebStore())
        spec = extractor.extract_from_html(LIST_PAGE)
        assert len(spec) == 0

    def test_extract_from_url_missing_page(self):
        extractor = WebPageAttributeExtractor(WebStore())
        assert len(extractor.extract_from_url("http://nope.example.com")) == 0

    def test_extract_offers_batch(self, tiny_corpus):
        extractor = WebPageAttributeExtractor(tiny_corpus.web)
        offers, stats = extractor.extract_offers(tiny_corpus.offers[:60])
        assert stats.offers_processed == 60
        assert stats.offers_with_pairs > 40
        assert stats.total_pairs > 100
        assert 0.0 < stats.coverage() <= 1.0
        # Offers keep their order and ids.
        assert [offer.offer_id for offer in offers] == [
            offer.offer_id for offer in tiny_corpus.offers[:60]
        ]

    def test_extracted_specs_contain_true_page_pairs(self, tiny_corpus):
        extractor = WebPageAttributeExtractor(tiny_corpus.web)
        offer = tiny_corpus.offers[0]
        extracted = extractor.extract_offer(offer)
        page_spec = tiny_corpus.ground_truth.offer_page_specs[offer.offer_id]
        if len(page_spec) == 0:
            pytest.skip("offer rendered as a bullet list")
        extracted_names = {pair.normalized_name() for pair in extracted.specification}
        page_names = {pair.normalized_name() for pair in page_spec}
        # The extractor may add noise pairs (pricing table), but when the page
        # renders the spec as a table it must recover the true pairs.
        if page_names & extracted_names:
            assert page_names <= extracted_names | {"our price", "list price", "you save"} or (
                len(page_names & extracted_names) >= len(page_names) - 1
            )


class TestWebStore:
    def test_put_fetch(self):
        store = WebStore()
        store.put("http://a", "<html></html>")
        assert store.fetch("http://a") == "<html></html>"
        assert store.has("http://a")
        assert "http://a" in store
        assert len(store) == 1
        assert store.urls() == ["http://a"]

    def test_fetch_missing_raises(self):
        with pytest.raises(PageNotFoundError):
            WebStore().fetch("http://missing")

    def test_fetch_or_none(self):
        assert WebStore().fetch_or_none("http://missing") is None

    def test_empty_url_rejected(self):
        with pytest.raises(ValueError):
            WebStore().put("", "x")


# --- reference oracle: the standard library's html.parser -------------------
#
# table_rows must return exactly the rows a tree walk finds in the tree
# this html.parser-driven builder builds, and extract_pairs the pairs.
# The oracle applies the same tree-building rules (implicit closers, void
# elements, stray end tags, blank-text dropping).


_VOID_ELEMENTS = frozenset(
    ["area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "param"]
    + ["source", "track", "wbr"]
)
_IMPLICIT_CLOSERS = {
    "td": ("td", "th"),
    "th": ("td", "th"),
    "tr": ("td", "th", "tr"),
    "li": ("li",),
    "option": ("option",),
    "p": ("p",),
}


class _Node:
    """An oracle tree node; ``tag`` is ``None`` for text."""

    def __init__(self, tag, text=""):
        self.tag, self.text, self.children, self.parent = tag, text, [], None

    def add_child(self, child):
        child.parent = self
        self.children.append(child)
        return child

    def iter_descendants(self):
        for child in self.children:
            yield child
            yield from child.iter_descendants()

    def find_all(self, tag):
        return [node for node in self.iter_descendants() if node.tag == tag]

    def text_content(self):
        texts = [node.text for node in self.iter_descendants() if node.tag is None]
        return " ".join(" ".join(texts).split())


class _OracleTreeBuilder(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = _Node("document")
        self._stack = [self.root]

    def handle_starttag(self, tag, attrs):
        tag = tag.lower()
        closes = _IMPLICIT_CLOSERS.get(tag)
        if closes:
            while len(self._stack) > 1 and self._stack[-1].tag in closes:
                self._stack.pop()
        node = self._stack[-1].add_child(_Node(tag))
        if tag not in _VOID_ELEMENTS:
            self._stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self._stack[-1].add_child(_Node(tag.lower()))

    def handle_endtag(self, tag):
        tag = tag.lower()
        if tag in _VOID_ELEMENTS:
            return
        for index in range(len(self._stack) - 1, 0, -1):
            if self._stack[index].tag == tag:
                del self._stack[index:]
                return

    def handle_data(self, data):
        if not data or not data.strip():
            return
        self._stack[-1].add_child(_Node(None, data.strip()))


def oracle_parse(html_text):
    builder = _OracleTreeBuilder()
    builder.feed(html_text or "")
    builder.close()
    return builder.root


def oracle_rows(table):
    """Rows by tree walk: every descendant ``tr`` not inside a nested table."""
    nested = {id(node) for node in table.find_all("table")}
    rows = []
    for row in table.find_all("tr"):
        node, inside_nested = row.parent, False
        while node is not None and node is not table:
            inside_nested = inside_nested or id(node) in nested
            node = node.parent
        if inside_nested:
            continue
        cells = [cell.text_content() for cell in row.children if cell.tag in ("td", "th")]
        if not cells:
            cells = [cell.text_content() for cell in row.find_all("td") + row.find_all("th")]
        if cells:
            rows.append(cells)
    return rows


def oracle_pairs(root):
    pairs = []
    for table in root.find_all("table"):
        for cells in oracle_rows(table):
            if len(cells) != 2:
                continue
            name, value = cells[0].strip(), cells[1].strip()
            if name and value and len(name) <= 60 and len(value) <= 200:
                pairs.append((name, value))
    return pairs


# Markup fragments: table structure in mixed case, implicit closers, stray
# and unmatched end tags, void and self-closing tags, comments, a doctype,
# raw-text script/style bodies, entities, quoted ``>`` and whitespace runs.
# Every construct is well-terminated: how html.parser treats markup cut
# off at end of input differs between Python releases.
_TABLE_TAGS = ["table", "TABLE", "Table", "tr", "TR", "td", "Td", "th", "TH", "tbody"]
_TAGS = _TABLE_TAGS + ["li", "p", "P", "option", "div", "span", "b", "ul"]
_ATTRIBUTE = st.sampled_from(
    [
        "",
        " class='specs'",
        ' class="a > b"',
        " class='x&amp;y'",
        ' CLASS="Nav" id=main',
        " checked",
        " data-x='1' data-x='2'",
        ' title="&lt;td&gt;"',
        " class=bare",
    ]
)
_FRAGMENT = st.one_of(
    st.builds("<{}{}>".format, st.sampled_from(_TAGS), _ATTRIBUTE),
    st.builds("</{}>".format, st.sampled_from(_TAGS + ["br", "img", "x", "document"])),
    st.sampled_from(
        [
            "<br>",
            "<br/>",
            "<BR />",
            "<img src='a>b.png'>",
            "<hr class=x>",
            "<td/>",
            "<tr />",
            "<table/>",
            "<p class='c'/>",
            "<!-- a comment <td>x</td> -->",
            "<!DOCTYPE html>",
            "<script>if (a < b) { s = '<td>x</td>' + '&amp;'; }</script>",
            "<SCRIPT type='text/javascript'>  </SCRIPT>",
            "<style>td > p { content: '&lt;' }</style>",
            "Brand",
            "Hitachi &amp; Co",
            "500&nbsp;GB",
            "&lt;b&gt; &#39;q&#39; &copy;",
            "  \n\t  ",
            "a < b",
            "x <5",
            "Model  \n  Part",
        ]
    ),
)


def _tables(inner):
    """Tables nesting ``inner`` markup in their cells; end tags optional."""
    cell = st.builds(
        "<{0}>{1}{2}".format,
        st.sampled_from(["td", "th", "TD"]),
        inner,
        st.sampled_from(["", "</td>", "</th>"]),
    )
    row = st.builds(
        "<tr>{}{}".format, st.lists(cell, max_size=3).map("".join), st.sampled_from(["", "</tr>"])
    )
    return st.builds(
        "<table{}>{}{}".format,
        _ATTRIBUTE,
        st.lists(row, max_size=3).map("".join),
        st.sampled_from(["</table>", "</table>", ""]),
    )


_NESTED = st.recursive(_FRAGMENT, lambda inner: st.one_of(inner, _tables(inner)), max_leaves=12)
_MARKUP = st.lists(_NESTED, max_size=12).map("".join)


class TestParserMatchesHtmlParserOracle:
    @settings(deadline=None, max_examples=150)
    @given(markup=_MARKUP)
    @example(markup="</document></td><p>ok</p>")
    @example(markup="<table><tr><td>a<table><tr><td>b<td>c</table><td>d</td></tr></table>")
    @example(markup="<td><script>x = '<td>&amp;</td>';</script>y<style>a > b</style>")
    @example(markup="<TD class='a > b' CHECKED>a < b &amp; c<br/><td/>d")
    # Self-closing cells are empty and never open.
    @example(markup="<table><tr><td/><td>x</td><th/>y</table>")
    # A start tag whose attributes do not end in > is text.
    @example(markup="<table><tr><td>a<b'= =='x>c<td>d</table>")
    # A row with no direct cells: all its td, then all its th.
    @example(markup="<table><tr><b><th>h</th><td>a</td></b><p><td>b<th>i</table>")
    # Two nested cells holding equal text when the inner one closes: the
    # text after it belongs to the outer cell only.
    @example(markup="<table><tr><td><table><tr><td>x</table>y<td>z</table>")
    # Nested-table text counts in the enclosing cell.
    @example(markup="<table><tr><td>Brand<td><table><tr><td>Hi<td>tachi</table></table>")
    def test_generated_markup(self, markup):
        reference = oracle_parse(markup)
        assert table_rows(markup) == [oracle_rows(t) for t in reference.find_all("table")]
        assert [(p.name, p.value) for p in extract_pairs(markup)] == oracle_pairs(reference)

    def test_every_small_corpus_page(self):
        web = CorpusGenerator.from_preset(CorpusPreset.SMALL).generate().web
        extractor = WebPageAttributeExtractor(web)
        for url in web.urls():
            page = web.fetch(url)
            expected = oracle_pairs(oracle_parse(page))
            assert extractor.extract_from_url(url).pairs() == [
                AttributeValue(name, value) for name, value in expected
            ], url

    def test_unterminated_start_tag_fails_in_linear_time(self):
        """A start tag whose attributes never reach ``>`` must not retry
        every split of their whitespace (3**60 tries here)."""
        markup = "<table><tr><td>x</td><td><a" + " b=c  " * 60 + 'd="'
        started = time.perf_counter()
        rows = table_rows(markup)
        assert time.perf_counter() - started < 2.0
        assert rows[0][0][0] == "x"

    def test_hand_built_table_rows(self):
        """A row's cell holding a nested table: the row reads the nested
        text, and the nested table is a table of its own."""
        markup = "<table><tr><td>Brand</td><td><table><tr><td>inner</table></table>"
        reference = oracle_parse(markup)
        assert [oracle_rows(t) for t in reference.find_all("table")] == [
            [["Brand", "inner"]],
            [["inner"]],
        ]
        assert table_rows(markup) == [[["Brand", "inner"]], [["inner"]]]
