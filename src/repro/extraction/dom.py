"""A lightweight DOM tree built by one compiled-regex tokenizer.

The extractor only needs element names, attributes, text content and
descendant traversal — a full-blown HTML5 tree builder is unnecessary.
:func:`parse_html` makes a single pass over the page with one
``re`` alternation (:data:`_TOKEN`) and builds the tree as it goes.  The
grammar follows the standard library's ``html.parser`` so pages parse
to the same tree:

* ``<!-- ... -->`` comments (closed by the first ``--\\s*>``), ``<!...>``
  declarations (doctype, bogus comments), ``<![CDATA[ ... ]]>``-style
  marked sections and ``<?...>`` processing instructions are skipped;
* end tags ``</name ...>`` close an element; ``</>`` and other nameless
  end tags are skipped;
* start tags ``<name attr=value ...>`` and self-closing ``<name ... />``
  open an element.  Attribute values may be single-quoted,
  double-quoted (either may contain ``>``) or bare; names are
  lowercased, values unescaped, and a valueless attribute gets ``""``;
* ``script`` and ``style`` hold raw text up to their matching end tag:
  it is neither tokenised nor unescaped (``html.parser``'s CDATA mode),
  and an unclosed one swallows the rest of the page;
* the text between tokens is unescaped with :func:`html.unescape`; a
  ``<`` that opens no complete token is kept as a one-character text
  run, as ``html.parser`` does.

The tree builder is forgiving: tag names are lowercased, a few start
tags implicitly close still-open siblings (``td``/``th``/``tr``/``li``/
``p``/``option``), void elements (``br``, ``img``, ...) never expect a
closing tag, stray end tags are ignored, and whitespace-only text is
dropped, so the messy markup found on real merchant pages does not
crash extraction.

Because the open-element stack *is* each new node's ancestor chain,
the parser also records table structure while it builds: the document
root's :attr:`DomNode.tables` lists every ``<table>`` in document order,
and each table's :attr:`DomNode.rows` lists the ``<tr>`` elements whose
nearest enclosing table it is.  :mod:`repro.extraction.tables` reads
those lists instead of re-walking the tree.
"""

from __future__ import annotations

import re
from html import unescape
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["DomNode", "parse_html"]

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

#: Start-tag internals, used only for tags that carry attributes.
_TAG_NAME = re.compile(rf"({_NAME})(?:\s|/(?!>))*")
_ATTRIBUTE = re.compile(
    r"""((?<=['"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*"""
    r"""('[^']*'|"[^"]*"|(?!['"])[^>\s]*))?(?:\s|/(?!>))*"""
)

#: Elements whose content is raw text, and the end tag that closes each.
_RAW_TEXT_END = {
    "script": re.compile(r"</\s*script\s*>", re.IGNORECASE),
    "style": re.compile(r"</\s*style\s*>", re.IGNORECASE),
}


class DomNode:
    """A node of the parsed DOM tree.

    ``tag`` is ``None`` for text nodes (whose content lives in ``text``).
    :func:`parse_html` also fills two structural indexes: ``tables`` on
    the document root (every ``<table>``, in document order) and ``rows``
    on each table (its own ``<tr>`` elements, excluding rows of nested
    tables).  Both are ``None`` on nodes built by hand.
    """

    __slots__ = ("tag", "attributes", "children", "text", "parent", "tables", "rows")

    def __init__(
        self,
        tag: Optional[str],
        attributes: Optional[Dict[str, str]] = None,
        children: Optional[List["DomNode"]] = None,
        text: str = "",
        parent: Optional["DomNode"] = None,
    ) -> None:
        self.tag = tag
        self.attributes: Dict[str, str] = {} if attributes is None else attributes
        self.children: List["DomNode"] = [] if children is None else children
        self.text = text
        self.parent = parent
        self.tables: Optional[List["DomNode"]] = None
        self.rows: Optional[List["DomNode"]] = None

    # -- construction -------------------------------------------------------

    def add_child(self, child: "DomNode") -> "DomNode":
        """Attach ``child`` and return it."""
        child.parent = self
        self.children.append(child)
        return child

    # -- traversal ----------------------------------------------------------

    def is_text(self) -> bool:
        """Whether this is a text node."""
        return self.tag is None

    def iter_descendants(self) -> Iterator["DomNode"]:
        """Depth-first iterator over all descendants (excluding ``self``)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find_all(self, tag: str) -> List["DomNode"]:
        """All descendant elements with the given tag name."""
        wanted = tag.lower()
        return [node for node in self.iter_descendants() if node.tag == wanted]

    def find_first(self, tag: str) -> Optional["DomNode"]:
        """The first descendant element with the given tag name, or ``None``."""
        wanted = tag.lower()
        for node in self.iter_descendants():
            if node.tag == wanted:
                return node
        return None

    def direct_children(self, tag: str) -> List["DomNode"]:
        """Direct children with the given tag name."""
        wanted = tag.lower()
        return [child for child in self.children if child.tag == wanted]

    def get_attribute(self, name: str, default: str = "") -> str:
        """Value of an HTML attribute, or ``default``."""
        return self.attributes.get(name.lower(), default)

    def text_content(self) -> str:
        """Concatenated, whitespace-normalised text of this subtree."""
        fragments: List[str] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.tag is None:
                fragments.append(node.text)
            else:
                stack.extend(reversed(node.children))
        return " ".join(" ".join(fragments).split())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_text():
            return f"DomNode(text={self.text[:30]!r})"
        return f"DomNode(<{self.tag}>, children={len(self.children)})"


def _parse_start_tag(markup: str) -> Optional[Tuple[str, Dict[str, str], bool]]:
    """``(tag, attributes, self_closing)`` of a start tag with attributes.

    Returns ``None`` when the markup does not end in ``>`` or ``/>`` once
    its attributes are read; such a tag is page text, not an element.
    """
    match = _TAG_NAME.match(markup, 1)
    tag = match.group(1).lower()
    attributes: Dict[str, str] = {}
    position, end = match.end(), len(markup)
    while position < end:
        match = _ATTRIBUTE.match(markup, position)
        if match is None:
            break
        name, rest, value = match.group(1, 2, 3)
        if not rest:
            value = ""
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        attributes[name.lower()] = unescape(value) if value else ""
        position = match.end()
    closer = markup[position:].strip()
    if closer not in (">", "/>"):
        return None
    return tag, attributes, closer == "/>"


def parse_html(html_text: str) -> DomNode:
    """Parse an HTML document into a :class:`DomNode` tree.

    The returned node is a synthetic ``document`` root; use
    :meth:`DomNode.find_all` to locate elements.

    Examples
    --------
    >>> root = parse_html("<table><tr><td>Brand</td><td>Hitachi</td></tr></table>")
    >>> [cell.text_content() for cell in root.find_all("td")]
    ['Brand', 'Hitachi']
    """
    text = html_text or ""
    root = DomNode("document")
    root.tables = tables = []
    # The open elements: the ancestor chain of the next node.
    stack: List[DomNode] = [root]
    parent = root
    position: Optional[int] = 0
    while position is not None:
        for match in _TOKEN.finditer(text, position):
            data, token, name, attribute_text, end_name, tolerant_end_name = match.groups()
            if data:
                data = unescape(data).strip()
                if data:
                    parent.children.append(DomNode(None, None, None, data, parent))
            if name is not None:
                if attribute_text:
                    parsed = _parse_start_tag(token)
                    if parsed is None:
                        data = token.strip()
                        parent.children.append(DomNode(None, None, None, data, parent))
                        continue
                    tag, attributes, self_closing = parsed
                else:
                    tag, attributes, self_closing = name.lower(), {}, False
                closes = None if self_closing else _IMPLICIT_CLOSERS.get(tag)
                if closes:
                    while parent is not root and parent.tag in closes:
                        stack.pop()
                        parent = stack[-1]
                node = DomNode(tag, attributes, None, "", parent)
                parent.children.append(node)
                if tag == "table":
                    node.rows = []
                    tables.append(node)
                elif tag == "tr":
                    for ancestor in reversed(stack):
                        if ancestor.tag == "table":
                            ancestor.rows.append(node)
                            break
                if self_closing or tag in _VOID_ELEMENTS:
                    continue
                raw_end = _RAW_TEXT_END.get(tag)
                if raw_end is None:
                    stack.append(node)
                    parent = node
                    continue
                # Raw text: resume tokenising after the closing tag.
                closing = raw_end.search(text, match.end())
                if closing is None:
                    position = None
                    break
                data = text[match.end() : closing.start()].strip()
                if data:
                    node.children.append(DomNode(None, None, None, data, node))
                position = closing.end()
                break
            tag = (end_name or tolerant_end_name or "").lower()
            if tag:
                # Pop until the matching open tag; a stray end tag is ignored.
                if parent.tag == tag and parent is not root:
                    stack.pop()
                    parent = stack[-1]
                    continue
                for index in range(len(stack) - 2, 0, -1):
                    if stack[index].tag == tag:
                        del stack[index:]
                        parent = stack[-1]
                        break
            elif token == "<":
                parent.children.append(DomNode(None, None, None, "<", parent))
        else:
            position = None
    return root
