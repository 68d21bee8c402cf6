"""From-scratch XML I/O.

The paper's tooling assumes three capabilities, all provided here without
third-party dependencies:

* a **streaming tokenizer** (:func:`~repro.xmlio.parser.tokens`, one regex
  pass; :func:`iterparse` wraps its tuples into events) in the role of
  expat — the paper times a bare scan over the benchmark document as the
  bulkload floor;
* a **lightweight DOM** (:mod:`repro.xmlio.dom`) used by the main-memory
  stores and the embedded System-G analogue;
* a **canonical serialization** (:mod:`repro.xmlio.canonical`) addressing the
  output-equivalence problem the paper highlights in Section 1 ("the problem
  of deciding when to regard the output of XML query processors as
  equivalent still requires research").

The supported XML subset is exactly the paper's (Section 4.4): no namespaces,
no custom entities or notations, seven-bit ASCII content.  Constructs outside
the subset are *rejected*, never silently mis-parsed.
"""

from repro.xmlio.dom import Document, Element, Text
from repro.xmlio.events import Characters, EndElement, Event, StartElement
from repro.xmlio.parser import iterparse, parse, scan
from repro.xmlio.serialize import serialize, XMLWriter
from repro.xmlio.canonical import canonicalize

__all__ = [
    "Document", "Element", "Text",
    "Event", "StartElement", "EndElement", "Characters",
    "iterparse", "parse", "scan",
    "serialize", "XMLWriter", "canonicalize",
]
