// Package xmlio serializes workflow specifications, runs and data
// annotations as XML, mirroring the paper's storage format ("both the
// specification and runs are stored as XML files"). Parsing time is
// excluded from all measurements, as in the paper.
//
// Specifications go through encoding/xml: a store reads its one
// specification when it opens. Runs are read on every session-cache
// miss and written on every ingest, so they have a codec built for the
// run schema:
//
//	<run workflow="paper">
//	  <vertices>
//	    <vertex id="0" module="a"></vertex>
//	  </vertices>
//	  <edges>
//	    <edge from="0" to="1">
//	      <data>x1</data>
//	    </edge>
//	  </edges>
//	</run>
//
// # Encoding
//
// EncodeRun renders the document into a pooled buffer and writes it
// with one Write. The bytes are the ones encoding/xml's Encoder wrote
// with Indent("", "  ") for the reflective schema this codec replaced,
// plus a final newline. That includes its escaping (the five markup
// characters, tab, newline and carriage return as references; bytes
// that are not XML characters as U+FFFD), the empty
// <vertices></vertices> of a run without vertices, and the omission of
// empty item names. Stored documents therefore do not change.
//
// # Decoding
//
// DecodeRun reads the whole body first, so a size cap such as
// http.MaxBytesReader covers all of it. It then scans the bytes without
// reflection and without allocating per element. It accepts what
// encoding/xml's strict Decoder accepted for the schema:
//
//   - an XML declaration (version 1.0 or none given, encoding UTF-8 or
//     none given), comments, processing instructions and <!DOCTYPE ...>
//     directives anywhere outside tags;
//   - white space inside tags, either quote style, and attributes in
//     any order; of repeated attributes the last wins, but every
//     integer one must parse;
//   - the five named entities and &#N; and &#xN; references in
//     attribute values and text, CDATA sections, and "\r\n" or "\r"
//     read as "\n";
//   - namespace prefixes on elements and attributes, matched by local
//     name (so xmlns:id="3" sets the id, as it did before);
//   - unknown attributes, and unknown elements anywhere, which are
//     skipped but must be well formed; a <data> item's name is its own
//     character data, not that of elements nested in it;
//   - text before the root element, and anything after </run>, which is
//     not parsed.
//
// An integer attribute (id, from, to) follows encoding/xml: an empty
// value is 0, otherwise it is strconv.ParseInt of the value with
// surrounding white space trimmed, so " 3 " and "+3" are both 3.
//
// Every check on the decoded run stays, and errors come in the same
// order: ids dense and in order, modules known to the specification,
// edges in range, then run.Validate and, with data items,
// provdata.Annotation.Validate. Read and syntax errors start with
// "xmlio: decode run:"; read errors are wrapped with %w, so
// http.MaxBytesError and transient storage errors still classify
// through errors.As and errors.Is. Nothing returned refers to the input
// or to the decoder's pooled scratch.
//
// # The oracle
//
// The tests keep the reflective encoding/xml decoder as an oracle, and
// FuzzDecodeRunOracle holds DecodeRun to it. Whatever DecodeRun
// accepts, the oracle accepts, with the same origins, the same edges in
// the same order and the same annotation. Whatever the oracle rejects,
// DecodeRun rejects. DecodeRun rejects input the oracle accepts only in
// these cases, each with a test in TestDecodeRunDivergences:
//
//   - Non-ASCII names. Element, attribute and processing-instruction
//     names must be ASCII; encoding/xml also takes the letters of its
//     Unicode name tables.
//   - A read error after the root element. The oracle stops reading at
//     </run>; DecodeRun reads the whole body, so a failing read
//     anywhere fails the decode.
//
// FuzzEncodeRunOracle and TestEncodeRunMatchesOracle hold EncodeRun to
// the oracle's bytes the same way.
package xmlio
