// Package xmlio serializes workflow specifications, runs and data
// annotations as XML, mirroring the paper's storage format ("both the
// specification and runs are stored as XML files"). Parsing time is
// excluded from all measurements, as in the paper.
//
// Specifications go through encoding/xml: a store reads its one
// specification when it opens. Runs are decoded on every ingest and on
// the first path query of a loaded session, so they have a codec built
// for the run schema:
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
// with one Write; AppendRun renders it into the caller's buffer, grown
// once to the document's size before anything is written. The bytes
// are the ones encoding/xml's Encoder writes with Indent("", "  ") for
// the reflective run schema, plus a final newline.
// That includes its escaping (the five markup characters, tab, newline
// and carriage return as references; bytes that are not XML characters
// as U+FFFD), the empty <vertices></vertices> of a run without
// vertices, and the omission of empty item names. A store writes this
// encoding only for a run that exists only in memory (store.PutRun, a
// finished stream), appended into a pooled buffer it writes from; a
// run that arrives as a document is stored as the bytes the client
// sent.
//
// # Decoding
//
// DecodeRun reads the whole body first, so a size cap such as
// http.MaxBytesReader covers all of it. It then decodes the bytes in
// one of two ways, and accepts exactly what encoding/xml's strict
// Decoder accepts for the schema, decoded the same.
//
// First the whole document is matched in one step, without reflection
// and without allocating per element, against the layout AppendRun
// writes: <run>, with or without its workflow attribute, then
// <vertices> holding <vertex id="DIGITS" module="TEXT"> elements, then
// <edges> holding <edge from="DIGITS" to="DIGITS"> elements with their
// <data>TEXT</data> children, where DIGITS is 1 to 18 ASCII digits and
// TEXT has no entity, quote, carriage return, '<', ']' or non-ASCII
// byte. Any run of XML white space (space, tab, carriage return,
// newline) may stand wherever AppendRun indents, that is between
// elements, and an empty <vertex> or <edge> may close with "/>". Every
// document AppendRun writes for names that need no escaping takes this
// path, in LF or CRLF. Nothing after </run> is read.
//
// At the first byte that departs from that layout (a declaration, a
// comment, an entity, another quote style or attribute order, a
// namespace prefix, an unknown element, white space inside a tag), the
// record so far is dropped and encoding/xml decodes the same bytes into
// the reflective run schema, at many times the match's cost per byte
// (the decode-foreign row of the root package's BenchmarkIngestStages).
// Either way the same record goes to one place that checks it.
//
// The two steps of DecodeRun are also exported apart, for the ingest
// path: ReadRunDocument reads a PUT body into a pooled decoder and
// returns it as a Document. store.PutRunDocument decodes the Document
// where it was read (Document.Decode) and hands the same bytes to the
// backend's WriteRun, so a stored document is the client's and the
// body is held once; the server releases the decoder after the
// response. A stored session gets its document from store.ReadBlob,
// which borrows a blob the backend holds in memory and reads a file at
// its size, and decodes it with DecodeRunBytes only when needed. The
// decoder sizes its vertex and edge scratch from the document's length
// in one step, so a decoder fresh from the pool allocates as often as a
// reused one, give or take that one step.
//
// Every check on the decoded run stays, and errors come in the same
// order: ids dense and in order, modules known to the specification,
// edges in range, then run.Validate and, with data items,
// provdata.Annotation.Validate. Read and syntax errors start with
// "xmlio: decode run:"; syntax errors are encoding/xml's, and read
// errors are wrapped with %w, so http.MaxBytesError and transient
// storage errors still classify through errors.As and errors.Is.
// Nothing returned refers to the input or to the decoder's pooled
// scratch.
//
// # The oracle
//
// The tests keep the reflective encoding/xml codec over the same schema
// as an oracle, and FuzzDecodeRunOracle holds DecodeRun to it: whatever
// the oracle accepts, DecodeRun accepts, with the same origins, the
// same edges in the same order and the same annotation, and whatever
// the oracle rejects, DecodeRun rejects with the same error. The one
// difference is a read error after the root element: the oracle stops
// reading at </run>, while DecodeRun reads the whole body, so a
// failing read anywhere fails the decode (TestDecodeRunDivergences).
//
// TestDecodeRunNearCanonical holds the hand-over between the one-step
// match and encoding/xml to the oracle, on every variant
// xmliotest.NearCanonical makes of a canonical document (which also
// seed FuzzDecodeRunOracle and the PUT path's FuzzIngestRun) and on
// every prefix of one. TestMatchRunTakesAppendRunLayout checks that the
// match takes every document AppendRun writes.
//
// FuzzEncodeRunOracle and TestEncodeRunMatchesOracle hold EncodeRun to
// the oracle's bytes the same way.
package xmlio
