// Package rpq answers regular path queries over skeleton-labeled runs:
// does some directed path between two run vertices spell a word matching
// a regular expression over module labels? It follows the authors' RPQ
// extension of the skeleton-label scheme (arXiv 1408.0528): compile the
// pattern into an automaton, then evaluate the product of the automaton
// with the run graph, using label-based reachability to prune every
// branch that cannot reach the target.
//
// # Patterns
//
// A pattern is a regular expression over module names:
//
//	expr   := term ('|' term)*         alternation
//	term   := factor*                  concatenation (whitespace separated)
//	factor := atom ('*' | '+' | '?')*  quantifiers bind to the atom
//	atom   := name | '.' | '(' expr ')'
//
// A name is a maximal run of bytes that are not whitespace, not one of
// the structural characters `| * + ? ( ) .`, and not reserved
// (`[ ] { } ^ $ \ " '` are reserved for future syntax). `.` matches any
// single label. A name that is not a module of the specification parses
// fine — patterns are spec-independent text — but matches nothing.
//
// # Word semantics
//
// The word spelled by a path v0 -> v1 -> ... -> vk is the label sequence
// of v1..vk: the start vertex contributes no symbol, every edge
// contributes the label of the vertex it enters. The empty path (from ==
// to) spells the empty word, so a nullable pattern matches every vertex
// paired with itself.
//
// # Engines
//
// Compile builds a Thompson NFA (states linear in the pattern) and a
// class table: every symbol the pattern does not name is class 0, which
// only '.' takes, and each named symbol has a class of its own.
// NewMatcher wraps the NFA in a lazily determinized DFA under a hard
// state budget — pathological patterns fail with ErrStateBudget instead
// of exponential memory — whose states each hold one dense transition
// row over the classes. Matcher.Eval runs the pruned breadth-first
// product search without touching a map: a move is a row load, and the
// visited (vertex, DFA state) set and the queue are pooled scratch,
// reset in O(1) by an epoch stamp per vertex. Eval's reach probes (which
// pairs, in which order) and the DFA states it builds (which sets, in
// which order) are fixed by the pattern, graph and pair alone, and tests
// hold them to the map-based walk this engine replaced.
//
// The deliberately naive reference evaluator, dag.MatchAutomaton, runs
// the same NFA directly over (vertex, state) pairs with no
// determinization and no pruning: the differential oracle the fast
// engine is tested against.
package rpq

import (
	"errors"
	"fmt"

	"repro/internal/dag"
)

const (
	// MaxPatternLen bounds the pattern text Compile accepts, the
	// first-line defense against hostile inputs.
	MaxPatternLen = 4096
	// MaxNesting bounds parenthesis depth.
	MaxNesting = 128
	// DefaultMaxDFAStates is the determinization budget NewMatcher
	// applies when given no explicit one.
	DefaultMaxDFAStates = 4096
)

// ErrStateBudget reports a pattern whose lazy determinization needs more
// DFA states than the matcher's budget: the query is rejected rather
// than allowed exponential memory.
var ErrStateBudget = errors.New("rpq: pattern needs more DFA states than the budget allows")

// ParseError reports a syntactically invalid pattern.
type ParseError struct {
	Pos int // byte offset into the pattern
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rpq: pattern offset %d: %s", e.Pos, e.Msg)
}

// Symbol sentinels for nstate.sym. Real symbols (spec vertex IDs) are
// always non-negative.
const (
	symNone dag.VertexID = -1 // state has no symbol arrow (eps only)
	symWild dag.VertexID = -2 // arrow taken on every symbol
	symDead dag.VertexID = -3 // arrow never taken (unknown label name)
)

// nstate is one Thompson NFA state: either a single symbol arrow or up
// to two epsilon arrows (the construction never needs both).
type nstate struct {
	sym dag.VertexID
	to  int32
	eps [2]int32
}

// Prog is a compiled pattern: a Thompson NFA over spec-vertex symbols.
// It is immutable and safe for concurrent use. Prog implements
// dag.Automaton, so the naive reference evaluator runs the exact same
// automaton the fast engine determinizes.
//
// Every symbol the pattern does not name moves the automaton the same
// way (only '.' takes it), so a Prog also carries a class table: class
// 0 for any unnamed symbol, one class per named symbol. The DFA's
// transition rows are indexed by class. Symbols are spec vertex IDs, so
// the table is as long as the largest named one.
type Prog struct {
	states  []nstate
	start   int32
	accept  int32
	pattern string
	class   []uint16 // symbol -> class; symbols past the end are class 0
	classes int      // number of classes, the unnamed class included
}

var _ dag.Automaton = (*Prog)(nil)

// Compile parses pattern and builds its NFA. lookup resolves a label
// name to its symbol (a non-negative spec vertex ID); names it rejects
// still parse but can never match. A nil lookup rejects every name,
// which keeps parsing spec-independent.
func Compile(pattern string, lookup func(name string) (dag.VertexID, bool)) (*Prog, error) {
	if len(pattern) > MaxPatternLen {
		return nil, &ParseError{0, fmt.Sprintf("pattern is %d bytes, the limit is %d", len(pattern), MaxPatternLen)}
	}
	if lookup == nil {
		lookup = func(string) (dag.VertexID, bool) { return 0, false }
	}
	// Patterns run about one NFA state per two bytes: size for that
	// rather than growing the state slice from empty.
	p := &parser{src: pattern, lookup: lookup, states: make([]nstate, 0, len(pattern)/2+2)}
	f, err := p.parseAlt()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos < len(p.src) {
		return nil, &ParseError{p.pos, fmt.Sprintf("unexpected %q", p.src[p.pos])}
	}
	accept := p.add(nstate{sym: symNone, eps: [2]int32{-1, -1}})
	p.patchAll(f.outs, accept)
	prog := &Prog{states: p.states, start: f.start, accept: accept, pattern: pattern, classes: 1}
	top := dag.VertexID(-1)
	for _, st := range p.states {
		top = max(top, st.sym)
	}
	prog.class = make([]uint16, top+1)
	for _, st := range p.states {
		if st.sym >= 0 && prog.class[st.sym] == 0 {
			prog.class[st.sym] = uint16(prog.classes)
			prog.classes++
		}
	}
	return prog, nil
}

// classOf returns the class of symbol sym.
func (p *Prog) classOf(sym dag.VertexID) int {
	if uint(sym) < uint(len(p.class)) {
		return int(p.class[sym])
	}
	return 0
}

// Pattern returns the source text the program was compiled from.
func (p *Prog) Pattern() string { return p.pattern }

// NumStates returns the NFA state count.
func (p *Prog) NumStates() int { return len(p.states) }

// Start returns the NFA start state.
func (p *Prog) Start() int { return int(p.start) }

// Accepting reports whether q is the accept state.
func (p *Prog) Accepting(q int) bool { return int32(q) == p.accept }

// AppendEps appends q's epsilon-successors to dst and returns it.
func (p *Prog) AppendEps(dst []int, q int) []int {
	for _, e := range p.states[q].eps {
		if e >= 0 {
			dst = append(dst, int(e))
		}
	}
	return dst
}

// AppendMove appends q's successors on symbol sym to dst and returns it.
// sym must be non-negative (the sentinels are internal).
func (p *Prog) AppendMove(dst []int, q int, sym dag.VertexID) []int {
	s := &p.states[q]
	if s.sym == symWild || (s.sym >= 0 && s.sym == sym) {
		dst = append(dst, int(s.to))
	}
	return dst
}

// parser is a recursive-descent parser building Thompson fragments
// in place.
type parser struct {
	src    string
	pos    int
	depth  int
	lookup func(string) (dag.VertexID, bool)
	states []nstate
}

// frag is a partially built automaton: a start state plus the dangling
// arrows a later fragment (or the accept state) will be patched into.
type frag struct {
	start int32
	outs  []patch
}

// patch addresses one dangling arrow: slot 0 is nstate.to, slots 1 and 2
// are the two epsilon arrows.
type patch struct {
	st   int32
	slot uint8
}

func (p *parser) add(s nstate) int32 {
	p.states = append(p.states, s)
	return int32(len(p.states) - 1)
}

func (p *parser) patchAll(outs []patch, target int32) {
	for _, o := range outs {
		switch o.slot {
		case 0:
			p.states[o.st].to = target
		case 1:
			p.states[o.st].eps[0] = target
		default:
			p.states[o.st].eps[1] = target
		}
	}
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func isReserved(c byte) bool {
	switch c {
	case '[', ']', '{', '}', '^', '$', '\\', '"', '\'':
		return true
	}
	return false
}

func isNameByte(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '|', '*', '+', '?', '(', ')', '.':
		return false
	}
	return !isReserved(c)
}

func (p *parser) parseAlt() (frag, error) {
	f, err := p.parseConcat()
	if err != nil {
		return frag{}, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '|' {
			return f, nil
		}
		p.pos++
		g, err := p.parseConcat()
		if err != nil {
			return frag{}, err
		}
		sp := p.add(nstate{sym: symNone, eps: [2]int32{f.start, g.start}})
		f = frag{start: sp, outs: append(f.outs, g.outs...)}
	}
}

func (p *parser) parseConcat() (frag, error) {
	var f frag
	have := false
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			break
		}
		if c := p.src[p.pos]; c == '|' || c == ')' {
			break
		}
		g, err := p.parseFactor()
		if err != nil {
			return frag{}, err
		}
		if !have {
			f, have = g, true
			continue
		}
		p.patchAll(f.outs, g.start)
		f = frag{start: f.start, outs: g.outs}
	}
	if !have {
		// An empty term ("a|", "()") is epsilon.
		st := p.add(nstate{sym: symNone, eps: [2]int32{-1, -1}})
		return frag{start: st, outs: []patch{{st, 1}}}, nil
	}
	return f, nil
}

func (p *parser) parseFactor() (frag, error) {
	f, err := p.parseAtom()
	if err != nil {
		return frag{}, err
	}
	// Quantifiers must immediately follow their atom: "a *" is a
	// dangling quantifier, not postfix application at a distance.
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '*':
			p.pos++
			sp := p.add(nstate{sym: symNone, eps: [2]int32{f.start, -1}})
			p.patchAll(f.outs, sp)
			f = frag{start: sp, outs: []patch{{sp, 2}}}
		case '+':
			p.pos++
			sp := p.add(nstate{sym: symNone, eps: [2]int32{f.start, -1}})
			p.patchAll(f.outs, sp)
			f = frag{start: f.start, outs: []patch{{sp, 2}}}
		case '?':
			p.pos++
			sp := p.add(nstate{sym: symNone, eps: [2]int32{f.start, -1}})
			f = frag{start: sp, outs: append(f.outs, patch{sp, 2})}
		default:
			return f, nil
		}
	}
	return f, nil
}

func (p *parser) parseAtom() (frag, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return frag{}, &ParseError{p.pos, "unexpected end of pattern"}
	}
	switch c := p.src[p.pos]; {
	case c == '(':
		p.depth++
		if p.depth > MaxNesting {
			return frag{}, &ParseError{p.pos, fmt.Sprintf("more than %d nested groups", MaxNesting)}
		}
		p.pos++
		f, err := p.parseAlt()
		if err != nil {
			return frag{}, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return frag{}, &ParseError{p.pos, "missing ')'"}
		}
		p.pos++
		p.depth--
		return f, nil
	case c == '.':
		p.pos++
		st := p.add(nstate{sym: symWild, to: -1, eps: [2]int32{-1, -1}})
		return frag{start: st, outs: []patch{{st, 0}}}, nil
	case c == '*' || c == '+' || c == '?':
		return frag{}, &ParseError{p.pos, fmt.Sprintf("quantifier %q has nothing to repeat", c)}
	case isReserved(c):
		return frag{}, &ParseError{p.pos, fmt.Sprintf("reserved character %q", c)}
	default:
		start := p.pos
		for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
			p.pos++
		}
		sym, ok := p.lookup(p.src[start:p.pos])
		if !ok || sym < 0 {
			sym = symDead
		}
		st := p.add(nstate{sym: sym, to: -1, eps: [2]int32{-1, -1}})
		return frag{start: st, outs: []patch{{st, 0}}}, nil
	}
}
