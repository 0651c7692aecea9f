package rpq

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/dag"
)

const (
	// deadState is the implicit DFA reject state (the empty NFA set). It
	// is never stored; transitions into it simply end the branch.
	deadState = int32(-1)
	// unknownState marks a transition not determinized yet.
	unknownState = int32(-2)
)

// dstate is one lazily built DFA state: an epsilon-closed, sorted set of
// NFA states.
type dstate struct {
	set    []int32
	accept bool
}

// Matcher evaluates one compiled pattern with a lazily determinized DFA
// under a hard state budget. Each DFA state has one dense row of
// transitions over the pattern's symbol classes (see Prog), filled in
// as the walk first needs them. The DFA cache persists across Eval
// calls, so evaluating many pairs with one Matcher amortizes
// determinization. A Matcher is not safe for concurrent use; create one
// per goroutine (the Prog behind it is shareable).
type Matcher struct {
	p         *Prog
	maxStates int
	states    []dstate
	next      []int32 // next[si*p.classes+c]: state si's move on class c
	index     map[string]int32
	seen      []bool // closure scratch, one flag per NFA state
	stack     []int32
	moved     []int32
	key       []byte
}

// NewMatcher wraps a compiled pattern in a DFA evaluator holding at most
// maxStates determinized states (DefaultMaxDFAStates when <= 0).
func NewMatcher(p *Prog, maxStates int) *Matcher {
	if maxStates <= 0 {
		maxStates = DefaultMaxDFAStates
	}
	return &Matcher{
		p:         p,
		maxStates: maxStates,
		index:     make(map[string]int32),
		seen:      make([]bool, len(p.states)),
	}
}

// NumDFAStates returns how many DFA states have been built so far.
func (m *Matcher) NumDFAStates() int { return len(m.states) }

// startState returns (building on first use) the DFA start state.
func (m *Matcher) startState() (int32, error) {
	if len(m.states) == 0 {
		m.moved = append(m.moved[:0], m.p.start)
		return m.intern(m.closure(m.moved))
	}
	return 0, nil
}

// closure returns the sorted epsilon-closure of seed in the matcher's
// scratch; intern copies it if the set is new.
func (m *Matcher) closure(seed []int32) []int32 {
	m.stack = m.stack[:0]
	push := func(q int32) {
		if !m.seen[q] {
			m.seen[q] = true
			m.stack = append(m.stack, q)
		}
	}
	for _, q := range seed {
		push(q)
	}
	for i := 0; i < len(m.stack); i++ {
		for _, e := range m.p.states[m.stack[i]].eps {
			if e >= 0 {
				push(e)
			}
		}
	}
	for _, q := range m.stack {
		m.seen[q] = false
	}
	slices.Sort(m.stack)
	return m.stack
}

// intern returns the DFA state for an epsilon-closed sorted set, adding
// it if new. The empty set is deadState. Exceeding the state budget
// returns ErrStateBudget.
func (m *Matcher) intern(set []int32) (int32, error) {
	if len(set) == 0 {
		return deadState, nil
	}
	m.key = m.key[:0]
	for _, q := range set {
		m.key = binary.LittleEndian.AppendUint32(m.key, uint32(q))
	}
	if si, ok := m.index[string(m.key)]; ok {
		return si, nil
	}
	if len(m.states) >= m.maxStates {
		return 0, ErrStateBudget
	}
	si := int32(len(m.states))
	m.states = append(m.states, dstate{set: slices.Clone(set), accept: slices.Contains(set, m.p.accept)})
	for range m.p.classes {
		m.next = append(m.next, unknownState)
	}
	m.index[string(m.key)] = si
	return si, nil
}

// determinize builds and memoizes state si's move on a symbol of class
// c, the slow path of the walk's row lookup: class 0
// is taken only by '.', class k by '.' and by the one symbol it names.
func (m *Matcher) determinize(si int32, c int) (int32, error) {
	m.moved = m.moved[:0]
	for _, q := range m.states[si].set {
		st := &m.p.states[q]
		if st.sym == symWild || (st.sym >= 0 && m.p.classOf(st.sym) == c) {
			m.moved = append(m.moved, st.to)
		}
	}
	to, err := m.intern(m.closure(m.moved))
	if err != nil {
		return 0, err
	}
	m.next[int(si)*m.p.classes+c] = to
	return to, nil
}

// Eval reports whether some directed path in g from one vertex to
// another spells a word the pattern accepts. syms assigns every vertex
// its label symbol (a run's Origin column works verbatim); the word of
// a path is the symbol sequence of its vertices strictly after 'from',
// so from == to matches the empty word iff the pattern is nullable.
//
// reach is the skeleton-label reachability oracle used for pruning and
// may be nil (no pruning). With it, Eval upholds the label-pruning
// guarantee: no product state whose graph vertex cannot reach 'to' is
// ever explored, and an unreachable pair is rejected in O(1) before any
// expansion. The probes are part of the contract: reach(from, to) once
// for a pair that is not answered by the empty word, then reach(y, to)
// for every out-neighbour y != to of every dequeued product state, in
// breadth-first order.
//
// The walk touches no map: a move is one load from the DFA state's
// class row, and the visited product states and the queue live in
// scratch drawn from a pool, sized to the largest graph walked and
// cleared in O(1) by an epoch stamp per vertex.
//
// Eval returns ErrStateBudget when lazy determinization would exceed
// the matcher's state budget.
func (m *Matcher) Eval(g *dag.Graph, syms []dag.VertexID, reach func(u, v dag.VertexID) bool, from, to dag.VertexID) (bool, error) {
	return m.eval(nil, g, syms, reach, from, to)
}

// eval is Eval walking with scratch w, or with pooled scratch when w is
// nil.
func (m *Matcher) eval(w *walk, g *dag.Graph, syms []dag.VertexID, reach func(u, v dag.VertexID) bool, from, to dag.VertexID) (bool, error) {
	start, err := m.startState()
	if err != nil {
		return false, err
	}
	if from == to && m.states[start].accept {
		return true, nil
	}
	if from != to && reach != nil && !reach(from, to) {
		// The labels answer "no path at all" in O(1): nothing to explore.
		return false, nil
	}
	if w == nil {
		w = walks.Get().(*walk)
		defer w.release()
	}
	w.reset(g.NumVertices())
	w.visit(from, start)
	w.queue = append(w.queue, product{from, start})
	for i := 0; i < len(w.queue); i++ {
		p := w.queue[i]
		row := int(p.d) * m.p.classes
		for _, y := range g.Out(p.v) {
			if y != to && reach != nil && !reach(y, to) {
				continue // label pruning: y cannot reach the target
			}
			c := m.p.classOf(syms[y])
			d2 := m.next[row+c]
			if d2 == unknownState {
				if d2, err = m.determinize(p.d, c); err != nil {
					return false, err
				}
			}
			if d2 == deadState {
				continue
			}
			if y == to && m.states[d2].accept {
				return true, nil
			}
			if w.visit(y, d2) {
				w.queue = append(w.queue, product{y, d2})
			}
		}
	}
	return false, nil
}

// product is one state of the product walk: a graph vertex and a DFA
// state.
type product struct {
	v dag.VertexID
	d int32
}

// walk is the scratch of one product walk: the visited product states
// and the breadth-first queue. A walk is reused through the walks pool;
// reset readies it for another graph in O(1) by bumping the epoch.
type walk struct {
	epoch uint32
	marks []mark     // per vertex: the DFA states 0..63 visited there
	wide  []wideSlot // open-addressed (vertex, state) keys for states >= 64
	nwide int
	queue []product
}

// mark holds a vertex's visited DFA states below 64 as a bit mask, valid
// only while epoch is the walk's.
type mark struct {
	epoch uint32
	bits  uint64
}

// wideSlot is one slot of the wide set, live only while epoch is the
// walk's.
type wideSlot struct {
	key   uint64
	epoch uint32
}

// maxPooledProducts bounds the queue and wide set a walk keeps when it
// goes back to the pool, so one pathological walk does not pin its
// memory.
const maxPooledProducts = 1 << 16

var walks = sync.Pool{New: func() any { return new(walk) }}

// release returns the walk to the pool.
func (w *walk) release() {
	if cap(w.queue) > maxPooledProducts {
		w.queue = nil
	}
	if len(w.wide) > maxPooledProducts {
		w.wide = nil
	}
	walks.Put(w)
}

// reset empties the walk for a graph of n vertices. Stamps are never 0
// once the walk is reset, so freshly allocated marks and slots are
// empty; when the epoch wraps, every stamp is cleared once.
func (w *walk) reset(n int) {
	if len(w.marks) < n {
		w.marks = make([]mark, n)
	}
	w.epoch++
	if w.epoch == 0 {
		clear(w.marks)
		clear(w.wide)
		w.epoch = 1
	}
	w.nwide = 0
	w.queue = w.queue[:0]
}

// visit marks (v, d) visited and reports whether it was new.
func (w *walk) visit(v dag.VertexID, d int32) bool {
	if d >= 64 {
		return w.visitWide(uint64(uint32(v))<<32 | uint64(uint32(d)))
	}
	mk := &w.marks[v]
	bits, bit := mk.bits, uint64(1)<<uint(d)
	if mk.epoch != w.epoch {
		mk.epoch, bits = w.epoch, 0
	}
	mk.bits = bits | bit
	return bits&bit == 0
}

// visitWide adds key to the wide set, growing it to stay at most half
// full, and reports whether it was new.
func (w *walk) visitWide(key uint64) bool {
	if 2*(w.nwide+1) > len(w.wide) {
		old := w.wide
		w.wide, w.nwide = make([]wideSlot, max(64, 2*len(old))), 0
		for _, sl := range old {
			if sl.epoch == w.epoch {
				w.visitWide(sl.key)
			}
		}
	}
	mask := len(w.wide) - 1
	for i := int((key*0x9E3779B97F4A7C15)>>32) & mask; ; i = (i + 1) & mask {
		sl := &w.wide[i]
		if sl.epoch != w.epoch {
			sl.key, sl.epoch = key, w.epoch
			w.nwide++
			return true
		}
		if sl.key == key {
			return false
		}
	}
}
