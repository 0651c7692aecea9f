package rpq

import (
	"encoding/binary"
	"sort"

	"repro/internal/dag"
)

// mapDState is one lazily built DFA state: an epsilon-closed, sorted set of
// NFA states with memoized outgoing transitions.
type mapDState struct {
	set    []int32
	accept bool
	next   map[dag.VertexID]int32
}

// mapMatcher is the map-based product walk Matcher replaced: a map of
// transitions per DFA state keyed by symbol, a map of visited product
// states and a sliced queue, all per Eval. It is the oracle the dense
// walk is held to: the same answers, the same reach probes in the same
// order, and the same DFA states built in the same order. perfbench
// ranks its /rpq templates by the probe count plus NumDFAStates, so all
// three are part of the contract.
type mapMatcher struct {
	p         *Prog
	maxStates int
	states    []mapDState
	index     map[string]int32
	seen      []bool // closure scratch, one flag per NFA state
	stack     []int32
	key       []byte
	visited   map[uint64]bool // the last Eval's visited product states
}

// newMapMatcher wraps a compiled pattern in a DFA evaluator holding at most
// maxStates determinized states (DefaultMaxDFAStates when <= 0).
func newMapMatcher(p *Prog, maxStates int) *mapMatcher {
	if maxStates <= 0 {
		maxStates = DefaultMaxDFAStates
	}
	return &mapMatcher{
		p:         p,
		maxStates: maxStates,
		index:     make(map[string]int32),
		seen:      make([]bool, len(p.states)),
	}
}

// NumDFAStates returns how many DFA states have been built so far.
func (m *mapMatcher) NumDFAStates() int { return len(m.states) }

// startState returns (building on first use) the DFA start state.
func (m *mapMatcher) startState() (int32, error) {
	if len(m.states) == 0 {
		return m.intern(m.closure([]int32{m.p.start}))
	}
	return 0, nil
}

// closure returns the sorted epsilon-closure of seed.
func (m *mapMatcher) closure(seed []int32) []int32 {
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
	set := make([]int32, len(m.stack))
	copy(set, m.stack)
	for _, q := range set {
		m.seen[q] = false
	}
	sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
	return set
}

// intern returns the DFA state for an epsilon-closed sorted set, adding
// it if new. The empty set is deadState. Exceeding the state budget
// returns ErrStateBudget.
func (m *mapMatcher) intern(set []int32) (int32, error) {
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
	accept := false
	for _, q := range set {
		if q == m.p.accept {
			accept = true
			break
		}
	}
	si := int32(len(m.states))
	m.states = append(m.states, mapDState{set: set, accept: accept, next: make(map[dag.VertexID]int32)})
	m.index[string(m.key)] = si
	return si, nil
}

// step returns the DFA state after reading sym in state si, determinizing
// and memoizing on first use.
func (m *mapMatcher) step(si int32, sym dag.VertexID) (int32, error) {
	if to, ok := m.states[si].next[sym]; ok {
		return to, nil
	}
	var moved []int32
	for _, q := range m.states[si].set {
		st := &m.p.states[q]
		if st.sym == symWild || (st.sym >= 0 && st.sym == sym) {
			moved = append(moved, st.to)
		}
	}
	to, err := m.intern(m.closure(moved))
	if err != nil {
		return 0, err
	}
	m.states[si].next[sym] = to
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
// expansion.
//
// Eval returns ErrStateBudget when lazy determinization would exceed
// the matcher's state budget.
func (m *mapMatcher) Eval(g *dag.Graph, syms []dag.VertexID, reach func(u, v dag.VertexID) bool, from, to dag.VertexID) (bool, error) {
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
	type pstate struct {
		v dag.VertexID
		d int32
	}
	key := func(v dag.VertexID, d int32) uint64 {
		return uint64(uint32(v))<<32 | uint64(uint32(d))
	}
	visited := map[uint64]bool{key(from, start): true}
	m.visited = visited
	queue := []pstate{{from, start}}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, y := range g.Out(p.v) {
			if y != to && reach != nil && !reach(y, to) {
				continue // label pruning: y cannot reach the target
			}
			d2, err := m.step(p.d, syms[y])
			if err != nil {
				return false, err
			}
			if d2 == deadState {
				continue
			}
			if y == to && m.states[d2].accept {
				return true, nil
			}
			if k := key(y, d2); !visited[k] {
				visited[k] = true
				queue = append(queue, pstate{y, d2})
			}
		}
	}
	return false, nil
}
