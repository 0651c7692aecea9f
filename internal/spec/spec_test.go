package spec

import (
	"strings"
	"testing"

	"repro/internal/dag"
)

func TestPaperSpecBuilds(t *testing.T) {
	s := PaperSpec()
	if s.NumVertices() != 8 {
		t.Fatalf("paper spec has %d vertices, want 8", s.NumVertices())
	}
	if s.NumEdges() != 8 {
		t.Fatalf("paper spec has %d edges, want 8", s.NumEdges())
	}
	if s.NameOf(s.Source) != "a" || s.NameOf(s.Sink) != "h" {
		t.Fatalf("terminals %q..%q, want a..h", s.NameOf(s.Source), s.NameOf(s.Sink))
	}
	if len(s.Subgraphs) != 4 {
		t.Fatalf("got %d subgraphs, want 4", len(s.Subgraphs))
	}
}

func TestPaperSpecHierarchy(t *testing.T) {
	s := PaperSpec()
	h := s.Hier
	// |T_G| = 5 (root + F1 + L1 + L2 + F2), depth 3 (Figure 6).
	if h.NumNodes() != 5 {
		t.Fatalf("|T_G| = %d, want 5", h.NumNodes())
	}
	if h.MaxDepth != 3 {
		t.Fatalf("[T_G] = %d, want 3", h.MaxDepth)
	}
	// Find nodes by terminals.
	find := func(kind Kind, src, snk ModuleName) int {
		for i, sub := range s.Subgraphs {
			if sub.Kind == kind && s.NameOf(sub.Source) == src && s.NameOf(sub.Sink) == snk {
				return i + 1
			}
		}
		t.Fatalf("subgraph %v %s..%s not found", kind, src, snk)
		return -1
	}
	f1 := find(Fork, "a", "h")
	l1 := find(Loop, "b", "c")
	l2 := find(Loop, "e", "g")
	f2 := find(Fork, "e", "g")
	if h.Parent[f1] != 0 || h.Parent[l2] != 0 {
		t.Errorf("F1/L2 should be children of root; parents %d %d", h.Parent[f1], h.Parent[l2])
	}
	if h.Parent[l1] != f1 {
		t.Errorf("L1 parent = %d, want F1 (%d)", h.Parent[l1], f1)
	}
	if h.Parent[f2] != l2 {
		t.Errorf("F2 parent = %d, want L2 (%d) — equal edge sets must nest fork inside loop", h.Parent[f2], l2)
	}
	if got := h.NodesAtDepth(3); len(got) != 2 {
		t.Errorf("depth-3 nodes = %v, want 2 nodes (L1, F2)", got)
	}
	if h.NodesAtDepth(0) != nil || h.NodesAtDepth(4) != nil {
		t.Error("NodesAtDepth out of range should be nil")
	}
}

func TestDomSets(t *testing.T) {
	s := PaperSpec()
	name := func(v dag.VertexID) string { return string(s.NameOf(v)) }
	for _, sub := range s.Subgraphs {
		dom := make([]string, 0)
		for _, v := range sub.DomSet() {
			dom = append(dom, name(v))
		}
		got := strings.Join(dom, "")
		var want string
		switch {
		case sub.Kind == Fork && name(sub.Source) == "a":
			want = "bc"
		case sub.Kind == Loop && name(sub.Source) == "b":
			want = "bc"
		case sub.Kind == Loop && name(sub.Source) == "e":
			want = "efg"
		case sub.Kind == Fork && name(sub.Source) == "e":
			want = "f"
		}
		if got != want {
			t.Errorf("%v %s..%s DomSet = %q, want %q", sub.Kind, name(sub.Source), name(sub.Sink), got, want)
		}
	}
}

func TestDirectVertices(t *testing.T) {
	s := PaperSpec()
	names := func(vs []dag.VertexID) string {
		var b strings.Builder
		for _, v := range vs {
			b.WriteString(string(s.NameOf(v)))
		}
		return b.String()
	}
	// Root directly owns a, h, d (b,c in F1/L1; e,f,g in L2); IDs follow
	// declaration order a,b,c,h,d,... so the sorted rendering is "ahd".
	if got := names(s.DirectVertices(0)); got != "ahd" {
		t.Errorf("root direct vertices = %q, want ahd", got)
	}
	for i, sub := range s.Subgraphs {
		node := s.NodeOf(i)
		got := names(s.DirectVertices(node))
		var want string
		switch {
		case sub.Kind == Fork && s.NameOf(sub.Source) == "a": // F1: internals {b,c} all taken by L1
			want = ""
		case sub.Kind == Loop && s.NameOf(sub.Source) == "b": // L1 owns b, c
			want = "bc"
		case sub.Kind == Loop && s.NameOf(sub.Source) == "e": // L2 owns e, g (f in F2)
			want = "eg"
		case sub.Kind == Fork && s.NameOf(sub.Source) == "e": // F2 owns f
			want = "f"
		}
		if got != want {
			t.Errorf("DirectVertices(%v %s..%s) = %q, want %q",
				sub.Kind, s.NameOf(sub.Source), s.NameOf(sub.Sink), got, want)
		}
	}
}

func TestEdgeOwner(t *testing.T) {
	s := PaperSpec()
	owner := s.EdgeOwner()
	edges := s.Graph.Edges()
	lookup := func(u, v ModuleName) int {
		ui, _ := s.VertexOf(u)
		vi, _ := s.VertexOf(v)
		for i, e := range edges {
			if e.Tail == ui && e.Head == vi {
				return owner[i]
			}
		}
		t.Fatalf("edge %s->%s not found", u, v)
		return -1
	}
	// (b,c) is innermost in L1 (depth 3); (a,b) in F1 (depth 2); (e,f) in F2
	// (depth 3, inside L2); (a,d) at root; (d,e) at root; (g,h) at root.
	if k := s.SubgraphOf(lookup("b", "c")); k == nil || k.Kind != Loop || s.NameOf(k.Source) != "b" {
		t.Error("(b,c) should be owned by L1")
	}
	if k := s.SubgraphOf(lookup("a", "b")); k == nil || k.Kind != Fork || s.NameOf(k.Source) != "a" {
		t.Error("(a,b) should be owned by F1")
	}
	if k := s.SubgraphOf(lookup("e", "f")); k == nil || k.Kind != Fork {
		t.Error("(e,f) should be owned by F2 (deeper than L2)")
	}
	if lookup("a", "d") != 0 || lookup("d", "e") != 0 || lookup("g", "h") != 0 {
		t.Error("root edges should be owned by node 0")
	}
}

func TestIntroSpec(t *testing.T) {
	s := IntroSpec()
	if s.NumVertices() != 4 || len(s.Subgraphs) != 2 || s.Hier.MaxDepth != 3 {
		t.Fatalf("intro spec shape wrong: n=%d subs=%d depth=%d",
			s.NumVertices(), len(s.Subgraphs), s.Hier.MaxDepth)
	}
}

func TestLinearSpec(t *testing.T) {
	s := LinearSpec(5)
	if s.NumVertices() != 5 || s.NumEdges() != 4 || len(s.Subgraphs) != 0 {
		t.Fatal("linear spec shape wrong")
	}
	if LinearSpec(0).NumVertices() != 2 {
		t.Fatal("LinearSpec clamps to 2")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("duplicate module", func(t *testing.T) {
		b := NewBuilder()
		b.Module("x")
		b.Module("x")
		b.Edge("x", "y")
		if _, err := b.Build(); err == nil {
			t.Error("duplicate module accepted")
		}
	})
	t.Run("self loop", func(t *testing.T) {
		b := NewBuilder()
		b.Edge("x", "x")
		if _, err := b.Build(); err == nil {
			t.Error("self loop accepted")
		}
	})
	t.Run("duplicate edge", func(t *testing.T) {
		b := NewBuilder()
		b.Edge("x", "y")
		b.Edge("x", "y")
		if _, err := b.Build(); err == nil {
			t.Error("duplicate edge accepted")
		}
	})
	t.Run("two sources", func(t *testing.T) {
		b := NewBuilder()
		b.Edge("x", "z")
		b.Edge("y", "z")
		if _, err := b.Build(); err == nil {
			t.Error("two sources accepted")
		}
	})
	t.Run("cycle", func(t *testing.T) {
		b := NewBuilder()
		b.Chain("s", "x", "y", "t")
		b.Edge("y", "x")
		if _, err := b.Build(); err == nil {
			t.Error("cycle accepted")
		}
	})
	t.Run("unknown fork member", func(t *testing.T) {
		b := NewBuilder()
		b.Chain("s", "x", "t")
		b.Fork("s", "t", "nope")
		if _, err := b.Build(); err == nil {
			t.Error("unknown fork member accepted")
		}
	})
	t.Run("unknown fork terminal", func(t *testing.T) {
		b := NewBuilder()
		b.Chain("s", "x", "t")
		b.Fork("nope", "t", "x")
		if _, err := b.Build(); err == nil {
			t.Error("unknown fork source accepted")
		}
	})
}

func TestValidationRejectsBadSubgraphs(t *testing.T) {
	t.Run("fork without internal vertices", func(t *testing.T) {
		b := NewBuilder()
		b.Chain("s", "x", "t")
		b.Fork("s", "x") // no internals
		if _, err := b.Build(); err == nil {
			t.Error("bare-edge fork accepted")
		}
	})
	t.Run("fork not self-contained", func(t *testing.T) {
		// s -> x -> t and s -> y -> t, plus x -> y crossing the boundary.
		b := NewBuilder()
		b.Chain("s", "x", "t")
		b.Chain("s", "y", "t")
		b.Edge("x", "y")
		b.Fork("s", "t", "x")
		if _, err := b.Build(); err == nil {
			t.Error("boundary-crossing fork accepted")
		}
	})
	t.Run("fork not atomic", func(t *testing.T) {
		// Two parallel internal branches form a non-atomic fork.
		b := NewBuilder()
		b.Chain("s", "x", "t")
		b.Chain("s", "y", "t")
		b.Fork("s", "t", "x", "y")
		if _, err := b.Build(); err == nil {
			t.Error("non-atomic fork accepted")
		}
	})
	t.Run("loop not complete", func(t *testing.T) {
		// Loop over one branch while another branch shares its terminals.
		b := NewBuilder()
		b.Chain("s", "x", "t")
		b.Chain("s", "y", "t")
		b.SubgraphEdges(Loop, []dag.Edge{{Tail: 0, Head: 1}, {Tail: 1, Head: 2}}) // s->x->t only
		if _, err := b.Build(); err == nil {
			t.Error("incomplete loop accepted")
		}
	})
	t.Run("not well nested", func(t *testing.T) {
		// Two loops overlapping at a shared middle vertex.
		b := NewBuilder()
		b.Chain("s", "x", "y", "z", "t")
		b.Loop("s", "y", "x")
		b.Loop("y", "t", "z")
		// DomSets {s,x,y} and {y,z,t} intersect at y without nesting.
		if _, err := b.Build(); err == nil {
			t.Error("overlapping loops accepted")
		}
	})
	t.Run("duplicate subgraph", func(t *testing.T) {
		b := NewBuilder()
		b.Chain("s", "x", "t")
		b.Loop("s", "t", "x")
		b.Loop("s", "t", "x")
		if _, err := b.Build(); err == nil {
			t.Error("duplicate loops accepted")
		}
	})
	t.Run("empty subgraph edges", func(t *testing.T) {
		b := NewBuilder()
		b.Chain("s", "t")
		b.SubgraphEdges(Loop, nil)
		if _, err := b.Build(); err == nil {
			t.Error("empty subgraph accepted")
		}
	})
}

func TestForkInducedEdgesExcludeDirectEdge(t *testing.T) {
	// s -> x -> t with a direct s -> t edge: the fork over {x} must not
	// include (s,t), and a loop over the same region must include it.
	b := NewBuilder()
	b.Chain("s", "x", "t")
	b.Edge("s", "t")
	b.Fork("s", "t", "x")
	b.Loop("s", "t", "x")
	s, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var fork, loop *Subgraph
	for _, sub := range s.Subgraphs {
		if sub.Kind == Fork {
			fork = sub
		} else {
			loop = sub
		}
	}
	st, _ := s.VertexOf("s")
	tt, _ := s.VertexOf("t")
	if fork.HasEdge(st, tt) {
		t.Error("fork contains direct (s,t) edge")
	}
	if !loop.HasEdge(st, tt) {
		t.Error("loop missing direct (s,t) edge")
	}
	if len(fork.Edges) != 2 || len(loop.Edges) != 3 {
		t.Errorf("edge counts fork=%d loop=%d, want 2/3", len(fork.Edges), len(loop.Edges))
	}
	// Hierarchy: fork nested inside loop.
	fi, li := -1, -1
	for i, sub := range s.Subgraphs {
		if sub.Kind == Fork {
			fi = i + 1
		} else {
			li = i + 1
		}
	}
	if s.Hier.Parent[fi] != li {
		t.Errorf("fork parent = %d, want loop %d", s.Hier.Parent[fi], li)
	}
}

func TestSubgraphAccessors(t *testing.T) {
	s := PaperSpec()
	if s.SubgraphOf(0) != nil {
		t.Error("root subgraph should be nil")
	}
	if s.KindOf(0) != Loop {
		t.Error("root kind should behave like a loop (dominates terminals)")
	}
	if s.SourceOf(0) != s.Source || s.SinkOf(0) != s.Sink {
		t.Error("root terminals mismatch")
	}
	for i, sub := range s.Subgraphs {
		node := s.NodeOf(i)
		if s.SubgraphOf(node) != sub {
			t.Errorf("SubgraphOf(%d) mismatch", node)
		}
		if s.SourceOf(node) != sub.Source || s.SinkOf(node) != sub.Sink {
			t.Errorf("terminals mismatch for node %d", node)
		}
		if s.KindOf(node) != sub.Kind {
			t.Errorf("kind mismatch for node %d", node)
		}
		if !sub.HasVertex(sub.Source) || !sub.HasVertex(sub.Sink) {
			t.Errorf("subgraph %d missing own terminals in HasVertex", i)
		}
		if sub.HasVertex(dag.VertexID(100)) {
			t.Errorf("subgraph %d claims vertex 100", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if Fork.String() != "fork" || Loop.String() != "loop" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should render something")
	}
}

func TestVertexOf(t *testing.T) {
	s := PaperSpec()
	v, ok := s.VertexOf("c")
	if !ok || s.NameOf(v) != "c" {
		t.Error("VertexOf roundtrip failed")
	}
	if _, ok := s.VertexOf("zz"); ok {
		t.Error("VertexOf found nonexistent module")
	}
}

// A Spec assembled as a struct literal has its names but none of the
// tables Validate fills: a lookup in one panics with a message that
// says so instead of missing silently, and Validate makes it answer.
func TestUnvalidatedSpecPanics(t *testing.T) {
	p := PaperSpec()
	s := &Spec{Graph: p.Graph, Names: p.Names, Source: p.Source, Sink: p.Sink, Subgraphs: p.Subgraphs}
	for name, lookup := range map[string]func(){
		"VertexOf":       func() { s.VertexOf("c") },
		"VertexOfBytes":  func() { s.VertexOfBytes([]byte("c")) },
		"DirectVertices": func() { s.DirectVertices(0) },
		"DirectEdges":    func() { s.DirectEdges(0) },
		"AllowsRunEdge":  func() { s.AllowsRunEdge(0, 1) },
		"LeafLeader":     func() { s.LeafLeader(0, 1) },
		"Region":         func() { s.Region(0) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Validate") {
					t.Errorf("%s on an unvalidated Spec: panic %q, want one naming Validate", name, msg)
				}
			}()
			lookup()
		}()
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.VertexOfBytes([]byte("c")); !ok || s.NameOf(v) != "c" {
		t.Errorf("VertexOfBytes(c) = %d, %v after Validate", v, ok)
	}
	if got, want := s.DirectEdges(0), p.DirectEdges(0); len(got) != len(want) {
		t.Errorf("DirectEdges(0) = %v after Validate, want %v", got, want)
	}
}

// DirectEdges partitions G's edges by EdgeOwner, keeping Edges() order.
func TestDirectEdges(t *testing.T) {
	s := PaperSpec()
	owner := s.EdgeOwner()
	next := make([]int, s.Hier.NumNodes())
	for i, e := range s.Graph.Edges() {
		h := owner[i]
		if got := s.DirectEdges(h); next[h] >= len(got) || got[next[h]] != e {
			t.Fatalf("edge %v owned by node %d is not next in DirectEdges(%d) = %v", e, h, h, got)
		}
		next[h]++
	}
	for h, n := range next {
		if len(s.DirectEdges(h)) != n {
			t.Errorf("DirectEdges(%d) has %d edges, EdgeOwner gives it %d", h, len(s.DirectEdges(h)), n)
		}
	}
}
