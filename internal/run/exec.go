package run

import (
	"fmt"
	"math/rand"

	"repro/internal/spec"
)

// ExecTree describes one site of a fork or loop subgraph within a run: how
// many copies exist at the site and, recursively, how each copy executes
// its nested subgraphs. The root ExecTree (HNode 0) always has exactly one
// copy — the run itself.
//
// ExecTree is the constructive counterpart of the execution plan T_R: a
// site corresponds to a − node, each copy to a + node.
type ExecTree struct {
	// HNode is the specification hierarchy node this site instantiates.
	HNode int
	// Copies holds one entry per copy, in serial order for loops.
	Copies []*ExecCopy
}

// ExecCopy is one copy of a subgraph: one site per hierarchy child.
type ExecCopy struct {
	// Sites has one entry per child of HNode in the hierarchy, in
	// Hier.Children order.
	Sites []*ExecTree
}

// SingleExec returns the execution tree of the minimal run: every fork and
// loop executed exactly once.
func SingleExec(s *spec.Spec) *ExecTree {
	var build func(hnode int) *ExecTree
	build = func(hnode int) *ExecTree {
		c := &ExecCopy{}
		for _, child := range s.Hier.Children[hnode] {
			c.Sites = append(c.Sites, build(child))
		}
		return &ExecTree{HNode: hnode, Copies: []*ExecCopy{c}}
	}
	return build(0)
}

// Clone returns a deep copy of the tree.
func (t *ExecTree) Clone() *ExecTree {
	c := &ExecTree{HNode: t.HNode, Copies: make([]*ExecCopy, len(t.Copies))}
	for i, cp := range t.Copies {
		c.Copies[i] = cp.clone()
	}
	return c
}

func (c *ExecCopy) clone() *ExecCopy {
	out := &ExecCopy{Sites: make([]*ExecTree, len(c.Sites))}
	for i, s := range c.Sites {
		out.Sites[i] = s.Clone()
	}
	return out
}

// Validate checks that the tree mirrors the specification hierarchy.
func (t *ExecTree) Validate(s *spec.Spec) error {
	if t.HNode != 0 {
		return fmt.Errorf("run: exec tree root instantiates hierarchy node %d, want 0", t.HNode)
	}
	if len(t.Copies) != 1 {
		return fmt.Errorf("run: exec tree root must have exactly one copy, has %d", len(t.Copies))
	}
	var walk func(t *ExecTree) error
	walk = func(t *ExecTree) error {
		if len(t.Copies) == 0 {
			return fmt.Errorf("run: site of hierarchy node %d has no copies", t.HNode)
		}
		children := s.Hier.Children[t.HNode]
		for _, cp := range t.Copies {
			if len(cp.Sites) != len(children) {
				return fmt.Errorf("run: copy of hierarchy node %d has %d sites, want %d",
					t.HNode, len(cp.Sites), len(children))
			}
			for i, site := range cp.Sites {
				if site.HNode != children[i] {
					return fmt.Errorf("run: site %d of hierarchy node %d instantiates %d, want %d",
						i, t.HNode, site.HNode, children[i])
				}
				if err := walk(site); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return walk(t)
}

// CountCopies returns the total number of copies (+ nodes) in the tree.
func (t *ExecTree) CountCopies() int {
	total := len(t.Copies)
	for _, cp := range t.Copies {
		for _, site := range cp.Sites {
			total += site.CountCopies()
		}
	}
	return total
}

// CountSites returns the total number of sites (− nodes) in the tree,
// excluding the root.
func (t *ExecTree) CountSites() int {
	total := 0
	if t.HNode != 0 {
		total++
	}
	for _, cp := range t.Copies {
		for _, site := range cp.Sites {
			total += site.CountSites()
		}
	}
	return total
}

// EstimateVertices returns |V(R)| for the materialized run, counted from
// the tree as Materialize counts it before emitting anything: the two run
// terminals, each copy's direct non-terminal vertices, and each loop
// copy's terminals except where the first/last copy reuses a terminal
// shared with the enclosing region. A tree Materialize refuses counts 0.
func (t *ExecTree) EstimateVertices(s *spec.Spec) int {
	m := &materializer{s: s}
	if m.index(t.table()) != nil {
		return 0
	}
	vertices, _ := m.size()
	return vertices
}

// Duplicatable collects every copy that can be duplicated (every copy of a
// fork or loop site; the root copy is not duplicatable). The returned
// pointers identify (site, index) pairs.
type Duplicatable struct {
	Site  *ExecTree
	Index int
}

// duplicatables appends all duplicatable copies under t to out.
func (t *ExecTree) duplicatables(out []Duplicatable) []Duplicatable {
	for i, cp := range t.Copies {
		if t.HNode != 0 {
			out = append(out, Duplicatable{Site: t, Index: i})
		}
		for _, site := range cp.Sites {
			out = site.duplicatables(out)
		}
	}
	return out
}

// Duplicate performs one fork/loop execution in the sense of Definition 6:
// it deep-copies the copy at d.Index and inserts the clone immediately
// after it (adjacent serial position for loops, an additional parallel
// branch for forks).
func Duplicate(d Duplicatable) {
	clone := d.Site.Copies[d.Index].clone()
	copies := d.Site.Copies
	copies = append(copies, nil)
	copy(copies[d.Index+2:], copies[d.Index+1:])
	copies[d.Index+1] = clone
	d.Site.Copies = copies
}

// RandomExecSteps applies exactly n random duplication steps.
func RandomExecSteps(s *spec.Spec, rng *rand.Rand, n int) *ExecTree {
	t := SingleExec(s)
	if len(s.Subgraphs) == 0 {
		return t
	}
	for i := 0; i < n; i++ {
		cands := t.duplicatables(nil)
		if len(cands) == 0 {
			break
		}
		Duplicate(cands[rng.Intn(len(cands))])
	}
	return t
}
