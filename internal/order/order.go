// Package order implements the context encoding of Section 4.3 in its
// two parts: Algorithm 1's preorder traversal of the execution plan,
// run three times with the children of F− (O2) or L− (O3) nodes visited
// in reverse, and Lemma 4.5's rule, which compares two contexts' places
// in the three resulting total orders and decides reachability when
// their least common ancestor is an F− or L− node. The offline labeler
// (internal/core) places contexts at dense positions, the online one
// (internal/online) at sparse keys; both decide through Context.
package order

import (
	"repro/internal/plan"
	"repro/internal/spec"
)

// Preorder runs one traversal of Algorithm 1 over p and calls visit on
// every plan node x with pos[x.ID] != 0 (the nonempty + nodes, once
// the caller has marked them), in visit order. The children of a −
// node of kind reverseAt are visited right to left, all others left to
// right; a reverseAt that is neither spec.Fork nor spec.Loop gives O1.
// pos is indexed by plan node ID, and visit may overwrite the entry of
// the node it is given. The recursion is as deep as the plan: two
// levels per level of the fork-and-loop hierarchy.
func Preorder(p *plan.Plan, pos []uint32, reverseAt spec.Kind, visit func(x *plan.Node)) {
	preorder(p, p.Root, pos, reverseAt, visit)
}

func preorder(p *plan.Plan, x *plan.Node, pos []uint32, reverseAt spec.Kind, visit func(x *plan.Node)) {
	if pos[x.ID] != 0 {
		visit(x)
	}
	if !x.Plus && p.KindOf(x) == reverseAt {
		for i := len(x.Children) - 1; i >= 0; i-- {
			preorder(p, x.Children[i], pos, reverseAt, visit)
		}
		return
	}
	for _, c := range x.Children {
		preorder(p, c, pos, reverseAt, visit)
	}
}

// Context is Lemma 4.5 on two contexts' places in O1, O2 and O3: a1, a2,
// a3 for the first, b1, b2, b3 for the second. When O2 and O3 order the
// two oppositely, their least common ancestor is an F− or L− node and
// decided is true; reach is then whether the first reaches the second,
// which holds exactly for a loop (O1 and O2 agree) with the first in an
// earlier iteration. Otherwise the ancestor is a + node (or the
// contexts are one) and the skeleton labels decide. Distinct contexts
// never share a place in any order, so equal places mean one context.
func Context[T uint32 | uint64](a1, a2, a3, b1, b2, b3 T) (reach, decided bool) {
	if a2 < b2 && a3 > b3 || a2 > b2 && a3 < b3 {
		return a1 < b1 && a3 > b3, true
	}
	return false, false
}
