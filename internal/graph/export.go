package graph

import (
	"h2tap/internal/mvto"
)

// ExportAt produces a consistent logical snapshot of the graph at ts: every
// visible node and relationship with labels, properties and weights, in ID
// order. It is the inverse of Restore and feeds WAL compaction (checkpoint
// = snapshot + log tail).
func (s *Store) ExportAt(ts mvto.TS) ([]RestoredNode, []RestoredRel) {
	var nodes []RestoredNode
	s.nodes.ForEach(s.nodes.Backed(), func(id uint64, n *node) bool {
		v := n.visible(ts)
		if v == nil {
			return true
		}
		nodes = append(nodes, RestoredNode{
			ID:    id,
			Label: s.dict.String(n.label),
			Props: s.externProps(v.props),
		})
		return true
	})

	var rels []RestoredRel
	s.rels.ForEach(s.rels.Backed(), func(id uint64, r *rel) bool {
		v := r.visible(ts)
		if v == nil {
			return true
		}
		rels = append(rels, RestoredRel{
			ID: id, Src: r.src, Dst: r.dst,
			Label:  s.dict.String(r.label),
			Weight: v.weight,
			Props:  s.externProps(v.props),
		})
		return true
	})
	return nodes, rels
}

func (s *Store) externProps(props map[uint32]Value) map[string]Value {
	if len(props) == 0 {
		return nil
	}
	out := make(map[string]Value, len(props))
	for code, v := range props {
		out[s.dict.String(code)] = v
	}
	return out
}
