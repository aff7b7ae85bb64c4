package core

import (
	"testing"

	"swbfs/internal/ckpt"
)

// FuzzResume feeds Resume a real checkpoint with one node's payload
// replaced by fuzzed bytes. Whatever the payload, Resume must end in a
// result or an error: a panic on a node goroutine kills the process.
func FuzzResume(f *testing.F) {
	r, c := hostileCheckpoint(f)
	for node, ns := range c.Nodes {
		f.Add(uint8(node), []byte(ns.Data))
	}
	f.Add(uint8(0), []byte(withNodeData(f, c, 0, func(d *bfsNodeData) {
		d.Curr[len(d.Curr)-1] |= 1 << 63
	}).Nodes[0].Data))
	f.Fuzz(func(t *testing.T, node uint8, payload []byte) {
		bad := *c
		bad.Nodes = append([]ckpt.NodeState(nil), c.Nodes...)
		bad.Nodes[int(node)%len(bad.Nodes)].Data = payload
		_, _ = r.Resume(&bad)
	})
}
