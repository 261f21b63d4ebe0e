package vm

import (
	"sync"

	"repro/internal/algebra"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/xdm"
)

// instr is one instruction of a program: evaluate node over the tables in
// srcs, store the result in dst. Registers are positions in
// algebra.Nodes order; a register holds the output table of exactly one
// operator, so sharing in the DAG is a register read several times.
type instr struct {
	node *algebra.Node
	dst  uint32
	srcs []uint32
	// release lists the registers whose last consumer this instruction
	// is: after the output is stored, these tables drop their column
	// references and buffers at zero references return to the xdm pool.
	release []uint32
	// extraUses is the number of consumers beyond the first: EXPLAIN
	// ANALYZE's memo count for the node.
	extraUses int
}

// Program is a flattened plan: the optimized algebra DAG as a linear
// register program, one instruction per operator, in algebra.Nodes order
// (load-bearing for byte-identical results, see that function's doc). A
// Program is immutable after Compile and safe for concurrent executions;
// per-execution state lives in pooled frames.
type Program struct {
	instrs []instr
	// origins is the profile's origin table and originOf[i] the entry
	// instruction i is charged to: the node's Origin, or "(kind)" when it
	// has none. memoHits sums the instructions' extraUses.
	origins  []string
	originOf []int32
	memoHits int64
	frames   sync.Pool
}

// NumInstrs returns the instruction count: one per plan node.
func (p *Program) NumInstrs() int { return len(p.instrs) }

// Compile flattens the optimized plan DAG into a register program. A node
// with several consumers is evaluated once into its register and read
// many times; the register is released at its last consumer.
func Compile(root *algebra.Node) *Program {
	nodes := algebra.Nodes(root)
	p := &Program{instrs: make([]instr, len(nodes)), originOf: make([]int32, len(nodes))}
	index, kinds := make(map[string]int32), make(map[algebra.OpKind]string)

	reg := make(map[*algebra.Node]uint32, len(nodes))
	// remaining counts each node's consumers not yet emitted; when a
	// node's own instruction is emitted that is still all of them. The
	// root gets one extra use because Finish reads its table after the
	// program ends.
	remaining := make(map[*algebra.Node]int, len(nodes))
	for _, n := range nodes {
		for _, in := range n.Ins {
			remaining[in]++
		}
	}
	remaining[root]++

	for i, n := range nodes {
		reg[n] = uint32(i)
		ins := instr{node: n, dst: uint32(i), srcs: make([]uint32, len(n.Ins))}
		if c := remaining[n]; c > 1 {
			ins.extraUses = c - 1
			p.memoHits += int64(c - 1)
		}
		p.originOf[i] = p.origin(n, index, kinds)
		for j, in := range n.Ins {
			ins.srcs[j] = reg[in]
			c := remaining[in] - 1
			remaining[in] = c
			if c == 0 {
				ins.release = append(ins.release, reg[in])
			}
		}
		p.instrs[i] = ins
	}

	nregs := len(nodes)
	p.frames.New = func() any {
		return &frame{
			regs:    make([]*engine.Table, nregs),
			colRefs: make(map[*xdm.Column]int, nregs*2),
			ops:     make([]obs.OpRecord, nregs),
		}
	}
	return p
}

// origin returns n's index in the origin table, adding the entry on
// first sight; kinds caches the "(kind)" name of unlabelled nodes.
func (p *Program) origin(n *algebra.Node, index map[string]int32, kinds map[algebra.OpKind]string) int32 {
	o := n.Origin
	if o == "" {
		if o = kinds[n.Kind]; o == "" {
			o = "(" + n.Kind.String() + ")"
			kinds[n.Kind] = o
		}
	}
	k, ok := index[o]
	if !ok {
		k = int32(len(p.origins))
		index[o] = k
		p.origins = append(p.origins, o)
	}
	return k
}
