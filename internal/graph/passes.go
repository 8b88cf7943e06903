package graph

import (
	"unigpu/internal/obs"
	"unigpu/internal/ops"
	"unigpu/internal/tensor"
)

// FoldBatchNorm folds every batch_norm whose data input is a conv2d with
// constant weights into the convolution itself (§3.2.3: "pre-computing,
// simplifying inference for batch-norm"): the conv weights are scaled per
// output channel and the shift becomes (or adjusts) the conv bias. Returns
// the number of batch norms folded.
func FoldBatchNorm(g *Graph) int {
	folded := 0
	for _, n := range g.OpNodes() {
		bn, ok := n.Op.(*BatchNormOp)
		if !ok {
			continue
		}
		conv := n.Inputs[0]
		convOp, isConv := opAs[*ConvOp](conv)
		if !isConv {
			continue
		}
		weightNode := conv.Inputs[1]
		if !weightNode.IsConstant() {
			continue
		}
		gamma, beta, mean, variance := n.Inputs[1], n.Inputs[2], n.Inputs[3], n.Inputs[4]
		if !gamma.IsConstant() || !beta.IsConstant() || !mean.IsConstant() || !variance.IsConstant() {
			continue
		}
		scale, shift := ops.FoldBatchNorm(gamma.Value, beta.Value, mean.Value, variance.Value, bn.Eps)

		// New weights: W'[o,...] = W[o,...] * scale[o].
		w := weightNode.Value.Clone()
		perOut := w.Size() / w.Shape()[0]
		for o := 0; o < w.Shape()[0]; o++ {
			s := scale.At(o)
			for i := 0; i < perOut; i++ {
				w.Data()[o*perOut+i] *= s
			}
		}
		// New bias: b' = b*scale + shift.
		b := shift.Clone()
		if len(conv.Inputs) > 2 && conv.Inputs[2].IsConstant() {
			old := conv.Inputs[2].Value
			for o := 0; o < b.Size(); o++ {
				b.Data()[o] += old.At(o) * scale.At(o)
			}
		}

		newW := g.Constant(weightNode.Name+"_bnfold", w)
		newB := g.Constant(conv.Name+"_bias_bnfold", b)
		newOp := *convOp
		newOp.W.HasBias = true
		newConv := g.Apply(conv.Name+"_bn", &newOp, conv.Inputs[0], newW, newB)
		g.replaceUses(n, newConv)
		folded++
	}
	if folded > 0 {
		g.EliminateDead()
		resort(g)
	}
	return folded
}

// FuseActivations merges relu/leaky_relu nodes into the epilogue of the
// conv2d or dense producer that feeds them (operator fusion, §3.2.3). A
// fuse is legal only when the producer's value is not observable anywhere
// else: it must have the activation as its sole consumer, must not itself
// be a graph output, and must sit on the same device. Leaky activations
// fuse only at the kernels' compiled-in slope (ops.LeakyAlpha); other
// slopes are left for FuseElementwise. The consumers map is recomputed
// after every rewrite — replaceUses changes edges, and a stale map can
// approve a second fuse onto a producer that meanwhile gained consumers.
func FuseActivations(g *Graph) int {
	fused := 0
	for {
		consumers := g.Consumers()
		outputs := outputSet(g)
		progress := false
		for _, n := range g.OpNodes() {
			act, ok := n.Op.(*ActivationOp)
			if !ok {
				continue
			}
			if act.Act == ops.ActLeakyReLU && act.Alpha != ops.LeakyAlpha {
				continue // kernel epilogues hardcode the slope
			}
			prod := n.Inputs[0]
			if len(consumers[prod]) != 1 || outputs[prod] || prod.Device != n.Device {
				continue // producer value observable elsewhere; cannot fuse
			}
			switch op := prod.Op.(type) {
			case *ConvOp:
				if op.W.FusedActivation != ops.ActNone {
					continue // epilogue slot already taken
				}
				if op.Residual && op.ResidualPostAct {
					continue // act would land before the post-act residual add
				}
				newOp := *op
				newOp.W.FusedActivation = act.Act
				prod.Op = &newOp
				obs.Count("fusion.nodes_fused.activation", 1)
			case *DenseOp:
				if op.Act != ops.ActNone {
					continue
				}
				newOp := *op
				newOp.Act = act.Act
				prod.Op = &newOp
				obs.Count("fusion.nodes_fused.dense", 1)
			default:
				continue
			}
			g.replaceUses(n, prod)
			fused++
			progress = true
			break // edges changed; rebuild consumers before the next fuse
		}
		if !progress {
			break
		}
	}
	if fused > 0 {
		g.EliminateDead()
		resort(g)
	}
	return fused
}

// FuseConvResidual folds an elementwise add of a convolution's output with
// a same-shaped tensor into the convolution's epilogue (the ResNet
// conv→add[→relu] and Darknet conv+act→add skip connections), so the
// residual row is read once during the conv's output write instead of in a
// separate full-tensor pass. The add runs before the conv's fused
// activation when none is attached yet (a later FuseActivations pass can
// then claim the trailing relu), and after it when the activation is
// already fused — matching the unfused dataflow order exactly, so results
// stay bit-identical. The conv must have the add as its sole consumer (this
// also rules out the residual operand depending on the conv, i.e. cycles),
// must not be a graph output, and both nodes must share a device.
func FuseConvResidual(g *Graph) int {
	fused := 0
	for {
		consumers := g.Consumers()
		outputs := outputSet(g)
		progress := false
	scan:
		for _, n := range g.OpNodes() {
			if _, ok := n.Op.(*AddOp); !ok || len(n.Inputs) != 2 {
				continue
			}
			for ci := 0; ci < 2; ci++ {
				conv := n.Inputs[ci]
				res := n.Inputs[1-ci]
				convOp, isConv := opAs[*ConvOp](conv)
				if !isConv || convOp.Residual || res == conv {
					continue
				}
				if len(consumers[conv]) != 1 || outputs[conv] || conv.Device != n.Device {
					continue
				}
				if !shapesEqual(res.OutShape, conv.OutShape) {
					continue
				}
				newOp := *convOp
				newOp.Residual = true
				newOp.ResidualPostAct = convOp.W.FusedActivation != ops.ActNone
				conv.Op = &newOp
				conv.Inputs = append(append([]*Node(nil), conv.Inputs...), res)
				g.replaceUses(n, conv)
				obs.Count("fusion.nodes_fused.residual", 1)
				fused++
				progress = true
				break scan // edges changed; rebuild consumers
			}
		}
		if !progress {
			break
		}
	}
	if fused > 0 {
		g.EliminateDead()
		resort(g)
	}
	return fused
}

// FuseElementwise collapses straight-line chains of elementwise operators
// (relu, leaky_relu, sigmoid, add) into a single FusedElementwiseOp that
// applies every stage per element in one memory pass, instead of one full
// read-modify-write sweep per node. Chain interiors must be private — a
// single consumer, not a graph output, same device — and an add extends a
// chain only through its first operand, so the fused per-element order is
// exactly the unfused order and results stay bit-identical. Device-copy
// nodes (and every other non-elementwise kind) break chains. Returns the
// number of nodes eliminated.
func FuseElementwise(g *Graph) int {
	consumers := g.Consumers()
	outputs := outputSet(g)
	claimed := map[*Node]bool{}

	elementwise := func(n *Node) bool {
		switch n.Op.(type) {
		case *ActivationOp, *SigmoidOp:
			return true
		case *AddOp:
			return len(n.Inputs) == 2
		}
		return false
	}

	// Collect maximal disjoint chains against one consumers snapshot.
	// Walking OpNodes in topological order guarantees each chain is first
	// visited at its head; later members are claimed by then.
	var chains [][]*Node
	for _, n := range g.OpNodes() {
		if claimed[n] || !elementwise(n) {
			continue
		}
		chain := []*Node{n}
		inChain := map[*Node]bool{n: true}
		for {
			cur := chain[len(chain)-1]
			if len(consumers[cur]) != 1 || outputs[cur] {
				break // interior values must not be observable elsewhere
			}
			next := consumers[cur][0]
			if claimed[next] || !elementwise(next) || next.Device != cur.Device {
				break
			}
			if next.Inputs[0] != cur {
				break // add joins the chain through operand 0 only
			}
			if len(next.Inputs) == 2 && inChain[next.Inputs[1]] {
				break // extra operand is an unmaterialized chain value
			}
			chain = append(chain, next)
			inChain[next] = true
		}
		if len(chain) < 2 {
			continue
		}
		for _, m := range chain {
			claimed[m] = true
		}
		chains = append(chains, chain)
	}

	eliminated := 0
	for _, chain := range chains {
		// Read inputs live: an earlier chain's rewrite may have rewired
		// this chain's source or extra operands via replaceUses.
		stages := make([]ops.ElementwiseStage, 0, len(chain))
		inputs := []*Node{chain[0].Inputs[0]}
		for _, m := range chain {
			switch op := m.Op.(type) {
			case *ActivationOp:
				if op.Act == ops.ActLeakyReLU {
					stages = append(stages, ops.ElementwiseStage{Kind: ops.EwLeakyReLU, Alpha: op.Alpha})
				} else {
					stages = append(stages, ops.ElementwiseStage{Kind: ops.EwReLU})
				}
			case *SigmoidOp:
				stages = append(stages, ops.ElementwiseStage{Kind: ops.EwSigmoid})
			case *AddOp:
				stages = append(stages, ops.ElementwiseStage{Kind: ops.EwAdd})
				inputs = append(inputs, m.Inputs[1])
			}
		}
		last := chain[len(chain)-1]
		fnode := g.Apply(last.Name+"_fusedew", &FusedElementwiseOp{Stages: stages}, inputs...)
		fnode.Device = last.Device
		g.replaceUses(last, fnode)
		obs.Count("fusion.nodes_fused.elementwise", int64(len(chain)-1))
		eliminated += len(chain) - 1
	}
	if len(chains) > 0 {
		g.EliminateDead()
		resort(g)
	}
	return eliminated
}

// outputSet returns the graph outputs as a set; fusion passes must not
// hide a node whose raw value the caller observes.
func outputSet(g *Graph) map[*Node]bool {
	m := make(map[*Node]bool, len(g.Outputs))
	for _, o := range g.Outputs {
		m[o] = true
	}
	return m
}

// shapesEqual reports whether two shapes match dimension for dimension.
func shapesEqual(a, b tensor.Shape) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PrecomputeConstants evaluates operator nodes whose inputs are all
// constants at compile time (e.g. multibox priors), turning them into
// constant nodes. Returns the number of nodes pre-computed.
func PrecomputeConstants(g *Graph) int {
	done := 0
	replaced := map[*Node]bool{}
	for {
		progress := false
		for _, n := range g.OpNodes() {
			if replaced[n] {
				continue
			}
			allConst := len(n.Inputs) > 0
			for _, in := range n.Inputs {
				if !in.IsConstant() {
					allConst = false
					break
				}
			}
			if !allConst {
				continue
			}
			replaced[n] = true
			vals := make([]*tensor.Tensor, len(n.Inputs))
			for i, in := range n.Inputs {
				vals[i] = in.Value
			}
			c := g.Constant(n.Name+"_precomputed", Eval(n, vals))
			g.replaceUses(n, c)
			done++
			progress = true
		}
		if !progress {
			break
		}
	}
	if done > 0 {
		g.EliminateDead()
		resort(g)
	}
	return done
}

// Optimize runs the standard graph-level pipeline. Each pass gets its own
// tracing span, and mutation counts feed the graph.pass_mutations counter.
func Optimize(g *Graph) {
	sp := obs.Start("graph.optimize", obs.KVInt("nodes", len(g.Nodes)))
	defer sp.End()
	runPass(g, "fold_batch_norm", FoldBatchNorm)
	runPass(g, "fuse_activations", FuseActivations)
	runPass(g, "fuse_conv_residual", FuseConvResidual)
	// A residual fuse frees the relu that followed the add; a second
	// activation pass claims it into the conv epilogue (pre-act order).
	runPass(g, "fuse_activations", FuseActivations)
	runPass(g, "fuse_elementwise", FuseElementwise)
	runPass(g, "precompute_constants", PrecomputeConstants)
	runPass(g, "eliminate_dead", func(g *Graph) int { return g.EliminateDead() })
}

// runPass times one graph pass and records how many nodes it mutated.
func runPass(g *Graph, name string, pass func(*Graph) int) int {
	sp := obs.Start("graph.pass." + name)
	n := pass(g)
	sp.SetAttrs(obs.KVInt("mutations", n))
	sp.End()
	obs.Count("graph.pass_mutations", int64(n))
	return n
}

// PlacementOptions configures the two-pass fallback placement (§3.1.2).
type PlacementOptions struct {
	// FallbackKinds lists operator kinds NOT in the known-GPU-performant
	// list: they are placed on the CPU. Empty means everything the
	// operator itself declares GPU-friendly stays on the GPU.
	FallbackKinds map[string]bool
}

// PlaceDevices implements the paper's simple two-pass heuristic: pass one
// tags each node GPU if its operator is in the known-performant list (and
// not forced to fall back), else CPU; pass two inserts a device_copy
// between any two directly connected nodes on different devices. Returns
// the number of copies inserted.
func PlaceDevices(g *Graph, opts PlacementOptions) int {
	sp := obs.Start("graph.place_devices", obs.KVInt("fallback_kinds", len(opts.FallbackKinds)))
	defer sp.End()
	// Pass 1: tag device properties.
	for _, n := range g.Nodes {
		if n.Op == nil {
			n.Device = OnGPU // values live where their consumer runs; copies handle the rest
			continue
		}
		if opts.FallbackKinds[n.Op.Kind()] || !n.Op.GPUFriendly() {
			n.Device = OnCPU
		} else {
			n.Device = OnGPU
		}
	}
	// Pass 2: insert copies on device-crossing edges.
	copies := 0
	for _, n := range g.OpNodes() {
		if n.Op.Kind() == "device_copy" {
			continue
		}
		for i, in := range n.Inputs {
			if in.Op == nil {
				continue // constants/inputs are visible to both (shared DRAM)
			}
			if in.Device != n.Device {
				cp := g.Apply(in.Name+"_copy", &DeviceCopyOp{}, in)
				cp.Device = n.Device
				n.Inputs[i] = cp
				copies++
			}
		}
	}
	resort(g)
	sp.SetAttrs(obs.KVInt("copies", copies))
	obs.Count("copy.bytes", int64(CopyBytes(g)))
	return copies
}

// CopyBytes returns the total tensor bytes crossing devices, for the
// fallback-overhead accounting.
func CopyBytes(g *Graph) float64 {
	var total float64
	for _, n := range g.OpNodes() {
		if n.Op.Kind() == "device_copy" {
			total += 4 * float64(n.OutShape.NumElements())
		}
	}
	return total
}

// resort re-establishes topological order after rewrites.
func resort(g *Graph) {
	state := map[*Node]int{} // 0 unvisited, 1 visiting, 2 done
	var order []*Node
	var visit func(n *Node)
	visit = func(n *Node) {
		if state[n] != 0 {
			return
		}
		state[n] = 1
		for _, in := range n.Inputs {
			visit(in)
		}
		state[n] = 2
		order = append(order, n)
	}
	// Keep every node currently in the graph, outputs last.
	for _, n := range g.Nodes {
		visit(n)
	}
	g.Nodes = order
}

// opAs extracts a typed operator from a node.
func opAs[T Operator](n *Node) (T, bool) {
	var zero T
	if n.Op == nil {
		return zero, false
	}
	op, ok := n.Op.(T)
	return op, ok
}
