package graph

import (
	"harmony/internal/models"
	"harmony/internal/tensor"
)

// buildTP decomposes each layer operation into OpShards subtasks
// (the paper's second key idea): every shard holds 1/K of the layer's
// weights, gradients, optimizer state and stash, computes 1/K of the
// layer's FLOPs producing a partial output slice, and an all-gather
// task combines the K partials into a full activation replica on
// every shard's device (Megatron-style column parallelism with
// explicit gathers). The backward pass mirrors the structure with
// gradient partials and gathers. The shard index lives in the
// Graph's replica dimension so schedulers and the runtime reuse the
// data-parallel machinery.
func buildTP(cfg Config) (*Graph, error) {
	R := len(cfg.Model.Layers)
	K := cfg.OpShards
	m := cfg.Microbatches
	mb := int64(cfg.MicrobatchSize)
	// Forward and backward per shard, layer and microbatch, an update per
	// shard and layer, a forward gather per layer and microbatch and a
	// backward gather per interior layer and microbatch. Tensors: W, dW
	// and K per shard and layer; Act (R+1), PartialAct (R), Grad and
	// PartialGrad (R−1 each) and Stash (R) per shard and microbatch.
	b := newBuilder(cfg, K*R*(2*m+1)+(2*R-1)*m, K*(3*R+(5*R-1)*m))
	g := b.g

	// shardBytes splits bytes across K shards exactly (remainder spread
	// over the lowest shards).
	shardBytes := func(bytes int64, s int) int64 {
		out := bytes / int64(K)
		if int64(s) < bytes%int64(K) {
			out++
		}
		return out
	}

	// Tensors. Shards reuse the replica dimension.
	g.W = make([][]*tensor.Tensor, K)
	g.DW = make([][]*tensor.Tensor, K)
	g.K = make([][]*tensor.Tensor, K)
	g.Act = make([][][]*tensor.Tensor, K)
	g.Stash = make([][][]*tensor.Tensor, K)
	g.Grad = make([][][]*tensor.Tensor, K)
	g.PartialAct = make([][][]*tensor.Tensor, K)
	g.PartialGrad = make([][][]*tensor.Tensor, K)
	for s := 0; s < K; s++ {
		g.W[s] = make([]*tensor.Tensor, R)
		g.DW[s] = make([]*tensor.Tensor, R)
		g.K[s] = make([]*tensor.Tensor, R)
		g.Act[s] = rows[*tensor.Tensor](R+1, m)
		g.Stash[s] = rows[*tensor.Tensor](R, m)
		g.Grad[s] = rows[*tensor.Tensor](R+1, m)
		g.PartialAct[s] = rows[*tensor.Tensor](R+1, m)
		g.PartialGrad[s] = rows[*tensor.Tensor](R+1, m)
		for l := 0; l < R; l++ {
			spec := cfg.Model.Layers[l]
			wb := shardBytes(spec.WeightBytes(), s)
			g.W[s][l] = g.Reg.Add(tensor.Weight, wb, l, -1)
			g.DW[s][l] = g.Reg.Add(tensor.WeightGrad, wb, l, -1)
			kb := int64(float64(wb) * cfg.Model.OptStateParamsFactor)
			g.K[s][l] = g.Reg.Add(tensor.OptState, kb, l, -1)
		}
		for l := 0; l <= R; l++ {
			var actBytes int64
			if l == 0 {
				actBytes = cfg.Model.SampleBytes * mb
			} else {
				actBytes = cfg.Model.Layers[l-1].ActBytesPerSample * mb
			}
			for i := 0; i < m; i++ {
				// Full activation replica on each shard. Layer 0 is
				// the input batch, replicated by the data loader.
				g.Act[s][l][i] = g.Reg.Add(tensor.Activation, actBytes, l, i)
				if l >= 1 {
					g.PartialAct[s][l][i] = g.Reg.Add(tensor.Activation, shardBytes(actBytes, s), l, i)
				}
				if l >= 1 && l <= R-1 {
					g.Grad[s][l][i] = g.Reg.Add(tensor.ActivationGrad, actBytes, l, i)
					g.PartialGrad[s][l][i] = g.Reg.Add(tensor.ActivationGrad, shardBytes(actBytes, s), l, i)
				}
				if l < R {
					sb := cfg.Model.Layers[l].StashBytesPerSample * mb
					if cfg.Recompute {
						sb = actBytes
					}
					g.Stash[s][l][i] = g.Reg.Add(tensor.Stash, shardBytes(sb, s), l, i)
				}
			}
		}
	}

	// Forward subtasks and forward gathers.
	g.Fwd = make([][][]*Task, K)
	g.Bwd = make([][][]*Task, K)
	g.Upd = make([][]*Task, K)
	for s := 0; s < K; s++ {
		g.Fwd[s] = rows[*Task](R, m)
		g.Bwd[s] = rows[*Task](R, m)
		g.Upd[s] = make([]*Task, R)
	}
	// Forward gathers feed layers 1..R and backward gathers layers
	// 1..R−1; the other rows stay nil.
	g.AGf = rows[*Task](R+1, m)
	g.AGb = rows[*Task](R+1, m)
	g.AGf[0], g.AGb[0], g.AGb[R] = nil, nil, nil

	// gather appends the task that gathers every shard's
	// partial[s][layer][i] into its full[s][layer][i] replica once
	// producers[s][pl][i], the task computing that partial, has run.
	var parts, fulls []*tensor.Tensor
	var deps []*Task
	gather := func(layer, i int, partial, full [][][]*tensor.Tensor, producers [][][]*Task, pl int) *Task {
		ag := b.task(Gather, -1, layer, i)
		parts, fulls, deps = parts[:0], fulls[:0], deps[:0]
		for s := 0; s < K; s++ {
			ag.CommBytes += partial[s][layer][i].Bytes
			parts = append(parts, partial[s][layer][i])
			fulls = append(fulls, full[s][layer][i])
			deps = append(deps, producers[s][pl][i])
		}
		ag.Inputs = b.tensors(parts...)
		ag.Outputs = b.tensors(fulls...)
		ag.Frees = b.tensors(parts...)
		ag.Deps = b.deps(deps...)
		return ag
	}

	for l := 0; l < R; l++ {
		spec := cfg.Model.Layers[l]
		for i := 0; i < m; i++ {
			for s := 0; s < K; s++ {
				f := b.task(Forward, s, l, i)
				f.FLOPs = spec.FwdFLOPsPerSample * float64(mb) / float64(K)
				f.WorkspaceBytes = spec.WorkspaceBytes / int64(K)
				f.Inputs = b.tensors(g.W[s][l], g.Act[s][l][i])
				f.Outputs = b.tensors(g.PartialAct[s][l+1][i], g.Stash[s][l][i])
				if l > 0 {
					f.Deps = b.deps(g.AGf[l][i])
					// Each shard's input replica dies with its
					// forward; the stash retains what backward needs.
					f.Frees = b.tensors(g.Act[s][l][i])
				}
				g.Fwd[s][l][i] = f
			}
			// Gather the partial outputs into full replicas.
			g.AGf[l+1][i] = gather(l+1, i, g.PartialAct, g.Act, g.Fwd, l)
		}
	}

	// Backward subtasks and backward gathers, in reverse layer order.
	for l := R - 1; l >= 0; l-- {
		spec := cfg.Model.Layers[l]
		for i := 0; i < m; i++ {
			for s := 0; s < K; s++ {
				bw := b.task(Backward, s, l, i)
				bw.FLOPs = spec.FwdFLOPsPerSample * float64(mb) * models.BwdFLOPsFactor / float64(K)
				bw.WorkspaceBytes = spec.WorkspaceBytes / int64(K)
				if cfg.Recompute {
					bw.FLOPs += spec.FwdFLOPsPerSample * float64(mb) / float64(K)
				}
				// dY: for the last layer, the loss gradient from this
				// shard's replica of the final activations.
				dy, dyFrom := g.Act[s][R][i], g.AGf[R][i]
				if l < R-1 {
					dy, dyFrom = g.Grad[s][l+1][i], g.AGb[l+1][i]
				}
				stash := g.Stash[s][l][i]
				bw.Inputs = b.tensors(g.W[s][l], g.DW[s][l], stash, dy)
				bw.Deps = b.deps(dyFrom, g.Fwd[s][l][i])
				bw.Frees = b.tensors(dy, stash)
				if l > 0 {
					bw.Outputs = b.tensors(g.PartialGrad[s][l][i])
				}
				bw.Mutates = b.tensors(g.DW[s][l])
				g.Bwd[s][l][i] = bw
			}
			if l > 0 {
				g.AGb[l][i] = gather(l, i, g.PartialGrad, g.Grad, g.Bwd, l)
			}
		}
	}

	// Per-shard updates: no all-reduce, every shard owns its slice.
	for s := 0; s < K; s++ {
		for l := 0; l < R; l++ {
			u := b.task(Update, s, l, -1)
			u.FLOPs = float64(cfg.Model.Layers[l].Params) * models.UpdateFLOPsPerParam / float64(K)
			u.Inputs = b.tensors(g.W[s][l], g.DW[s][l], g.K[s][l])
			u.Mutates = b.tensors(g.W[s][l], g.DW[s][l], g.K[s][l])
			u.Deps = b.deps(g.Bwd[s][l]...)
			g.Upd[s][l] = u
		}
	}
	return b.link(), nil
}
