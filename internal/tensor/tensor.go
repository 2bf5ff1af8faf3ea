// Package tensor defines tensor metadata and the tensor lifetime
// state machine that Harmony's memory manager maintains (paper §3:
// "Harmony's memory manager maintains a state machine tracking the
// lifetime of all tensors used").
//
// A tensor here is metadata only — identity, class, size, and where
// valid copies currently live. Actual numeric payloads exist only in
// the real-execution runtime (internal/exec); the simulator reasons
// purely about bytes and locations.
package tensor

import "fmt"

// Kind classifies a tensor by its role in training, following the
// swap model of Fig. 5(a).
type Kind int

const (
	// Weight is a layer's parameter tensor W.
	Weight Kind = iota
	// WeightGrad is the gradient buffer dW (accumulated across
	// microbatches).
	WeightGrad
	// OptState is optimizer state K (e.g. Adam moments).
	OptState
	// Activation is a layer output Y for one microbatch (the next
	// layer's input X).
	Activation
	// Stash is the stashed input X retained from the forward pass
	// for use in the backward pass.
	Stash
	// ActivationGrad is dX/dY flowing backward for one microbatch.
	ActivationGrad
	// Workspace is scratch memory a kernel needs while running.
	Workspace
)

// NumKinds is the number of tensor classes (for per-kind accounting
// arrays).
const NumKinds = 7

var kindNames = [NumKinds]string{"W", "dW", "K", "Y", "X", "dX", "WS"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsPersistent reports whether tensors of this kind live across the
// whole iteration (weights, gradient buffers, optimizer state) rather
// than being produced and consumed within it.
func (k Kind) IsPersistent() bool {
	return k == Weight || k == WeightGrad || k == OptState
}

// Tensor is immutable metadata about one tensor. It has no name: ID
// identifies it within its Registry, and String prints its kind, layer
// and microbatch.
type Tensor struct {
	ID    int
	Kind  Kind
	Bytes int64
	// Layer is the owning layer index; Microbatch is the microbatch
	// index for per-microbatch tensors and -1 for shared state
	// (weights, gradients, optimizer state).
	Layer      int
	Microbatch int
}

func (t *Tensor) String() string {
	if t.Microbatch < 0 {
		return fmt.Sprintf("%s[L%d]", t.Kind, t.Layer)
	}
	return fmt.Sprintf("%s[L%d,mb%d]", t.Kind, t.Layer, t.Microbatch)
}

// Registry allocates tensor IDs and owns all tensor metadata for one
// training job.
type Registry struct {
	tensors []*Tensor
	// slab is the unused tail of the chunk Add takes tensors from.
	slab []Tensor
}

// tensorChunk is how many tensors one slab chunk holds (16 KiB).
const tensorChunk = 256

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Grow makes room for n more tensors, so the next n calls to Add take
// them from one chunk and do not grow All's array.
func (r *Registry) Grow(n int) {
	if len(r.slab) < n {
		r.slab = make([]Tensor, n)
	}
	if cap(r.tensors)-len(r.tensors) < n {
		r.tensors = append(make([]*Tensor, 0, len(r.tensors)+n), r.tensors...)
	}
}

// Add registers a tensor and returns it; its ID is its index in All.
func (r *Registry) Add(kind Kind, bytes int64, layer, microbatch int) *Tensor {
	if bytes < 0 {
		panic(fmt.Sprintf("tensor: negative size %d for %v", bytes, &Tensor{Kind: kind, Layer: layer, Microbatch: microbatch}))
	}
	if len(r.slab) == 0 {
		r.slab = make([]Tensor, tensorChunk)
	}
	t := &r.slab[0]
	r.slab = r.slab[1:]
	*t = Tensor{ID: len(r.tensors), Kind: kind, Bytes: bytes, Layer: layer, Microbatch: microbatch}
	r.tensors = append(r.tensors, t)
	return t
}

// New is Add with a name, which it discards.
//
// Deprecated: tensors have no names; use Add.
func (r *Registry) New(_ string, kind Kind, bytes int64, layer, microbatch int) *Tensor {
	return r.Add(kind, bytes, layer, microbatch)
}

// Len returns the number of registered tensors.
func (r *Registry) Len() int { return len(r.tensors) }

// All returns all tensors in ID order. The returned slice must not be
// modified.
func (r *Registry) All() []*Tensor { return r.tensors }

// TotalBytes sums the sizes of all tensors of the given kinds (all
// kinds if none given).
func (r *Registry) TotalBytes(kinds ...Kind) int64 {
	var sum int64
	for _, t := range r.tensors {
		if len(kinds) == 0 {
			sum += t.Bytes
			continue
		}
		for _, k := range kinds {
			if t.Kind == k {
				sum += t.Bytes
				break
			}
		}
	}
	return sum
}
