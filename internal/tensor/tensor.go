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

// Tensor is immutable metadata about one tensor.
type Tensor struct {
	ID    int
	Name  string
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
	byName  map[string]*Tensor
	// slab is the unused tail of the chunk New takes tensors from.
	slab []Tensor
}

// tensorChunk is how many tensors one slab chunk holds (16 KiB).
const tensorChunk = 256

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Tensor)}
}

// New registers a tensor and returns it. Names must be unique; a
// duplicate name panics because it indicates a graph-construction bug.
func (r *Registry) New(name string, kind Kind, bytes int64, layer, microbatch int) *Tensor {
	if bytes < 0 {
		panic(fmt.Sprintf("tensor: negative size %d for %s", bytes, name))
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("tensor: duplicate tensor name %q", name))
	}
	if len(r.slab) == 0 {
		r.slab = make([]Tensor, tensorChunk)
	}
	t := &r.slab[0]
	r.slab = r.slab[1:]
	*t = Tensor{ID: len(r.tensors), Name: name, Kind: kind, Bytes: bytes, Layer: layer, Microbatch: microbatch}
	r.tensors = append(r.tensors, t)
	r.byName[name] = t
	return t
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
