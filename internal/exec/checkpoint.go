package exec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"harmony/internal/tensor"
)

// checkpointMagic identifies the on-disk format; bump the version on
// layout changes.
const checkpointMagic uint32 = 0x48724d31 // "HrM1"

// state is the trainer's persistent state at a step boundary: the step
// counter and, per layer, replica 0's weights and optimizer state. That
// is all of it, because every replica holds the same weights and an
// update resets the gradient it applies: the next backward overwrites
// it unread (DESIGN.md §9). It is what a checkpoint
// encodes and what recovery rolls back to. k[l] is empty for a layer
// without optimizer state, and for a checkpoint that carries none.
type state struct {
	step int
	w, k [][]float32
}

// capture reads the trainer's state into st, reusing st's slices. It
// moves nothing (VM.Read): page state, host backing and the links stay
// as they were, so capturing is not a fault site either.
func (tr *Trainer) capture(st *state) error {
	n := len(tr.layers)
	st.step = tr.step
	st.w = slices.Grow(st.w[:0], n)[:n]
	st.k = slices.Grow(st.k[:0], n)[:n]
	for l := range tr.layers {
		if err := tr.read(tr.g.W[0][l], &st.w[l]); err != nil {
			return fmt.Errorf("exec: layer %d weights: %w", l, err)
		}
		if err := tr.read(tr.g.K[0][l], &st.k[l]); err != nil {
			return fmt.Errorf("exec: layer %d optimizer state: %w", l, err)
		}
	}
	return nil
}

// read copies t into *dst, resized to t's floats. A zero-byte tensor is
// read as nothing: it may have no buffer at all.
func (tr *Trainer) read(t *tensor.Tensor, dst *[]float32) error {
	n := int(t.Bytes / 4)
	*dst = slices.Grow((*dst)[:0], n)[:n]
	if n == 0 {
		return nil
	}
	return tr.vm.Read(t, *dst)
}

// restore makes st the state of tr.vm, a fresh VM (newVM). What it
// holds of the weights and optimizer state — the known-zero moments —
// is dropped unread and born again with st's values, zero-padded: a
// state without optimizer state zeroes an Adam trainer's moments.
func (tr *Trainer) restore(st *state) error {
	births := tr.births()
	for _, b := range births {
		if err := tr.vm.Free(b.t); err != nil {
			return err
		}
	}
	for _, b := range births {
		vals := st.w[b.t.Layer]
		if b.t.Kind == tensor.OptState {
			vals = st.k[b.t.Layer]
		}
		if err := tr.bear(b, func(dst []float32) error { copy(dst, vals); return nil }); err != nil {
			return err
		}
	}
	tr.step = st.step
	return nil
}

// Save writes the trainer's state — replica 0's weights and optimizer
// state and the step counter — as a checkpoint, moving no page to do it.
// The format is self-describing: magic, step, layer count, then per
// layer the parameter and optimizer-state vectors.
func (tr *Trainer) Save(w io.Writer) error {
	var st state
	if err := tr.capture(&st); err != nil {
		return fmt.Errorf("exec: checkpoint: %w", err)
	}
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := write(checkpointMagic); err != nil {
		return fmt.Errorf("exec: checkpoint write: %w", err)
	}
	if err := write(uint64(st.step)); err != nil {
		return err
	}
	if err := write(uint32(len(st.w))); err != nil {
		return err
	}
	for l := range st.w {
		for _, vs := range [2][]float32{st.w[l], st.k[l]} {
			if err := write(uint32(len(vs))); err != nil {
				return err
			}
			if err := writeFloats(w, vs); err != nil {
				return err
			}
		}
	}
	return nil
}

// Load restores a checkpoint into every replica (all replicas must stay
// identical) and resumes the optimizer step count. The trainer's
// architecture must match the checkpoint. The whole checkpoint is read
// and validated before any buffer is written, and it is restored into a
// fresh VM that replaces the live one only when the restore succeeds
// (reload), so a rejected checkpoint or a failed restore leaves the
// trainer as it was; an accepted one decides the state alone.
func (tr *Trainer) Load(r io.Reader) error {
	st, err := tr.decode(r)
	if err != nil {
		return err
	}
	if err := tr.reload(st); err != nil {
		return fmt.Errorf("exec: checkpoint restore: %w", err)
	}
	return nil
}

// decode reads and validates a checkpoint against the trainer's
// architecture.
func (tr *Trainer) decode(r io.Reader) (*state, error) {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var magic uint32
	if err := read(&magic); err != nil {
		return nil, fmt.Errorf("exec: checkpoint read: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("exec: not a harmony checkpoint (magic %#x)", magic)
	}
	var step uint64
	if err := read(&step); err != nil {
		return nil, err
	}
	if step > math.MaxInt32 {
		return nil, fmt.Errorf("exec: checkpoint step %d is implausible (corrupt header?)", step)
	}
	var layers uint32
	if err := read(&layers); err != nil {
		return nil, err
	}
	if int(layers) != len(tr.layers) {
		return nil, fmt.Errorf("exec: checkpoint has %d layers, trainer has %d", layers, len(tr.layers))
	}
	st := &state{step: int(step), w: make([][]float32, layers), k: make([][]float32, layers)}
	for l, layer := range tr.layers {
		var pn uint32
		if err := read(&pn); err != nil {
			return nil, err
		}
		if int(pn) != layer.ParamCount() {
			return nil, fmt.Errorf("exec: layer %d: checkpoint %d params, model %d", l, pn, layer.ParamCount())
		}
		var err error
		if st.w[l], err = readFloats(r, int(pn)); err != nil {
			return nil, err
		}
		var on uint32
		if err := read(&on); err != nil {
			return nil, err
		}
		// Validate the optimizer-state count against the model before
		// allocating: a corrupt uint32 here would otherwise drive a
		// multi-gigabyte allocation (found by FuzzLoad).
		if want := tr.g.K[0][l].Bytes / 4; on != 0 && int64(on) != want {
			return nil, fmt.Errorf("exec: layer %d: checkpoint has %d optimizer floats, model has %d",
				l, on, want)
		}
		if st.k[l], err = readFloats(r, int(on)); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func writeFloats(w io.Writer, vs []float32) error {
	buf := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	_, err := w.Write(buf)
	return err
}

func readFloats(r io.Reader, n int) ([]float32, error) {
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out, nil
}
