package exec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"harmony/internal/tensor"
)

// checkpointMagic identifies the on-disk format; bump the version on
// layout changes.
const checkpointMagic uint32 = 0x48724d31 // "HrM1"

// Save serializes replica 0's weights and optimizer state (dirty
// device copies are written back first, so the checkpoint reflects
// the latest update). The format is self-describing: magic, step,
// layer count, then per layer the parameter and optimizer-state
// vectors.
func (tr *Trainer) Save(w io.Writer) error {
	write := func(v any) error { return binary.Write(w, binary.LittleEndian, v) }
	if err := write(checkpointMagic); err != nil {
		return fmt.Errorf("exec: checkpoint write: %w", err)
	}
	if err := write(uint64(tr.step)); err != nil {
		return err
	}
	if err := write(uint32(len(tr.layers))); err != nil {
		return err
	}
	for l, layer := range tr.layers {
		params, err := tr.vm.Host(tr.g.W[0][l])
		if err != nil {
			return fmt.Errorf("exec: checkpoint layer %d: %w", l, err)
		}
		if err := write(uint32(layer.ParamCount())); err != nil {
			return err
		}
		if err := writeFloats(w, params[:layer.ParamCount()]); err != nil {
			return err
		}
		var opt []float32
		if tr.g.K[0][l].Bytes > 0 {
			opt, err = tr.vm.Host(tr.g.K[0][l])
			if err != nil {
				return fmt.Errorf("exec: checkpoint optimizer %d: %w", l, err)
			}
		}
		if err := write(uint32(len(opt))); err != nil {
			return err
		}
		if err := writeFloats(w, opt); err != nil {
			return err
		}
	}
	return nil
}

// Load restores weights and optimizer state into every replica (all
// replicas must stay identical) and resumes the optimizer step count.
// The trainer's architecture must match the checkpoint. The whole
// checkpoint is read and validated before any buffer is written, so a
// rejected one leaves the trainer as it was; an accepted one decides
// the state alone — a checkpoint without optimizer state (SGD) zeroes
// an Adam trainer's moments.
func (tr *Trainer) Load(r io.Reader) error {
	read := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var magic uint32
	if err := read(&magic); err != nil {
		return fmt.Errorf("exec: checkpoint read: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("exec: not a harmony checkpoint (magic %#x)", magic)
	}
	var step uint64
	if err := read(&step); err != nil {
		return err
	}
	if step > math.MaxInt32 {
		return fmt.Errorf("exec: checkpoint step %d is implausible (corrupt header?)", step)
	}
	var layers uint32
	if err := read(&layers); err != nil {
		return err
	}
	if int(layers) != len(tr.layers) {
		return fmt.Errorf("exec: checkpoint has %d layers, trainer has %d", layers, len(tr.layers))
	}
	params := make([][]float32, len(tr.layers))
	opts := make([][]float32, len(tr.layers))
	for l, layer := range tr.layers {
		var pn uint32
		if err := read(&pn); err != nil {
			return err
		}
		if int(pn) != layer.ParamCount() {
			return fmt.Errorf("exec: layer %d: checkpoint %d params, model %d", l, pn, layer.ParamCount())
		}
		var err error
		if params[l], err = readFloats(r, int(pn)); err != nil {
			return err
		}
		var on uint32
		if err := read(&on); err != nil {
			return err
		}
		// Validate the optimizer-state count against the model before
		// allocating: a corrupt uint32 here would otherwise drive a
		// multi-gigabyte allocation (found by FuzzLoad).
		if want := tr.g.K[0][l].Bytes / 4; on != 0 && int64(on) != want {
			return fmt.Errorf("exec: layer %d: checkpoint has %d optimizer floats, model has %d",
				l, on, want)
		}
		if opts[l], err = readFloats(r, int(on)); err != nil {
			return err
		}
	}
	// The checkpoint decides the state alone: what the VM holds of it is
	// dropped unread — never written back to be overwritten — and born
	// again with the checkpoint's values, zero-padded.
	births := tr.births()
	for _, b := range births {
		if err := tr.vm.Free(b.t); err != nil {
			return err
		}
	}
	for _, b := range births {
		vals := params[b.t.Layer]
		if b.t.Kind == tensor.OptState {
			vals = opts[b.t.Layer]
		}
		if err := tr.bear(b, func(dst []float32) { copy(dst, vals) }); err != nil {
			return err
		}
	}
	tr.step = int(step)
	return nil
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
